"""Behaviour of the immutable records a scan builds and returns.

Each record prints as ``Name(field=value, ...)``, builds by keyword or by
position with the same field order and defaults, hashes like the tuple of
its fields and compares equal to an instance with equal fields.
"""

import pytest

from bankscan.apk import ApkArchive, ApkEntry
from bankscan.axml import ANDROID_NS, AxmlAttribute, ResourceRef
from bankscan.dex import ClassDef, MethodBody
from bankscan.knowledge import CountermeasureEntry, KnowledgeBase, ThreatEntry, UserCountermeasure
from bankscan.manifest import ApplicationAttrs, ComponentDecl, IntentFilterDecl, ManifestModel, PermissionDecl
from bankscan.report import FleetMatrix, Report, ReportSection
from bankscan.rules import Finding, RuleId, ScanResult, Severity

_ENTRY = dict(
    name="classes.dex", method=8, crc32=0x1234, compressed_size=10,
    uncompressed_size=20, local_header_offset=0, flags=0,
)
_FILTER = dict(actions=("android.intent.action.VIEW",), categories=(), data_specs=("scheme=https",))
_COMPONENT = dict(
    kind="activity", name=".Main", exported=None, permission=None,
    intent_filters=(IntentFilterDecl(**_FILTER),),
)
_FINDING = dict(
    rule=RuleId.R04, severity=Severity.CRITICAL, title="Remote code execution",
    evidence=("classes.dex: LMain;->run +0x0002",), category="WebView",
)
_SECTION = dict(
    rule=RuleId.R11, title="File unsafe deleting", evidence=("e1", "e2"), severity=Severity.NOTICE,
    category="Storage", background="bg", recommendation="rec",
)
_THREAT = dict(rule=RuleId.R10, threat_name="Data theft", description="adb backup")

# (record type, its fields in declaration order, repr of that instance)
CASES = [
    (
        ApkEntry, _ENTRY,
        "ApkEntry(name='classes.dex', method=8, crc32=4660, compressed_size=10, "
        "uncompressed_size=20, local_header_offset=0, flags=0)",
    ),
    (
        ApkArchive, dict(source_path=None, data=b"PK", entries=(ApkEntry(**_ENTRY),)),
        "ApkArchive(source_path=None, data=b'PK', entries=(ApkEntry(name='classes.dex', method=8, "
        "crc32=4660, compressed_size=10, uncompressed_size=20, local_header_offset=0, flags=0),))",
    ),
    (ResourceRef, dict(resource_id=0x7F010001), "ResourceRef(resource_id=2130771969)"),
    (
        AxmlAttribute, dict(namespace=ANDROID_NS, name="exported", value=ResourceRef(5)),
        "AxmlAttribute(namespace='http://schemas.android.com/apk/res/android', name='exported', "
        "value=ResourceRef(resource_id=5))",
    ),
    (
        ClassDef, dict(type_name="LMain;", methods=(MethodBody("LMain;", "run", b"\x0e\x00"),)),
        "ClassDef(type_name='LMain;', methods=(MethodBody(owner='LMain;', name='run'),))",
    ),
    (
        IntentFilterDecl, _FILTER,
        "IntentFilterDecl(actions=('android.intent.action.VIEW',), categories=(), "
        "data_specs=('scheme=https',))",
    ),
    (
        ComponentDecl, _COMPONENT,
        "ComponentDecl(kind='activity', name='.Main', exported=None, permission=None, "
        "intent_filters=(IntentFilterDecl(actions=('android.intent.action.VIEW',), categories=(), "
        "data_specs=('scheme=https',)),))",
    ),
    (
        PermissionDecl, dict(name="com.example.P", protection_level="normal"),
        "PermissionDecl(name='com.example.P', protection_level='normal')",
    ),
    (
        ApplicationAttrs, dict(allow_backup=False, debuggable=None),
        "ApplicationAttrs(allow_backup=False, debuggable=None)",
    ),
    (
        ManifestModel,
        dict(
            package_name="com.example", min_sdk=21, target_sdk=None,
            application=ApplicationAttrs(True, None), components=(ComponentDecl(**_COMPONENT),),
            declared_permissions=(PermissionDecl("com.example.P", "unset"),),
        ),
        "ManifestModel(package_name='com.example', min_sdk=21, target_sdk=None, "
        "application=ApplicationAttrs(allow_backup=True, debuggable=None), "
        "components=(ComponentDecl(kind='activity', name='.Main', exported=None, permission=None, "
        "intent_filters=(IntentFilterDecl(actions=('android.intent.action.VIEW',), categories=(), "
        "data_specs=('scheme=https',)),)),), "
        "declared_permissions=(PermissionDecl(name='com.example.P', protection_level='unset'),))",
    ),
    (
        Finding, _FINDING,
        "Finding(rule=<RuleId.R04: 'R04'>, severity=<Severity.CRITICAL: 'critical'>, "
        "title='Remote code execution', evidence=('classes.dex: LMain;->run +0x0002',), category='WebView')",
    ),
    (
        ScanResult, dict(apk_name="a.apk", findings=(Finding(**_FINDING),), rule_vector=(False, True)),
        "ScanResult(apk_name='a.apk', findings=(Finding(rule=<RuleId.R04: 'R04'>, "
        "severity=<Severity.CRITICAL: 'critical'>, title='Remote code execution', "
        "evidence=('classes.dex: LMain;->run +0x0002',), category='WebView'),), rule_vector=(False, True))",
    ),
    (
        ReportSection, _SECTION,
        "ReportSection(rule=<RuleId.R11: 'R11'>, title='File unsafe deleting', evidence=('e1', 'e2'), "
        "severity=<Severity.NOTICE: 'notice'>, category='Storage', background='bg', recommendation='rec')",
    ),
    (
        Report,
        dict(
            apk_name="a.apk", generated_at="2024-01-01T00:00:00+00:00",
            sections=(ReportSection(**_SECTION),), user_countermeasures=("u1",), schema_version=1,
        ),
        "Report(apk_name='a.apk', generated_at='2024-01-01T00:00:00+00:00', "
        "sections=(ReportSection(rule=<RuleId.R11: 'R11'>, title='File unsafe deleting', "
        "evidence=('e1', 'e2'), severity=<Severity.NOTICE: 'notice'>, category='Storage', "
        "background='bg', recommendation='rec'),), user_countermeasures=('u1',), schema_version=1)",
    ),
    (
        FleetMatrix,
        dict(
            apps=("a", "b"), rules=(RuleId.R01,), cells=((True,), (False,)), totals=(1, 0),
            percentages=("100.00", "0.00"), rule_titles=("Implicit intent for service",), schema_version=1,
        ),
        "FleetMatrix(apps=('a', 'b'), rules=(<RuleId.R01: 'R01'>,), cells=((True,), (False,)), "
        "totals=(1, 0), percentages=('100.00', '0.00'), rule_titles=('Implicit intent for service',), "
        "schema_version=1)",
    ),
    (
        ThreatEntry, _THREAT,
        "ThreatEntry(rule=<RuleId.R10: 'R10'>, threat_name='Data theft', description='adb backup')",
    ),
    (
        CountermeasureEntry, dict(rule=RuleId.R10, developer_action="set allowBackup=false"),
        "CountermeasureEntry(rule=<RuleId.R10: 'R10'>, developer_action='set allowBackup=false')",
    ),
    (UserCountermeasure, dict(text="keep the OS updated"), "UserCountermeasure(text='keep the OS updated')"),
    (
        KnowledgeBase,
        dict(
            threats={RuleId.R10: ThreatEntry(**_THREAT)}, countermeasures={}, backgrounds={RuleId.R10: "bg"},
            user_countermeasures=(UserCountermeasure("u"),),
        ),
        "KnowledgeBase(threats={<RuleId.R10: 'R10'>: ThreatEntry(rule=<RuleId.R10: 'R10'>, "
        "threat_name='Data theft', description='adb backup')}, countermeasures={}, "
        "backgrounds={<RuleId.R10: 'R10'>: 'bg'}, user_countermeasures=(UserCountermeasure(text='u'),))",
    ),
]


@pytest.mark.parametrize("cls, fields, expected", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaviour(cls, fields, expected):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert repr(by_keyword) == expected
    assert repr(by_position) == expected
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) is value
    assert by_keyword == by_position
    assert not by_keyword != by_position
    if cls is KnowledgeBase:  # its lookup tables are dicts, so it is not hashable
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position) == hash(tuple(fields.values()))


def test_every_record_type_is_pinned():
    assert len({cls for cls, _, _ in CASES}) == 19


def test_defaults_are_unchanged():
    report = Report("a.apk", "t", (), ())
    matrix = FleetMatrix(("a",), (RuleId.R01,), ((False,),), (0,), ("0.00",), ("t",))
    assert report.schema_version == matrix.schema_version == 1


def test_findings_in_a_set():
    first, again = Finding(**_FINDING), Finding(*_FINDING.values())
    other = Finding(**{**_FINDING, "evidence": ("classes2.dex: LMain;->run +0x0004",)})
    assert {first, again, other} == {first, other}
    assert len({first, again, other}) == 2
    assert again in {first}
    assert other not in {first}
