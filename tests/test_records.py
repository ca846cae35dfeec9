"""Behaviour of the records a scan builds and returns.

Each record prints as ``Name(field=value, ...)``, builds by keyword or by
position with the same field order and defaults, compares equal to an
instance with equal fields, and copies and pickles. The named tuples, pinned
by ``CASES``, also compare equal to and hash like the tuple of their fields;
the two records that are not tuples, by ``CLASS_CASES``. The three records
that were classes before they became named tuples (``AxmlDocument``,
``CliConfig`` and ``DexImage``) also keep the class-record checks.
"""

import copy
import pickle
import struct
from pathlib import Path

import pytest

from bankscan.apk import ApkArchive, ApkEntry
from bankscan.axml import ANDROID_NS, AxmlAttribute, AxmlDocument, AxmlElement, ResourceRef
from bankscan.cli import CliConfig
from bankscan.dex import DexImage, Instruction, MethodBody, MethodRef, _Invokes, _Rows, _sites_of
from bankscan.knowledge import KnowledgeBase, RuleKnowledge
from bankscan.manifest import ComponentDecl, ManifestModel, PermissionDecl
from bankscan.report import SCHEMA_VERSION, FleetMatrix, Report
from bankscan.rules import Finding, RuleId, ScanInput, ScanResult, Severity

_ENTRY = dict(
    name="classes.dex", method=8, crc32=0x1234, compressed_size=10,
    uncompressed_size=20, local_header_offset=0, flags=0,
)
_COMPONENT = dict(
    kind="activity", name=".Main", exported=None, permission=None,
    intent_filters=(("android.intent.action.VIEW",),),
)
_FINDING = dict(rule=RuleId.R04, evidence=("classes.dex: LMain;->run +0x0002",))
_KNOWLEDGE = dict(
    threat_name="Data theft", threat_description="adb backup", developer_countermeasure="set allowBackup=false",
    background="bg",
)
# One class of one method: invoke-virtual {v0} of method 0, then return-void,
# its stream at byte 8 (unit 4) after its insns_size.
_CODE = b"\x6e\x10\x00\x00\x00\x00\x0e\x00"
_ROWS = _Rows(b"\x00" * 4 + struct.pack("<I", len(_CODE) // 2) + _CODE, (0,), (8,), ("LMain;",), (1,))
_PATHS = {name: Path(name) for name in ("a.apk", "d", "o.txt")}

# (record type, its fields in declaration order, repr of that instance)
CASES = [
    (
        ApkEntry, _ENTRY,
        "ApkEntry(name='classes.dex', method=8, crc32=4660, compressed_size=10, "
        "uncompressed_size=20, local_header_offset=0, flags=0)",
    ),
    (
        ApkArchive, dict(data=b"PK", entries={"classes.dex": ApkEntry(**_ENTRY)}),
        "ApkArchive(data=b'PK', entries={'classes.dex': ApkEntry(name='classes.dex', method=8, "
        "crc32=4660, compressed_size=10, uncompressed_size=20, local_header_offset=0, flags=0)})",
    ),
    (ResourceRef, dict(resource_id=0x7F010001), "ResourceRef(resource_id=2130771969)"),
    (
        AxmlDocument,
        dict(string_pool=("manifest",), root=AxmlElement(None, "manifest", ()), warnings=("w",)),
        "AxmlDocument(string_pool=('manifest',), root=AxmlElement(namespace=None, name='manifest', "
        "attributes=(), children=[]), warnings=('w',))",
    ),
    (
        AxmlAttribute, dict(namespace=ANDROID_NS, name="exported", value=ResourceRef(5)),
        "AxmlAttribute(namespace='http://schemas.android.com/apk/res/android', name='exported', "
        "value=ResourceRef(resource_id=5))",
    ),
    (
        DexImage,
        dict(
            string_ids=(0,), type_names=("LMain;",), method_refs=(MethodRef("LMain;", "run", "V"),),
            source_name="classes2.dex", rows=_ROWS, invokes=_Invokes("\x00", [0], [4]),
        ),
        "DexImage(string_ids=(0,), type_names=('LMain;',), method_refs=(MethodRef(owner='LMain;', "
        "name='run', shorty='V'),), source_name='classes2.dex')",
    ),
    (
        MethodBody, dict(owner="LMain;", name="run", code=b"\x0e\x00"),
        "MethodBody(owner='LMain;', name='run', code=b'\\x0e\\x00')",
    ),
    (
        ComponentDecl, _COMPONENT,
        "ComponentDecl(kind='activity', name='.Main', exported=None, permission=None, "
        "intent_filters=(('android.intent.action.VIEW',),))",
    ),
    (
        PermissionDecl, dict(name="com.example.P", protection_level="normal"),
        "PermissionDecl(name='com.example.P', protection_level='normal')",
    ),
    (
        ManifestModel,
        dict(
            package_name="com.example", target_sdk=None, allow_backup=True,
            components=(ComponentDecl(**_COMPONENT),),
            declared_permissions=(PermissionDecl("com.example.P", "unset"),),
        ),
        "ManifestModel(package_name='com.example', target_sdk=None, allow_backup=True, "
        "components=(ComponentDecl(kind='activity', name='.Main', exported=None, permission=None, "
        "intent_filters=(('android.intent.action.VIEW',),)),), "
        "declared_permissions=(PermissionDecl(name='com.example.P', protection_level='unset'),))",
    ),
    (
        Finding, _FINDING,
        "Finding(rule=<RuleId.R04: 'R04'>, evidence=('classes.dex: LMain;->run +0x0002',))",
    ),
    (
        ScanResult, dict(apk_name="a.apk", findings=(Finding(**_FINDING),), rule_vector=(False, True)),
        "ScanResult(apk_name='a.apk', findings=(Finding(rule=<RuleId.R04: 'R04'>, "
        "evidence=('classes.dex: LMain;->run +0x0002',)),), rule_vector=(False, True))",
    ),
    (
        Report,
        dict(apk_name="a.apk", generated_at="2024-01-01T00:00:00+00:00", sections=(Finding(**_FINDING),)),
        "Report(apk_name='a.apk', generated_at='2024-01-01T00:00:00+00:00', "
        "sections=(Finding(rule=<RuleId.R04: 'R04'>, evidence=('classes.dex: LMain;->run +0x0002',)),))",
    ),
    (
        FleetMatrix,
        dict(apps=("a", "b"), cells=((True,), (False,)), totals=(1, 0), percentages=("100.00", "0.00")),
        "FleetMatrix(apps=('a', 'b'), cells=((True,), (False,)), totals=(1, 0), percentages=('100.00', '0.00'))",
    ),
    (
        RuleKnowledge, _KNOWLEDGE,
        "RuleKnowledge(threat_name='Data theft', threat_description='adb backup', "
        "developer_countermeasure='set allowBackup=false', background='bg')",
    ),
    (
        KnowledgeBase,
        dict(rules={RuleId.R10: RuleKnowledge(**_KNOWLEDGE)}, user_countermeasures=("u",)),
        "KnowledgeBase(rules={<RuleId.R10: 'R10'>: RuleKnowledge(threat_name='Data theft', "
        "threat_description='adb backup', developer_countermeasure='set allowBackup=false', background='bg')}, "
        "user_countermeasures=('u',))",
    ),
    (
        CliConfig,
        dict(
            mode="batch", inputs=(_PATHS["a.apk"],), dirs=(_PATHS["d"],), output_path=_PATHS["o.txt"],
            fmt="json", fail_threshold=Severity.WARNING,
        ),
        f"CliConfig(mode='batch', inputs=({_PATHS['a.apk']!r},), dirs=({_PATHS['d']!r},), "
        f"output_path={_PATHS['o.txt']!r}, fmt='json', fail_threshold=<Severity.WARNING: 'warning'>)",
    ),
]

# Not hashable: an ApkArchive's entries and a KnowledgeBase's lookup table
# are dicts, a DexImage's invoke columns are lists, an AxmlElement (so an
# AxmlDocument's root) is mutable and a ScanInput's DEX images are unhashable.
_UNHASHABLE = (ApkArchive, KnowledgeBase, DexImage, AxmlDocument, AxmlElement, ScanInput)


@pytest.mark.parametrize("cls, fields, expected", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaviour(cls, fields, expected):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert repr(by_keyword) == expected
    assert repr(by_position) == expected
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
        assert getattr(by_position, name) is value
        with pytest.raises(AttributeError):
            setattr(by_keyword, name, value)
    assert by_keyword == by_position == tuple(fields.values())
    assert not by_keyword != by_position
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position) == hash(tuple(fields.values()))
    for clone in (copy.copy(by_keyword), copy.deepcopy(by_keyword), pickle.loads(pickle.dumps(by_keyword))):
        assert type(clone) is cls and clone == by_keyword and repr(clone) == expected


def test_every_record_type_is_pinned():
    assert len({cls for cls, _, _ in CASES}) == 17


def test_defaults_are_unchanged():
    # A report and a matrix hold only what varies by scan, every field given;
    # the writers write the one schema version.
    assert Report._field_defaults == FleetMatrix._field_defaults == {}
    with pytest.raises(TypeError):
        Report("a.apk", "t")
    assert SCHEMA_VERSION == 1


def test_findings_in_a_set():
    first, again = Finding(**_FINDING), Finding(*_FINDING.values())
    other = Finding(**{**_FINDING, "evidence": ("classes2.dex: LMain;->run +0x0004",)})
    assert {first, again, other} == {first, other}
    assert len({first, again, other}) == 2
    assert again in {first}
    assert other not in {first}


# --- the two records that are classes, not tuples ----------------------------

_MANIFEST = ManifestModel("com.example", None, None, (), ())

# (record type, its fields in declaration order, repr of that instance, whether it is frozen)
CLASS_CASES = [
    (
        AxmlElement,
        dict(
            namespace=None, name="manifest", attributes=(AxmlAttribute(ANDROID_NS, "versionCode", 1),),
            children=[AxmlElement(None, "application", ())],
        ),
        "AxmlElement(namespace=None, name='manifest', attributes=(AxmlAttribute("
        "namespace='http://schemas.android.com/apk/res/android', name='versionCode', value=1),), "
        "children=[AxmlElement(namespace=None, name='application', attributes=(), children=[])])",
        False,
    ),
    (
        ScanInput,
        dict(manifest=_MANIFEST, dexes=(DexImage((0,), (), ()),), apk_name="a.apk"),
        "ScanInput(manifest=ManifestModel(package_name='com.example', target_sdk=None, "
        "allow_backup=None, components=(), "
        "declared_permissions=()), dexes=(DexImage(string_ids=(0,), type_names=(), method_refs=(), "
        "source_name='classes.dex'),), apk_name='a.apk')",
        True,
    ),
]
# The class cases plus the named tuples that were classes, all three frozen.
_CLASS_CHECKED = CLASS_CASES + [
    (cls, fields, expected, True) for cls, fields, expected in CASES if cls in (AxmlDocument, CliConfig, DexImage)
]


@pytest.mark.parametrize("cls, fields, expected, frozen", _CLASS_CHECKED, ids=[c[0].__name__ for c in _CLASS_CHECKED])
def test_class_record_behaviour(cls, fields, expected, frozen):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert repr(by_keyword) == expected
    assert repr(by_position) == expected
    for name, value in fields.items():
        assert getattr(by_keyword, name) is value
        assert getattr(by_position, name) is value
    assert by_keyword == by_position
    assert not by_keyword != by_position

    key = tuple(fields.values())
    if issubclass(cls, tuple):
        assert by_keyword == key
    else:  # only an instance of the same class compares equal
        assert by_keyword != key
        assert cls.__eq__(by_keyword, key) is NotImplemented
    for name in fields:  # every field takes part in ==
        other = cls(**{**fields, name: object()})
        assert other != by_keyword and not other == by_keyword

    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position) == hash(key)
    if frozen:
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(by_keyword, name, fields[name])
        assert by_keyword == by_position
    else:
        for name, value in fields.items():
            setattr(by_position, name, value)
            assert getattr(by_position, name) is value


@pytest.mark.parametrize("cls, fields", [c[:2] for c in _CLASS_CHECKED], ids=[c[0].__name__ for c in _CLASS_CHECKED])
def test_class_records_copy_and_pickle(cls, fields):
    record = cls(**fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone is not record
        assert clone == record and repr(clone) == repr(record)


def test_every_class_record_type_is_pinned():
    assert len({cls for cls, *_ in CLASS_CASES}) == 2


def test_class_record_defaults():
    element = AxmlElement(None, "manifest", ())
    assert element.children == [] and element.children is not AxmlElement(None, "manifest", ()).children
    assert AxmlDocument(("m",), element).warnings == ()

    assert CliConfig("help") == CliConfig(mode="help") == ("help", (), (), None, "text", None)

    image = DexImage(("s",), (), ())
    assert image.source_name == "classes.dex"
    assert image.rows == (b"", (), (), (), ()) and list(image.bodies()) == []
    assert image.invokes == ("", [], [])


def test_a_dex_image_built_from_rows_gives_its_bodies_and_sites():
    ref = MethodRef("LMain;", "run", "V")
    image = DexImage(("s",), ("LMain;",), (ref,), rows=_ROWS, invokes=_Invokes("\x00", [0], [4]))
    [body] = image.bodies()
    assert body == MethodBody("LMain;", "run", _CODE)
    assert body.instructions == (Instruction(0x6E, 0, 3, method_index=0), Instruction(0x0E, 6, 1))
    assert _sites_of(image, [0]) == [("LMain;", "run", ref, 0, 0)]
    assert image != DexImage(("s",), ("LMain;",), (ref,), rows=_ROWS._replace(data=_ROWS.data[:-2] + b"\x00\x00"))


def test_scan_input_needs_a_dex():
    with pytest.raises(ValueError, match=r"^scan input needs at least one DEX image$"):
        ScanInput(_MANIFEST, (), "a.apk")
    with pytest.raises(ValueError, match=r"^scan input needs at least one DEX image$"):
        ScanInput(manifest=_MANIFEST, dexes=(), apk_name="a.apk")


def test_scan_input_fields_cannot_be_deleted():
    scan = ScanInput(_MANIFEST, (DexImage(("s",), (), ()),), "a.apk")
    with pytest.raises(AttributeError) as info:
        del scan.apk_name
    assert type(info.value) is AttributeError
    assert str(info.value) == "cannot delete field 'apk_name'"
    assert scan.apk_name == "a.apk"


def test_cached_properties_are_cached():
    su_only = _Rows(b"\x02su\x00", (), (), (), ())  # one string, "su", at offset 0
    scan = ScanInput(_MANIFEST, (DexImage((0,), (), (), rows=su_only),), "a.apk")
    facts = scan.facts
    assert facts == {"root marker": [(scan.dexes[0], "su")]}
    assert scan.facts is facts
    assert scan.__dict__["facts"] is facts
    assert scan == ScanInput(_MANIFEST, scan.dexes, "a.apk")
