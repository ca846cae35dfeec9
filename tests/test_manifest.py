import pytest

from bankscan.axml import ANDROID_NS, AxmlElement, decode_axml
from bankscan.fixtures import (
    Elem,
    ManifestKnobs,
    build_manifest_bytes,
    encode_document,
    fleet_profiles,
    profile_for_rules,
    rule_oracle_corpus,
)
from bankscan.fixtures.profiles import manifest_element
from bankscan.manifest import (
    ComponentDecl,
    MissingPackageNameError,
    NotAManifestError,
    PermissionDecl,
    build_manifest_model,
    effective_exported,
)
from bankscan.rules import RuleId


def model_from(root: Elem):
    return build_manifest_model(decode_axml(encode_document(root)))


def model_for_knobs(mk: ManifestKnobs, package="fixture.test"):
    return build_manifest_model(decode_axml(encode_document(manifest_element(package, mk))))


def test_fixture_manifest_model():
    profile = profile_for_rules("modeltest", frozenset({RuleId.R10}))
    model = build_manifest_model(decode_axml(build_manifest_bytes(profile)))
    assert model.package_name == "fixture.modeltest"
    assert model.target_sdk == 28
    assert model.allow_backup is None  # attribute omitted
    kinds = [c.kind for c in model.components]
    assert kinds == ["activity"]
    assert model.components[0].intent_filters == (("android.intent.action.MAIN",),)


def test_allow_backup_tri_state():
    assert model_for_knobs(ManifestKnobs(allow_backup=True)).allow_backup is True
    assert model_for_knobs(ManifestKnobs(allow_backup=False)).allow_backup is False
    assert model_for_knobs(ManifestKnobs(allow_backup=None)).allow_backup is None


def test_provider_variants():
    open_model = model_for_knobs(ManifestKnobs(provider_export="open"))
    provider = [c for c in open_model.components if c.kind == "provider"][0]
    assert provider.exported is True and provider.permission is None

    guarded = model_for_knobs(ManifestKnobs(provider_export="guarded"))
    provider = [c for c in guarded.components if c.kind == "provider"][0]
    assert provider.exported is True and provider.permission == "fixture.test.permission.MESSAGES"

    private = model_for_knobs(ManifestKnobs(provider_export="private"))
    provider = [c for c in private.components if c.kind == "provider"][0]
    assert provider.exported is False


def test_permission_protection_levels():
    normal = model_for_knobs(ManifestKnobs(permission_level="normal"))
    assert normal.declared_permissions[0].protection_level == "normal"
    unset = model_for_knobs(ManifestKnobs(permission_level="unset"))
    assert unset.declared_permissions[0].protection_level == "unset"
    signature = model_for_knobs(ManifestKnobs(permission_level="signature"))
    assert signature.declared_permissions[0].protection_level == "signature"
    none = model_for_knobs(ManifestKnobs(permission_level=None))
    assert none.declared_permissions == ()


def test_permission_protection_level_string_and_flagged_forms():
    def perm_root(value):
        return Elem(
            "manifest",
            [(None, "package", "a.b")],
            [Elem("permission", [(ANDROID_NS, "name", "a.b.P"), (ANDROID_NS, "protectionLevel", value)])],
        )

    assert model_from(perm_root("signature")).declared_permissions[0].protection_level == "signature"
    assert model_from(perm_root("dangerous")).declared_permissions[0].protection_level == "dangerous"
    # int with flag bits: 0x12 masks down to signature
    assert model_from(perm_root(0x12)).declared_permissions[0].protection_level == "signature"
    assert model_from(perm_root(1)).declared_permissions[0].protection_level == "dangerous"
    assert model_from(perm_root(3)).declared_permissions[0].protection_level == "signatureOrSystem"


def test_empty_intent_filter_surfaced():
    model = model_for_knobs(ManifestKnobs(empty_intent_filter=True))
    receiver = [c for c in model.components if c.kind == "receiver"][0]
    assert receiver.intent_filters == ((),)  # its one child is a category


def test_no_application_children_gives_empty_components():
    model = model_from(Elem("manifest", [(None, "package", "a.b")]))
    assert model.components == ()
    assert model.target_sdk is None


def target_sdk(value):
    sdk = [(ANDROID_NS, "targetSdkVersion", value)]
    return model_from(Elem("manifest", [(None, "package", "a.b")], [Elem("uses-sdk", sdk)])).target_sdk


def test_string_sdk_versions_parse_only_as_int_would():
    # "²" is a digit to str.isdigit() but not to int(), and int() refuses a
    # string of more than 4,300 digits; each must read as unset, not raise.
    assert target_sdk("²") is None
    assert target_sdk("21") == 21 and target_sdk("0") == 0
    assert target_sdk("\u0662\u0661") == 21  # int() reads Arabic-Indic digits, so they still parse
    assert target_sdk("x1") is None
    assert target_sdk("9" * 5000) is None


def test_boolean_sdk_version_reads_as_unset():
    assert target_sdk(True) is None
    assert target_sdk(30) == 30


def test_protection_level_naming_no_level_reads_as_unset():
    perm = [(ANDROID_NS, "name", "a.b.P"), (ANDROID_NS, "protectionLevel", "signatureOrAdmin")]
    model = model_from(Elem("manifest", [(None, "package", "a.b")], [Elem("permission", perm)]))
    assert model.declared_permissions[0].protection_level == "unset"


def test_not_a_manifest():
    with pytest.raises(NotAManifestError):
        model_from(Elem("resources"))


def test_missing_package_name():
    with pytest.raises(MissingPackageNameError):
        model_from(Elem("manifest"))


def test_boolean_attr_as_resource_reference_is_unset(caplog):
    import struct

    # hand-build a doc whose allowBackup attribute is a resource reference
    pool_strings = ["name", "allowBackup", "manifest", "application", "a.b", "package", ANDROID_NS]
    body = bytearray()
    offsets = []
    for s in pool_strings:
        raw = s.encode()
        offsets.append(len(body))
        body += bytes([len(s), len(raw)]) + raw + b"\x00"
    while len(body) % 4:
        body += b"\x00"
    start = 28 + 4 * len(pool_strings)
    pool = struct.pack(
        "<HHIIIIII", 0x0001, 28, start + len(body), len(pool_strings), 0, 0x100, start, 0
    ) + b"".join(struct.pack("<I", o) for o in offsets) + bytes(body)

    def start_elem(name_idx, attrs=b"", count=0):
        content = struct.pack("<IIII", 1, 0xFFFFFFFF, 0xFFFFFFFF, name_idx)
        content += struct.pack("<HHHHHH", 0x14, 0x14, count, 0, 0, 0) + attrs
        return struct.pack("<HHI", 0x0102, 0x10, 8 + len(content)) + content

    def end_elem(name_idx):
        return struct.pack("<HHIIIII", 0x0103, 0x10, 0x18, 1, 0xFFFFFFFF, 0xFFFFFFFF, name_idx)

    pkg_attr = struct.pack("<IIIHBBI", 0xFFFFFFFF, 5, 4, 8, 0, 0x03, 4)
    backup_attr = struct.pack("<IIIHBBI", 6, 1, 0xFFFFFFFF, 8, 0, 0x01, 0x7F010001)
    payload = (
        pool
        + start_elem(2, pkg_attr, 1)
        + start_elem(3, backup_attr, 1)
        + end_elem(3)
        + end_elem(2)
    )
    doc_bytes = struct.pack("<HHI", 0x0003, 8, 8 + len(payload)) + payload

    with caplog.at_level("WARNING", logger="bankscan.manifest"):
        model = build_manifest_model(decode_axml(doc_bytes))
    assert model.allow_backup is None
    assert any("allowBackup" in rec.message for rec in caplog.records)


def _component(kind, exported, has_filter):
    filters = (("a",),) if has_filter else ()
    return ComponentDecl(
        kind=kind, name="c", exported=exported, permission=None, intent_filters=filters
    )


# Exhaustive defaulting table: explicit tri-state x has-filter x provider-or-not.
# Providers follow the target-SDK rule (checked at 16/28/absent), everything
# else exports iff it declares a filter.
@pytest.mark.parametrize("kind", ["service", "provider"])
@pytest.mark.parametrize("exported", [True, False, None])
@pytest.mark.parametrize("has_filter", [True, False])
def test_effective_exported_enumeration(kind, exported, has_filter):
    comp = _component(kind, exported, has_filter)
    for target_sdk in (16, 28, None):
        got = effective_exported(comp, target_sdk)
        if exported is not None:
            expected = exported
        elif kind == "provider":
            expected = True if target_sdk is None else target_sdk < 17
        else:
            expected = has_filter
        assert got is expected, (kind, exported, has_filter, target_sdk)


def test_interleaved_and_repeated_children_project_in_document_order():
    def name(value):
        return [(ANDROID_NS, "name", value)]

    def filt(action):
        return Elem("intent-filter", [], [Elem("action", name(action))])

    root = Elem(
        "manifest",
        [(None, "package", "a.b")],
        [
            Elem("uses-sdk", [(ANDROID_NS, "minSdkVersion", 16), (ANDROID_NS, "targetSdkVersion", 23)]),
            Elem("permission", name("a.b.P1") + [(ANDROID_NS, "protectionLevel", 0)]),
            Elem(
                "application",
                [(ANDROID_NS, "allowBackup", True), (ANDROID_NS, "debuggable", True)],
                [
                    Elem("activity", name("a.b.A"), [filt("x.ONE"), Elem("meta-data", name("m")), filt("x.TWO")]),
                    Elem("meta-data", name("a.b.M")),
                    Elem("uses-sdk", [(ANDROID_NS, "minSdkVersion", 5)]),  # not a child of <manifest>
                    Elem("service", name("a.b.S")),
                ],
            ),
            Elem("activity", name("a.b.Outside")),  # outside any <application>
            Elem("permission", name("a.b.P2")),
            Elem("uses-sdk", [(ANDROID_NS, "minSdkVersion", 21)]),  # the last wins, target included
            Elem(
                "application",
                [(ANDROID_NS, "debuggable", False)],
                [Elem("receiver", name("a.b.R")), Elem("provider", [])],
            ),
            Elem("uses-permission", name("android.permission.INTERNET")),
            Elem("permission", name("a.b.P3") + [(ANDROID_NS, "protectionLevel", "dangerous")]),
        ],
    )
    model = model_from(root)
    assert (model.package_name, model.target_sdk, model.allow_backup) == ("a.b", None, None)
    activity = ComponentDecl("activity", "a.b.A", None, None, (("x.ONE",), ("x.TWO",)))
    assert model.components == (
        activity,
        ComponentDecl("service", "a.b.S", None, None, ()),
        ComponentDecl("receiver", "a.b.R", None, None, ()),
        ComponentDecl("provider", "(unnamed)", None, None, ()),
    )
    assert model.declared_permissions == (
        PermissionDecl("a.b.P1", "normal"),
        PermissionDecl("a.b.P2", "unset"),
        PermissionDecl("a.b.P3", "dangerous"),
    )


def test_projection_reads_only_the_attributes_the_model_keeps(monkeypatch):
    read = set()
    attr = AxmlElement.attr

    def recording_attr(self, name, namespace=ANDROID_NS):
        read.add((self.name, name))
        return attr(self, name, namespace)

    monkeypatch.setattr(AxmlElement, "attr", recording_attr)
    profiles = rule_oracle_corpus() + fleet_profiles()
    assert len(profiles) == 34
    for profile in profiles:
        build_manifest_model(decode_axml(build_manifest_bytes(profile)))
    kinds, names = ("activity", "receiver", "provider"), ("name", "exported", "permission")
    assert read == {(kind, name) for kind in kinds for name in names} | {
        ("manifest", "package"),
        ("uses-sdk", "targetSdkVersion"),
        ("application", "allowBackup"),
        ("action", "name"),
        ("permission", "name"),
        ("permission", "protectionLevel"),
    }
