"""Fixture generator soundness: emitted bytes trigger exactly the declared rules."""

import hashlib
import io
import struct
import zipfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankscan.fixtures import (
    CodeKnobs,
    FixtureProfile,
    InconsistentProfileError,
    ManifestKnobs,
    MethodSketch,
    build_dex,
    build_fixture,
    build_manifest_bytes,
    clean_profile,
    emit_dex,
    fleet_profiles,
    implied_rules,
    method_sketches,
    pack_apk,
    profile_for_rules,
    rule_oracle_corpus,
)
from bankscan.fixtures.profiles import PERMISSION_LEVELS, PROVIDER_EXPORT_MODES
from bankscan.axml import decode_axml
from bankscan.dex import parse_dex
from bankscan.manifest import build_manifest_model
from bankscan.rules import RuleId
from bankscan.scanner import scan_bytes

# Drift guard: regenerate only when the generator changes on purpose.
GOLDEN_SHA256 = {
    "clean": "87b0333cba70ac91d2bd9668f9bb4e2a477d57edd06bf6f6c41d8642536c1918",
    "starling-like": "50cd2f65ac0143540861cc4dd4e87d4d16e17e99192c376556b59b128ca1c85a",
    "monese-like": "055eea9ab650695507cd5b982bd0a78ee716262554ce5eb62969753af54fc119",
    "atom-like": "3d3d50850db55a319af0b5bfb3af764166639aec68fba29aecf65e2823327ad8",
    "transferwise-like": "792bb5b75b8e142392994fe77dd34407a1fa640deed041588844893eb4359744",
    "monzo-like": "44e44c9b6093d17b7a36ac519c2c585cd9c2531fd4342a61aa528527e4535a38",
    "revolut-like": "aa1f4afcb588331848f7daed55ed0c3f247c0ccaeb4b7862961062d7282f1643",
}


def positives_from_scan(data: bytes, name: str) -> frozenset[RuleId]:
    result = scan_bytes(data, name)
    return frozenset(r for r, hit in zip(RuleId, result.rule_vector) if hit)


def test_corpus_soundness_loop(corpus):
    for profile, data in corpus:
        assert positives_from_scan(data, profile.name) == profile.positive_rules, profile.name


def test_fleet_soundness_loop(fleet):
    for profile, data in fleet:
        assert positives_from_scan(data, profile.name) == profile.positive_rules, profile.name


manifest_knobs = st.builds(
    ManifestKnobs,
    allow_backup=st.sampled_from((False, True, None)),
    provider_export=st.sampled_from(PROVIDER_EXPORT_MODES),
    permission_level=st.sampled_from(PERMISSION_LEVELS),
    empty_intent_filter=st.booleans(),
    target_sdk=st.sampled_from((None, 16, 28)),
)
tristate = st.sampled_from((None, False, True))
code_knobs = st.builds(
    CodeKnobs,
    **{name: tristate if name.startswith("set_") else st.booleans() for name in CodeKnobs.__dataclass_fields__},
)


@settings(max_examples=60, deadline=None)
@given(
    mk=manifest_knobs,
    ck=code_knobs,
    compress=st.booleans(),
    prefix=st.sampled_from((b"", b"\xde\xad\xbe\xef" * 8)),
    split=st.integers(min_value=0, max_value=10),
)
def test_scan_matches_implied_rules_over_knob_space(mk, ck, compress, prefix, split):
    # The whole knob space, not just the 34 named profiles: whatever the
    # knobs, the scan fires exactly the rules the builder-side model implies.
    # ``split`` > 0 moves the methods from that one on into classes2.dex.
    implied = implied_rules(mk, ck)
    profile = FixtureProfile(name="knobs", positive_rules=implied, manifest_knobs=mk, code_knobs=ck)
    sketches = method_sketches(ck)
    if 0 < split < len(sketches):
        apk = pack_apk(
            [
                ("AndroidManifest.xml", build_manifest_bytes(profile)),
                ("classes.dex", emit_dex("Lfixture/knobs/First;", sketches[:split]).data),
                ("classes2.dex", emit_dex("Lfixture/knobs/Second;", sketches[split:]).data),
            ],
            compress=compress,
        )
    else:
        apk = build_fixture(profile, compress=compress)
    result = scan_bytes(prefix + apk, "knobs.apk")
    assert result.rule_vector == tuple(rule in implied for rule in RuleId)


def test_clean_profile_is_all_negative(clean_apk):
    profile, data = clean_apk
    assert profile.positive_rules == frozenset()
    assert positives_from_scan(data, profile.name) == frozenset()


def test_fleet_profile_rule_sets_frozen():
    by_name = {p.name: p.positive_rules for p in fleet_profiles()}
    assert by_name["starling-like"] == {RuleId.R10, RuleId.R11, RuleId.R13}
    assert by_name["monese-like"] == {
        RuleId.R01, RuleId.R04, RuleId.R05, RuleId.R07, RuleId.R08, RuleId.R11, RuleId.R13,
    }
    assert by_name["atom-like"] == {RuleId.R07, RuleId.R08, RuleId.R09, RuleId.R11, RuleId.R14}
    assert by_name["transferwise-like"] == {RuleId.R05, RuleId.R07, RuleId.R08, RuleId.R09, RuleId.R11}
    assert by_name["monzo-like"] == {RuleId.R07, RuleId.R09, RuleId.R11, RuleId.R13, RuleId.R14}
    assert by_name["revolut-like"] == {
        RuleId.R01, RuleId.R02, RuleId.R03, RuleId.R06, RuleId.R07,
        RuleId.R09, RuleId.R11, RuleId.R12, RuleId.R13, RuleId.R14,
    }
    assert [p.name for p in fleet_profiles()] == [
        "starling-like", "monese-like", "atom-like", "transferwise-like", "monzo-like", "revolut-like",
    ]


def test_corpus_is_one_positive_and_one_negative_per_rule():
    corpus = rule_oracle_corpus()
    assert len(corpus) == 28
    positives = [p for p in corpus if p.positive_rules]
    negatives = [p for p in corpus if not p.positive_rules]
    assert len(positives) == 14 and len(negatives) == 14
    assert {next(iter(p.positive_rules)) for p in positives} == set(RuleId)


def test_inconsistent_profile_rejected():
    bogus = FixtureProfile(name="bogus", positive_rules=frozenset({RuleId.R04}))
    with pytest.raises(InconsistentProfileError):
        build_fixture(bogus)


def test_implied_rules_flags_missing_webview_disarm():
    # addJavascriptInterface alone implies R07 too (file access on by default)
    ck = CodeKnobs(add_javascript_interface=True)
    implied = implied_rules(clean_profile().manifest_knobs, ck)
    assert RuleId.R07 in implied and RuleId.R04 in implied


def test_golden_hashes(clean_apk, fleet):
    built = {profile.name: data for profile, data in [clean_apk, *fleet]}
    for name, expected in GOLDEN_SHA256.items():
        assert hashlib.sha256(built[name]).hexdigest() == expected, name


def test_emitted_zip_passes_independent_crc_check(clean_apk):
    _, data = clean_apk
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        assert zf.testzip() is None
        assert sorted(zf.namelist()) == ["AndroidManifest.xml", "classes.dex"]


def test_compressed_fixture_scans_identically(fleet):
    profile, stored = fleet[1]
    deflated = build_fixture(profile, compress=True)
    assert deflated != stored
    assert positives_from_scan(deflated, profile.name) == profile.positive_rules


def test_fixture_package_names_follow_profile():
    profile = profile_for_rules("namecheck", frozenset({RuleId.R11}))
    model = build_manifest_model(decode_axml(build_manifest_bytes(profile)))
    assert model.package_name == "fixture.namecheck"


def test_build_deterministic(clean_apk):
    profile, data = clean_apk
    assert build_fixture(profile) == data


def test_entry_payloads_round_trip_pre_compression_bytes(fleet):
    # what read_entry returns must hash-equal what the generator put in,
    # for stored and deflated variants alike
    import hashlib

    from bankscan.apk import load_apk, read_entry

    for profile, stored in fleet:
        expected = {
            "AndroidManifest.xml": hashlib.sha256(build_manifest_bytes(profile)).digest(),
            "classes.dex": hashlib.sha256(build_dex(profile).data).digest(),
        }
        for data in (stored, build_fixture(profile, compress=True)):
            archive = load_apk(data)
            for name, digest in expected.items():
                assert hashlib.sha256(read_entry(archive, name)).digest() == digest


def _code_offs(data: bytes) -> list[int]:
    """Every nonzero code_off in the class_data of every class_def of a DEX, read without ``parse_dex``."""

    def uleb(pos):
        value = shift = 0
        while True:
            byte = data[pos]
            value |= (byte & 0x7F) << shift
            shift += 7
            pos += 1
            if byte < 0x80:
                return value, pos

    class_defs_size, class_defs_off = struct.unpack_from("<II", data, 0x60)
    offs = []
    for k in range(class_defs_size):
        pos = struct.unpack_from("<I", data, class_defs_off + 32 * k + 24)[0]
        if not pos:
            continue
        sizes = []
        for _ in range(4):
            size, pos = uleb(pos)
            sizes.append(size)
        for _ in range(2 * (sizes[0] + sizes[1])):  # field_idx_diff and access_flags of each field
            pos = uleb(pos)[1]
        for _ in range(sizes[2] + sizes[3]):
            pos = uleb(uleb(pos)[1])[1]  # method_idx_diff and access_flags
            code_off, pos = uleb(pos)
            offs += [code_off] if code_off else []
    return offs


def _several_classes_sketch() -> list[MethodSketch]:
    """80 methods of 1-7 code units that call methods of five classes, with 0-4 parameters each.

    A type_list of an odd parameter count, and a stream of an odd number of
    code units, each end 2 bytes past a 4-byte boundary.
    """
    owners = [f"Lfixture/align/Peer{j};" for j in range(5)]
    sketches = []
    for k in range(80):
        params = ("I",) * (k % 5)
        callee = (owners[k % 5], f"peer{k % 7}", ("V", params))
        calls = [("invoke-static", list(range(len(params))), callee)] if k % 3 else []
        sketches.append(MethodSketch(f"m{k:02d}", calls + [("nop",)] * (k % 4) + [("return-void",)]))
    return sketches


def test_emitted_code_items_sit_on_4_byte_boundaries():
    # The DEX format requires it, and parse_dex rejects a code_item off it.
    dexes = [build_dex(profile).data for profile in rule_oracle_corpus() + fleet_profiles()]
    dexes.append(emit_dex("Lfixture/align/App;", _several_classes_sketch()).data)
    for data in dexes:
        offs = _code_offs(data)
        assert offs and all(off % 4 == 0 for off in offs), offs
        assert len(offs) == len(list(parse_dex(data).bodies()))
    assert len(_code_offs(dexes[-1])) == 80
    assert len(parse_dex(dexes[-1]).type_names) > 5
