"""Report rendering, fleet matrix arithmetic, the written documents."""

import datetime
import hashlib
import json
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bankscan import report as report_module
from bankscan.cli import main
from bankscan.fixtures import MethodSketch, build_manifest_bytes, clean_profile, emit_dex, pack_apk
from bankscan.fixtures.profiles import JFILE, WEBSETTINGS
from bankscan.knowledge import load_knowledge_base
from bankscan.report import (
    DuplicateAppNameError,
    SCHEMA_VERSION,
    Report,
    ReportError,
    UnknownFormatError,
    build_fleet_matrix,
    format_percentage,
    render_report,
    serialize,
    serialize_reports,
)
from bankscan.rules import (
    RULE_TITLES,
    RULES,
    Finding,
    RuleId,
    ScanResult,
    Severity,
)
from bankscan.scanner import scan_bytes

REFERENCE_TOTALS = (3, 7, 5, 5, 5, 10)
REFERENCE_PERCENTAGES = ("21.43", "50.00", "35.71", "35.71", "35.71", "71.43")

# every total 0..14 against integer half-up arithmetic
EXPECTED_PERCENT_TABLE = [
    "0.00", "7.14", "14.29", "21.43", "28.57", "35.71", "42.86",
    "50.00", "57.14", "64.29", "71.43", "78.57", "85.71", "92.86", "100.00",
]


def make_finding(rule: RuleId, evidence=("manifest: application",)) -> Finding:
    return Finding(rule=rule, evidence=tuple(evidence))


def make_result(name: str, rules: set[RuleId]) -> ScanResult:
    return ScanResult(
        apk_name=name,
        findings=tuple(make_finding(r) for r in RuleId if r in rules),
        rule_vector=tuple(r in rules for r in RuleId),
    )


def test_empty_result_renders_appendix_only():
    report = render_report(make_result("clean.apk", set()), generated_at="t0")
    assert report.sections == ()
    text = serialize(report, "text").decode()
    assert "findings: 0\n\n-- User countermeasures --\n1. " in text
    assert text.endswith(f"\n6. {load_knowledge_base().user_countermeasures[5]}\n")


def test_r04_section_content():
    report = render_report(make_result("app.apk", {RuleId.R04}), generated_at="t0")
    [finding] = report.sections
    assert finding.rule is RuleId.R04
    [section] = json.loads(serialize(report, "json"))["sections"]
    assert section["severity"] == "critical"
    assert section["recommendation"] == "Modify code to disallow remote code execution."
    assert section["title"] == "Remote code execution"
    assert section["background"]


def test_sections_ordered_by_severity_then_rule():
    report = render_report(make_result("app.apk", {RuleId.R11, RuleId.R04}), generated_at="t0")
    assert [s.rule for s in report.sections] == [RuleId.R04, RuleId.R11]
    report = render_report(
        make_result("app.apk", {RuleId.R14, RuleId.R05, RuleId.R02, RuleId.R10}),
        generated_at="t0",
    )
    assert [s.rule for s in report.sections] == [RuleId.R02, RuleId.R05, RuleId.R10, RuleId.R14]


def test_every_section_has_all_six_fields(clean_apk, corpus):
    for profile, data in list(corpus[:6]):
        result = scan_bytes(data, profile.name)
        sections = json.loads(serialize(render_report(result), "json"))["sections"]
        assert len(sections) == len(result.findings)
        for s in sections:
            assert s["title"] and s["evidence"] and s["category"] and s["background"] and s["recommendation"]
            assert s["severity"] in [v.value for v in Severity]


def test_matrix_reproduces_reference_fleet_numbers():
    vectors = {
        "starling-like": {RuleId.R10, RuleId.R11, RuleId.R13},
        "monese-like": {RuleId.R01, RuleId.R04, RuleId.R05, RuleId.R07, RuleId.R08, RuleId.R11, RuleId.R13},
        "atom-like": {RuleId.R07, RuleId.R08, RuleId.R09, RuleId.R11, RuleId.R14},
        "transferwise-like": {RuleId.R05, RuleId.R07, RuleId.R08, RuleId.R09, RuleId.R11},
        "monzo-like": {RuleId.R07, RuleId.R09, RuleId.R11, RuleId.R13, RuleId.R14},
        "revolut-like": {
            RuleId.R01, RuleId.R02, RuleId.R03, RuleId.R06, RuleId.R07,
            RuleId.R09, RuleId.R11, RuleId.R12, RuleId.R13, RuleId.R14,
        },
    }
    matrix = build_fleet_matrix([make_result(n, rs) for n, rs in vectors.items()])
    assert matrix.totals == REFERENCE_TOTALS
    assert matrix.percentages == REFERENCE_PERCENTAGES


def test_single_clean_result_matrix():
    matrix = build_fleet_matrix([make_result("clean", set())])
    assert matrix.totals == (0,)
    assert matrix.percentages == ("0.00",)


def test_duplicate_app_names_rejected():
    results = [make_result("same", set()), make_result("same", {RuleId.R11})]
    with pytest.raises(DuplicateAppNameError):
        build_fleet_matrix(results)


def test_percentage_full_table():
    assert [format_percentage(k) for k in range(15)] == EXPECTED_PERCENT_TABLE


@given(k=st.integers(0, 14))
def test_percentage_matches_integer_half_up_oracle(k):
    # independent arithmetic: half-up of 100k/14 in hundredths
    cents = (2 * 10000 * k + 14) // 28
    expected = f"{cents // 100}.{cents % 100:02d}"
    assert format_percentage(k) == expected


@st.composite
def _count_out_of(draw):
    out_of = draw(st.integers(1, 10**6))
    return draw(st.integers(0, out_of)), out_of


@settings(max_examples=500)
@example(pair=(1, 800))  # exactly half a hundredth: 0.125 -> 0.13
@example(pair=(3, 800))
@example(pair=(1, 1600))
@example(pair=(0, 1))
@example(pair=(10**6, 10**6))
@given(pair=_count_out_of())
def test_percentage_matches_decimal_half_up(pair):
    count, out_of = pair
    expected = (Decimal(100 * count) / Decimal(out_of)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    assert format_percentage(count, out_of) == str(expected)


def test_matrix_csv_exact_bytes():
    matrix = build_fleet_matrix([make_result("one-app", {RuleId.R10, RuleId.R11, RuleId.R13})])
    got = serialize(matrix, "csv").decode()
    header, row, trailer = got.split("\n")
    assert trailer == ""
    assert header.startswith("app,Implicit intent for service,")
    assert header.endswith(",Total,Percentage")
    assert row == "one-app,no,no,no,no,no,no,no,no,no,YES,YES,no,YES,no,3,21.43"


def test_matrix_text_has_legend():
    matrix = build_fleet_matrix([make_result("a", set())])
    text = serialize(matrix, "text").decode()
    assert "R01: Implicit intent for service" in text


def test_render_and_matrix_never_load_the_knowledge_base(monkeypatch):
    # Only the report writers read it; a --matrix run never does.
    def refuse():
        raise AssertionError("the knowledge base was loaded")

    monkeypatch.setattr(report_module, "load_knowledge_base", refuse)
    result = make_result("a", {RuleId.R04, RuleId.R11})
    assert render_report(result, generated_at="t0").sections == result.findings
    matrix = build_fleet_matrix([result])
    assert all(serialize(matrix, fmt) for fmt in ("text", "json", "csv"))


def test_report_json_round_trip():
    report = render_report(
        make_result("app.apk", {RuleId.R04, RuleId.R09, RuleId.R10}), generated_at="2024-01-01T00:00:00+00:00"
    )
    doc = json.loads(serialize(report, "json"))
    assert doc == _report_doc(report)
    assert [s["rule"] for s in doc["sections"]] == ["R04", "R10", "R09"]  # critical, warning, notice
    assert (doc["kind"], doc["schema_version"], doc["generated_at"]) == ("report", 1, "2024-01-01T00:00:00+00:00")


def test_matrix_json_round_trip():
    matrix = build_fleet_matrix(
        [make_result("a", {RuleId.R11}), make_result("b", set())]
    )
    doc = json.loads(serialize(matrix, "json"))
    assert doc == {
        "schema_version": SCHEMA_VERSION,
        "kind": "fleet_matrix",
        "apps": list(matrix.apps),
        "rules": [r.value for r in RuleId],
        "rule_titles": [RULE_TITLES[r] for r in RuleId],
        "cells": [list(row) for row in matrix.cells],
        "totals": list(matrix.totals),
        "percentages": list(matrix.percentages),
    }
    assert (doc["kind"], doc["schema_version"], doc["apps"]) == ("fleet_matrix", 1, ["a", "b"])
    assert (doc["totals"], doc["percentages"]) == ([1, 0], ["7.14", "0.00"])


def test_report_errors_name_what_they_refuse():
    # (a call, the ReportError message it raises)
    cases = [
        (lambda: build_fleet_matrix([]), "fleet matrix needs at least one scan result"),
        (lambda: serialize(object(), "text"), "cannot serialize object"),
    ]
    for call, message in cases:
        with pytest.raises(ReportError) as info:
            call()
        assert type(info.value) is ReportError
        assert str(info.value) == message
        assert info.value.__cause__ is None


def test_report_csv_lists_conditions():
    report = render_report(make_result("app.apk", {RuleId.R04}), generated_at="t0")
    got = serialize(report, "csv").decode()
    assert got.splitlines()[0] == "apk,rule,severity,title,category,evidence"
    assert got.splitlines()[1].startswith("app.apk,R04,critical,Remote code execution,")


def test_unknown_format_rejected():
    report = render_report(make_result("a", set()), generated_at="t0")
    with pytest.raises(UnknownFormatError):
        serialize(report, "yaml")


def test_report_text_contains_all_fields():
    report = render_report(make_result("app.apk", {RuleId.R08}), generated_at="t0")
    text = serialize(report, "text").decode()
    assert "(warning) Webview JavaScript enabled" in text
    assert "recommendation: Disable Webview Javascript." in text
    assert "User countermeasures" in text


# --- report JSON bytes ---------------------------------------------------------


def _report_doc(report: Report) -> dict:
    """The report as its JSON document describes it, field by field: rule text from RULES and the knowledge base."""
    kb = load_knowledge_base()
    return {
        "schema_version": 1,
        "kind": "report",
        "apk_name": report.apk_name,
        "generated_at": report.generated_at,
        "sections": [
            {
                "rule": f.rule.value,
                "title": RULES[f.rule].title,
                "evidence": list(f.evidence),
                "severity": RULES[f.rule].severity.value,
                "category": RULES[f.rule].category,
                "background": kb.rules[f.rule].background,
                "recommendation": kb.rules[f.rule].developer_countermeasure,
            }
            for f in report.sections
        ],
        "user_countermeasures": list(kb.user_countermeasures),
    }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# every code point, lone surrogates and control characters included
_any_text = st.text(st.characters(blacklist_categories=()), max_size=12)
_evidence_line = st.one_of(
    _any_text,
    st.lists(_any_text, min_size=2, max_size=3).map("\n".join),  # multi-line
    st.sampled_from(['"quoted"', "back\\slash", "tab\tand\x00nul", "café \U0001f512", "\ud800"]),
)
_evidence = st.one_of(
    st.just(()),
    _evidence_line.map(lambda line: (line,)),
    st.lists(_evidence_line, min_size=2, max_size=4).map(tuple),
)


@st.composite
def _sections(draw):
    """Up to four runs of 1-50 findings, each run's rule drawn from a pool of 2-3, so runs repeat and meet.

    Each finding's evidence is drawn from a pool of 1-4 as well, which keeps long runs cheap to draw.
    """
    pool = draw(st.lists(st.sampled_from(list(RuleId)), min_size=2, max_size=3))
    evidence = st.sampled_from(draw(st.lists(_evidence, min_size=1, max_size=4)))
    sections = []
    for _ in range(draw(st.integers(0, 4))):
        rule = draw(st.sampled_from(pool))
        sections += (Finding(rule, draw(evidence)) for _ in range(draw(st.integers(1, 50))))
    return tuple(sections)


_reports = st.builds(Report, apk_name=_any_text, generated_at=_any_text, sections=_sections())


@settings(max_examples=300, deadline=None)
@given(report=_reports)
def test_report_json_equals_sorted_indented_dumps(report):
    assert serialize(report, "json") == (_dumps(_report_doc(report)) + "\n").encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(reports=st.lists(_reports, max_size=3))
def test_reports_json_equals_joined_dumps(reports):
    docs = ",\n".join(_dumps(_report_doc(r)) for r in reports)
    assert serialize_reports(reports, "json") == f"[\n{docs}\n]\n".encode("utf-8")


def test_report_json_edge_shapes():
    bare = Report(apk_name="a", generated_at="t", sections=())
    assert serialize(bare, "json") == (_dumps(_report_doc(bare)) + "\n").encode()
    assert b'"sections": [],' in serialize(bare, "json")
    # a run of one rule with empty evidence inside it, another rule's multi-line evidence, and a return
    sections = [Finding(RuleId.R11, (f"line {i}",)) for i in range(3)]
    sections.append(Finding(RuleId.R11, ()))
    sections.append(Finding(RuleId.R04, ("a\nb", "")))
    sections.append(Finding(RuleId.R11, ("back to R11",)))
    report = Report(apk_name="edge.apk", generated_at="t0", sections=tuple(sections))
    assert serialize(report, "json") == (_dumps(_report_doc(report)) + "\n").encode()


def test_default_timestamp_is_what_datetime_writes_for_now():
    # time.strftime over time.gmtime writes datetime's isoformat for years 1000-9999.
    before = datetime.datetime.now(datetime.timezone.utc)
    stamp = render_report(make_result("a.apk", set())).generated_at
    after = datetime.datetime.now(datetime.timezone.utc)
    at = datetime.datetime.fromisoformat(stamp)
    assert at.isoformat(timespec="seconds") == stamp
    assert before.isoformat(timespec="seconds") <= stamp <= after.isoformat(timespec="seconds")
    assert before - datetime.timedelta(seconds=1) < at <= after


def _cli_json_report(path, monkeypatch, capsys) -> bytes:
    monkeypatch.setattr(report_module, "_utc_now", lambda: "2024-01-01T00:00:00+00:00")
    assert main(["-f", str(path), "--format", "json"]) == 0
    return capsys.readouterr().out.encode("utf-8")


# sha256 of `bankscan -f APP --format json` with the report clock pinned, for
# every oracle and fleet fixture. A change to the report bytes shows here.
_FIXTURE_REPORT_PINS = {
    "r01-positive": "7ab4cc63bc34bd8059e5cfaed1610bbc9aebf82f525580827eff43598198b271",
    "r02-positive": "36ea0cdc53133268a0de05cb62bfdff465d0c201b4971a9275e062bc7c2d28b6",
    "r03-positive": "04e8de34e8aa1c31292afcf017ee9e920d631dc801073020e43099057dabfce0",
    "r04-positive": "a55c02a7972f1641a86d1a0c243a982cd948edaec3d7df8f4e65616d0610df62",
    "r05-positive": "5dcfde08b7097f9b7e8a6da10223a083a45a3c191ba1b801bd60f444d6ceb8f7",
    "r06-positive": "7ec3f11d5dea51c2aa6628ec7737491f2c0148f03d588a35e15f74a22a00920f",
    "r07-positive": "c08929021e8d042e331ea108478d8fb30c5e726640c76a0917eaa192db578022",
    "r08-positive": "b27abebea145d33081ef9beb5430bf87b54216042e324d654edcbd6dc3c41e78",
    "r09-positive": "9e9ddfd123ce67706e31cced5a8a04c55170ec29907b547370e421751630d89d",
    "r10-positive": "0655daf3443d87621088ef14c4cff03dd48ea25020e913a2dc9bb14150931ae7",
    "r11-positive": "280b9895e74008346db7ab5fb80b978e265b6c78e7dfbbd07d8477c0cbcf9f70",
    "r12-positive": "687561838c16b07c1bf751012a046bdae60d49e14b1e1a8bfc0187955ed52b3b",
    "r13-positive": "fd723e0ff3461d1e145e1258a78de48b0c390f39274fc6b5e900efcee57605c0",
    "r14-positive": "fb35d88132956343c42e298fef239fa1e8331d3648dae4b82f4eb50805ec9318",
    "r01-negative": "682c75af8e6d48826c4de19817014b338af8e78463158e66f9889451bcb11f04",
    "r02-negative": "32cfa41f79bc78689138acc05c431dfccbb615ba967d23ff8548fbfdd35af76a",
    "r03-negative": "03ac25591aaaf53c9c5b27e89a5518b8f83214829e74a484cee29ae0d716022c",
    "r04-negative": "2d068f854667f1467415d98bb25c982dd30121847252a00046330ffba359acaf",
    "r05-negative": "3e768d0b5e8c78d2746310150732273d4f614003708bfe511d41e8b863ebf014",
    "r06-negative": "228a1a2e20fff36a6019788366b42c38cd8e668d9a89ff2d5f9e451840cbf703",
    "r07-negative": "1d465f9f90fc8fa34e1ae5051fccc8e025fef37fd8b1ec45dc20239076040da0",
    "r08-negative": "4ee346ea59b983dd622f4d052d7e12c247d9fcbdd860539d6e97ad00d77d63fa",
    "r09-negative": "ebd353e674d11436801663103546722add2cbf3f1238ef3c0d18b27d66016e7c",
    "r10-negative": "b121603977a1625a3062173e296aae12ce224b4b2892a8083840ffdab3c7193e",
    "r11-negative": "82d67e68471b590e6e70749508c874741696fca81eb0c75190fb4a7741d527df",
    "r12-negative": "269f6765253006ece4d75e0e24992bfe48e4d55d79dfe47f93d3567ecba965dd",
    "r13-negative": "370edc64e5f713d2e5e7f9133507fb4fd48d153191ee12e25a659f2de2ef7f53",
    "r14-negative": "9563ec7f5afd7242c71b3de0f386b86e1009156b276cc542e1c2d7b9f7465a06",
    "starling-like": "66d6f0b68128c3f6c602250b4c72aeeab6b6d7876b9976178ebeb346976d8496",
    "monese-like": "56ef3518987d6b950c050736e238339ec7008c101ce01f309bc3b38ffe049e7c",
    "atom-like": "5b3d0d97019eb4d2acb8a52dda2054a1851864c5c37c7a2caffc99f9e55e76e0",
    "transferwise-like": "b80de9209eca2a80332588dffb6181be1860914abea7b0c89b590d094950e5fc",
    "monzo-like": "86e89147e7737886334a55d8c71b7c94f1db4ec8cfb0204edcd5b81fa4b6dc01",
    "revolut-like": "998198ae1f9cf190d59147729ece6e0137600c5d8dbab7192ffc79f0d7046b96",
}


def test_fixture_json_reports_pinned(corpus, fleet, tmp_path, monkeypatch, capsys):
    got = {}
    for profile, data in [*corpus, *fleet]:
        path = tmp_path / f"{profile.name}.apk"
        path.write_bytes(data)
        out = _cli_json_report(path, monkeypatch, capsys)
        assert json.loads(out)["generated_at"] == "2024-01-01T00:00:00+00:00"
        got[profile.name] = hashlib.sha256(out).hexdigest()
    assert len(got) == 34
    assert got == _FIXTURE_REPORT_PINS


def _site_heavy_apk() -> bytes:
    """520 File.delete sites over 40 methods, plus WebSettings calls with literal 1."""
    sketches = []
    for m in range(40):
        ins = [("invoke-virtual", [m % 6], (JFILE, "delete", ("Z", ()))) for _ in range(13)]
        if m % 8 == 0:
            ins += [("const4", 1, 1), ("invoke-virtual", [0, 1], (WEBSETTINGS, "setJavaScriptEnabled", ("V", ("Z",))))]
        if m % 10 == 3:
            ins += [("const4", 1, 1), ("invoke-virtual", [0, 1], (WEBSETTINGS, "setAllowFileAccess", ("V", ("Z",))))]
        sketches.append(MethodSketch(f"screen{m:02d}", ins + [("return-void",)]))
    dex = emit_dex("Lbank/heavy/Screens;", sketches)
    return pack_apk([("AndroidManifest.xml", build_manifest_bytes(clean_profile("heavy"))), ("classes.dex", dex.data)])


# length and sha256 of the site-heavy app's `-f --format json` report
_SITE_HEAVY_PIN = (276122, "ba2d673b8e25a72fe934878d6c8eb8607bd50197afc3740d133f2dd275e03346")


def test_site_heavy_json_report_pinned(tmp_path, monkeypatch, capsys):
    path = tmp_path / "heavy.apk"
    path.write_bytes(_site_heavy_apk())
    out = _cli_json_report(path, monkeypatch, capsys)
    rules = [s["rule"] for s in json.loads(out)["sections"]]
    assert (rules.count("R11"), rules.count("R08"), rules.count("R07")) == (520, 5, 4)
    report = render_report(scan_bytes(path.read_bytes(), "heavy.apk"), generated_at="2024-01-01T00:00:00+00:00")
    assert out == (_dumps(_report_doc(report)) + "\n").encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == _SITE_HEAVY_PIN


# --- render_report ----------------------------------------------------------


def test_render_report_sections_match_per_finding_oracle():
    # Rules interleave, and an R02 finding follows an R04 finding at the same
    # severity, so a background carried over within a severity would show.
    findings = tuple(
        Finding(rule, (evidence,))
        for rule, evidence in (
            (RuleId.R11, "a"), (RuleId.R04, "b"), (RuleId.R11, "c"),
            (RuleId.R04, "d"), (RuleId.R02, "e"), (RuleId.R11, "f"),
        )
    )
    result = ScanResult("mixed.apk", findings, tuple(r in {f.rule for f in findings} for r in RuleId))
    rule_order = list(RuleId)
    rank = [-RULES[f.rule].severity.rank for f in findings]
    order = sorted(range(len(findings)), key=lambda i: (rank[i], rule_order.index(findings[i].rule), i))
    report = render_report(result, generated_at="t0")
    assert report.sections == tuple(findings[i] for i in order)
    assert [s.evidence[0] for s in report.sections] == ["e", "b", "d", "a", "c", "f"]


def test_render_report_returns_the_results_own_findings():
    # Equal findings built apart, so only identity tells which comes first:
    # critical before notice, then rule order, then scan order.
    first, second = Finding(RuleId.R11, ("same",)), Finding(RuleId.R11, ("same",))
    r04, r02, r10 = Finding(RuleId.R04, ("b",)), Finding(RuleId.R02, ("c",)), Finding(RuleId.R10, ("d",))
    findings = (first, r04, r10, second, r02)
    result = ScanResult("own.apk", findings, tuple(r in {f.rule for f in findings} for r in RuleId))
    sections = render_report(result, generated_at="t0").sections
    assert type(sections) is tuple
    assert [id(s) for s in sections] == [id(f) for f in (r02, r04, r10, first, second)]
