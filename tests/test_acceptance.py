"""Acceptance suite: the seven release criteria, one test each.

Each test prints a single PASS line on success (run with ``pytest -v -s``
or read the verbose test status); a failed assertion means the criterion
is red.
"""

import json
import random
import time

from bankscan.apk import ApkError
from bankscan.axml import AxmlError, decode_axml
from bankscan.cli import main
from bankscan.dex import DexError, parse_dex
from bankscan.fixtures import (
    build_dex,
    build_fixture,
    build_manifest_bytes,
    clean_profile,
    fleet_profiles,
    rule_oracle_corpus,
)
from bankscan.knowledge import load_knowledge_base
from bankscan.manifest import build_manifest_model
from bankscan.report import SCHEMA_VERSION, build_fleet_matrix, render_report, serialize
from bankscan.rules import RULES, RuleId, ScanResult, Severity
from bankscan.scanner import scan_bytes

STRUCTURED_ERRORS = (ApkError, AxmlError, DexError)

FLEET_ORDER = (
    "starling-like", "monese-like", "atom-like", "transferwise-like", "monzo-like", "revolut-like",
)

# apps x rules expectation table, written out cell by cell (84 cells)
T, F = True, False
EXPECTED_FLEET_VECTORS = {
    "starling-like":     (F, F, F, F, F, F, F, F, F, T, T, F, T, F),
    "monese-like":       (T, F, F, T, T, F, T, T, F, F, T, F, T, F),
    "atom-like":         (F, F, F, F, F, F, T, T, T, F, T, F, F, T),
    "transferwise-like": (F, F, F, F, T, F, T, T, T, F, T, F, F, F),
    "monzo-like":        (F, F, F, F, F, F, T, F, T, F, T, F, T, T),
    "revolut-like":      (T, T, T, F, F, T, T, F, T, F, T, T, T, T),
}
EXPECTED_TOTALS = [3, 7, 5, 5, 5, 10]
EXPECTED_PERCENTAGES = ["21.43", "50.00", "35.71", "35.71", "35.71", "71.43"]


def test_criterion_1_rule_oracle_suite():
    started = time.monotonic()
    checked = 0
    for profile in rule_oracle_corpus():
        result = scan_bytes(build_fixture(profile), profile.name)
        positives = {r for r, hit in zip(RuleId, result.rule_vector) if hit}
        if profile.positive_rules:
            [rule] = profile.positive_rules
            assert rule in positives, f"{profile.name}: expected a finding for {rule.value}"
            assert positives == {rule}, f"{profile.name}: extra findings {positives}"
        else:
            assert positives == set(), f"{profile.name}: unexpected findings {positives}"
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 28
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 rule oracle suite (28/28 in {elapsed:.2f}s): PASS")


def test_criterion_2_fleet_vector_reconstruction(fleet_scans):
    by_name = {r.apk_name: r.rule_vector for r in fleet_scans}
    assert list(by_name) == list(FLEET_ORDER)
    cells_checked = 0
    for name, expected in EXPECTED_FLEET_VECTORS.items():
        assert by_name[name] == expected, name
        cells_checked += len(expected)
    assert cells_checked == 84
    print("ACCEPTANCE 2 fleet vector reconstruction (84 cells): PASS")


def test_criterion_3_aggregation_arithmetic(fleet_scans):
    matrix = build_fleet_matrix(list(fleet_scans))
    assert list(matrix.totals) == EXPECTED_TOTALS
    assert list(matrix.percentages) == EXPECTED_PERCENTAGES
    csv_rows = serialize(matrix, "csv").decode().strip().splitlines()[1:]
    for row, total, pct in zip(csv_rows, EXPECTED_TOTALS, EXPECTED_PERCENTAGES):
        assert row.endswith(f",{total},{pct}"), row
    print("ACCEPTANCE 3 totals and percentage arithmetic: PASS")


def test_criterion_4_report_schema(corpus, fleet, clean_apk):
    kb = load_knowledge_base()
    for rule in RuleId:
        assert kb.rules[rule].threat_name and kb.rules[rule].threat_description
        assert kb.rules[rule].developer_countermeasure
    sections_seen = 0
    for profile, data in [*corpus, *fleet, clean_apk]:
        result = scan_bytes(data, profile.name)
        report = render_report(result)
        assert len(report.sections) == len(result.findings)
        assert len(report.user_countermeasures) == 6
        for s in report.sections:
            assert s.title, profile.name
            assert s.evidence and all(s.evidence), profile.name
            assert s.severity in Severity, profile.name
            assert s.category, profile.name
            assert s.background, profile.name
            assert s.recommendation, profile.name
            sections_seen += 1
    assert sections_seen > 0
    print(f"ACCEPTANCE 4 report schema ({sections_seen} sections checked): PASS")


def _mutate(rng: random.Random, base: bytes) -> bytes:
    buf = bytearray(base)
    choice = rng.random()
    if choice < 0.4 and len(buf) > 1:
        buf = buf[: rng.randrange(len(buf))]
    flips = rng.randint(1, 8) if choice >= 0.2 else 0
    for _ in range(flips):
        if not buf:
            break
        buf[rng.randrange(len(buf))] ^= rng.randint(1, 255)
    return bytes(buf)


def test_criterion_5_parser_fuzz_robustness():
    rng = random.Random(0x5CA11ED)
    profiles = [clean_profile()] + fleet_profiles()[:2]
    apks = [build_fixture(p) for p in profiles]
    manifests = [build_manifest_bytes(p) for p in profiles]
    dexes = [build_dex(p).data for p in profiles]

    started = time.monotonic()
    for i in range(10_000):
        lane = i % 10
        try:
            if lane < 2:  # whole-container lane, full pipeline
                scan_bytes(_mutate(rng, rng.choice(apks)), "fuzz.apk")
            elif lane < 6:
                build_manifest_model(decode_axml(_mutate(rng, rng.choice(manifests))))
            else:
                parse_dex(_mutate(rng, rng.choice(dexes)))
        except STRUCTURED_ERRORS:
            pass
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 parser fuzz, 10000 mutations in {elapsed:.1f}s: PASS")


def scan_result_json(result: ScanResult) -> bytes:
    """Stable byte encoding of a raw scan result (no timestamp on purpose)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "scan_result",
        "apk_name": result.apk_name,
        "rule_vector": list(result.rule_vector),
        "findings": [
            {
                "rule": f.rule.value,
                "severity": RULES[f.rule].severity.value,
                "title": RULES[f.rule].title,
                "category": RULES[f.rule].category,
                "evidence": list(f.evidence),
            }
            for f in result.findings
        ],
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def test_criterion_6_determinism(fleet, fleet_dir, tmp_path):
    profile, data = fleet[-1]
    first = scan_result_json(scan_bytes(data, profile.name))
    second = scan_result_json(scan_bytes(data, profile.name))
    assert first == second

    report_a = render_report(scan_bytes(data, profile.name), generated_at="pinned")
    report_b = render_report(scan_bytes(data, profile.name), generated_at="pinned")
    assert serialize(report_a, "json") == serialize(report_b, "json")

    first_csv = tmp_path / "first.csv"
    second_csv = tmp_path / "second.csv"
    assert main(["--dir", str(fleet_dir), "--matrix", "--format", "csv", "-o", str(first_csv)]) == 0
    assert main(["--dir", str(fleet_dir), "--matrix", "--format", "csv", "-o", str(second_csv)]) == 0
    assert first_csv.read_bytes() == second_csv.read_bytes()
    print("ACCEPTANCE 6 determinism (repeat scans and repeat CLI matrix runs): PASS")


def test_criterion_7_cli_exit_code_contract(corpus, fleet_dir, tmp_path, capsys):
    apk_dir = tmp_path / "corpus"
    apk_dir.mkdir()
    paths = {}
    for profile, data in corpus:
        p = apk_dir / f"{profile.name}.apk"
        p.write_bytes(data)
        paths[profile.name] = (profile, p)

    thresholds = [Severity.CRITICAL, Severity.WARNING, Severity.NOTICE, Severity.INFO]
    checked = 0
    sink = tmp_path / "sink.txt"
    for name, (profile, path) in paths.items():
        for threshold in thresholds:
            expected = int(
                any(RULES[r].severity.rank >= threshold.rank for r in profile.positive_rules)
            )
            got = main(["-f", str(path), "--fail-on", threshold.value, "-o", str(sink)])
            assert got == expected, (name, threshold.value, got, expected)
            checked += 1
    assert checked == 112

    # workflow: single-file scan prints a report to stdout
    assert main(["-f", str(paths["r04-positive"][1])]) == 0
    out = capsys.readouterr().out
    assert "Security report: r04-positive.apk" in out
    assert "Remote code execution" in out

    # workflow: batch + matrix emission
    assert main(["--dir", str(fleet_dir), "--matrix", "--format", "csv"]) == 0
    matrix_out = capsys.readouterr().out
    assert matrix_out.splitlines()[0].endswith(",Total,Percentage")
    for pct in EXPECTED_PERCENTAGES:
        assert pct in matrix_out

    # usage and parse/io error codes
    assert main(["--bogus-flag"]) == 2
    capsys.readouterr()
    broken = tmp_path / "broken.apk"
    broken.write_bytes(b"not a zip")
    assert main(["-f", str(broken)]) == 3
    capsys.readouterr()
    print("ACCEPTANCE 7 CLI exit-code contract (112 scans + flows): PASS")
