import datetime
import hashlib
import json
import os
import subprocess
import sys
import types

import pytest

import bankscan
from bankscan import report as report_module
from bankscan.cli import (
    CliUsageError,
    ConflictingModesError,
    MissingArgumentError,
    UnknownFlagError,
    execute,
    main,
    parse_args,
)
from bankscan.axml import ANDROID_NS
from bankscan.fixtures import build_dex, build_fixture, encode_document, pack_apk, profile_for_rules
from bankscan.fixtures.profiles import manifest_element
from bankscan.rules import RuleId, Severity


# --- parsing -----------------------------------------------------------------


def test_parse_single_scan():
    config = parse_args(["-f", "app.apk"])
    assert config.mode == "scan"
    assert [p.name for p in config.inputs] == ["app.apk"]


def test_parse_help():
    assert parse_args(["-h"]).mode == "help"
    assert parse_args(["--help", "-f", "x.apk"]).mode == "help"


def test_parse_conflicting_modes():
    with pytest.raises(ConflictingModesError):
        parse_args(["-f", "a.apk", "--dir", "d/"])
    with pytest.raises(ConflictingModesError):
        parse_args(["-f", "a.apk", "--matrix"])
    with pytest.raises(ConflictingModesError):
        parse_args(["-f", "a.apk", "b.apk"])


def test_parse_file_given_twice():
    with pytest.raises(ConflictingModesError) as info:
        parse_args(["-f", "a.apk", "--file", "b.apk"])
    assert type(info.value) is ConflictingModesError
    assert str(info.value) == "-f given more than once"


def test_parse_batch_and_matrix():
    config = parse_args(["--dir", "d/", "extra.apk"])
    assert config.mode == "batch"
    assert [p.name for p in config.dirs] == ["d"]
    config = parse_args(["--matrix", "a.apk", "b.apk"])
    assert config.mode == "matrix"
    assert len(config.inputs) == 2


def test_parse_errors():
    with pytest.raises(UnknownFlagError):
        parse_args(["--frobnicate"])
    with pytest.raises(MissingArgumentError):
        parse_args(["-f"])
    with pytest.raises(MissingArgumentError):
        parse_args([])
    with pytest.raises(CliUsageError):
        parse_args(["-f", "a.apk", "--fail-on", "fatal"])
    with pytest.raises(CliUsageError):
        parse_args(["-f", "a.apk", "--format", "yaml"])
    with pytest.raises(UnknownFlagError):
        parse_args(["--jobs", "2", "a.apk"])


def test_parse_options():
    config = parse_args(
        ["-f", "a.apk", "-o", "out.txt", "--format", "json", "--fail-on", "warning"]
    )
    assert config.output_path.name == "out.txt"
    assert config.fmt == "json"
    assert config.fail_threshold == Severity.WARNING


# --- execution ----------------------------------------------------------------


@pytest.fixture()
def apk_on_disk(tmp_path):
    def write(profile_name: str, rules: frozenset) -> str:
        data = build_fixture(profile_for_rules(profile_name, rules))
        path = tmp_path / f"{profile_name}.apk"
        path.write_bytes(data)
        return str(path)

    return write


def test_scan_clean_exit_zero(apk_on_disk, capsys):
    path = apk_on_disk("cleanapp", frozenset())
    assert main(["-f", path, "--fail-on", "critical"]) == 0
    out = capsys.readouterr().out
    assert "Security report: cleanapp.apk" in out
    assert "findings: 0" in out


def test_scan_critical_finding_exit_one(apk_on_disk):
    path = apk_on_disk("hasrce", frozenset({RuleId.R04}))
    assert main(["-f", path, "--fail-on", "critical"]) == 1
    assert main(["-f", path]) == 0  # no threshold set


def test_scan_missing_file_exit_three(tmp_path, capsys):
    assert main(["-f", str(tmp_path / "nope.apk")]) == 3
    assert "nope.apk" in capsys.readouterr().err


def test_scan_corrupt_file_exit_three(tmp_path, capsys):
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"this is not an apk at all")
    assert main(["-f", str(bad)]) == 3
    assert "NotAZip" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_scan_failure_writes_nothing(tmp_path, capsys, fmt):
    # -f on a file that fails: no stdout bytes, no -o file, one stderr line and no summary.
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"this is not an apk at all")
    out = tmp_path / "out"
    assert main(["-f", str(bad), "--format", fmt, "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert captured.err == f"bankscan: {bad}: NotAZipError: no end-of-central-directory signature\n"


def test_scan_json_is_one_object(apk_on_disk, capsys):
    path = apk_on_disk("oneobject", frozenset({RuleId.R11}))
    assert main(["-f", path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert isinstance(doc, dict)
    assert doc["kind"] == "report"
    assert doc["apk_name"] == "oneobject.apk"
    assert captured.err == ""


def test_usage_error_exit_two(capsys):
    assert main(["--definitely-not-a-flag"]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err


def test_help_exit_zero(capsys):
    assert main(["-h"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_output_file_and_json_format(apk_on_disk, tmp_path):
    path = apk_on_disk("jsonout", frozenset({RuleId.R11}))
    out = tmp_path / "report.json"
    assert main(["-f", path, "--format", "json", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "report"
    assert [s["rule"] for s in doc["sections"]] == ["R11"]


def test_unwritable_output_file_exit_three(apk_on_disk, tmp_path, capsys):
    # Exit 1 means findings at or above --fail-on, so a failed write must not read as 1.
    path = apk_on_disk("hasrce", frozenset({RuleId.R04}))
    out = tmp_path / "no" / "such" / "dir" / "report.txt"
    assert main(["-f", path, "--fail-on", "critical", "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    missing = f"bankscan: {out}: FileNotFoundError: [Errno 2] No such file or directory: '{out}'"
    assert captured.err.splitlines() == [missing]


def test_unwritable_matrix_output_still_reports_file_errors(fleet_dir, tmp_path, capsys):
    inputs = tmp_path / "mixed"
    inputs.mkdir()
    (inputs / "good.apk").write_bytes((fleet_dir / "revolut-like.apk").read_bytes())
    (inputs / "broken.apk").write_bytes(b"\x00garbage\x00")
    out = tmp_path / "no-such-dir" / "matrix.csv"
    assert main(["--dir", str(inputs), "--matrix", "--format", "csv", "-o", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == f"bankscan: {out}: FileNotFoundError: [Errno 2] No such file or directory: '{out}'"
    assert lines[1].startswith(f"bankscan: {inputs / 'broken.apk'}: ")
    assert lines[2:] == ["bankscan: 1 of 2 file(s) failed to scan"]
    # with every input scanned, the failed write alone still gives 3, not the threshold's 1
    (inputs / "broken.apk").unlink()
    assert main(["--dir", str(inputs), "--matrix", "--fail-on", "info", "-o", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [lines[0]]


class _ClosedPipe:
    """A stdout buffer whose reader has gone."""

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["-f", "starling-like.apk"], ["--dir", "."], ["-h"]])
def test_closed_stdout_exit_three(fleet_dir, monkeypatch, capsys, argv):
    # Starling has findings, so without the failed write --fail-on info would give 1.
    monkeypatch.chdir(fleet_dir)
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(buffer=_ClosedPipe()))
    assert main([*argv, "--fail-on", "info"]) == 3
    assert capsys.readouterr().err == "bankscan: <stdout>: BrokenPipeError: [Errno 32] Broken pipe\n"


def _env_for_this_bankscan() -> dict[str, str]:
    """This environment, with the bankscan under test first on PYTHONPATH, so a child interpreter imports it."""
    env = dict(os.environ)
    parent = os.path.dirname(os.path.dirname(os.path.abspath(bankscan.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [parent, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_subprocess(fleet_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bankscan", "--dir", str(fleet_dir)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_env_for_this_bankscan(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == "bankscan: <stdout>: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_matrix_over_fleet_dir(fleet_dir, capsys):
    assert main(["--dir", str(fleet_dir), "--matrix", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = {line.split(",")[0]: line for line in out.strip().splitlines()[1:]}
    expected = {
        "starling-like.apk": ("3", "21.43"),
        "monese-like.apk": ("7", "50.00"),
        "atom-like.apk": ("5", "35.71"),
        "transferwise-like.apk": ("5", "35.71"),
        "monzo-like.apk": ("5", "35.71"),
        "revolut-like.apk": ("10", "71.43"),
    }
    assert set(rows) == set(expected)
    for name, (total, pct) in expected.items():
        assert rows[name].endswith(f",{total},{pct}"), rows[name]


def test_matrix_duplicate_file_names_usage_error(fleet_dir, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "x.apk").write_bytes((fleet_dir / "starling-like.apk").read_bytes())
    (a / "y.apk").write_bytes((fleet_dir / "atom-like.apk").read_bytes())
    assert main(["--dir", str(a), "--dir", str(b), "--matrix"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate names: ['x.apk']" in captured.err
    assert "usage:" in captured.err


def test_batch_continues_past_corrupt_file(fleet_dir, tmp_path, capsys):
    workdir = tmp_path / "mixed"
    workdir.mkdir()
    (workdir / "good.apk").write_bytes((fleet_dir / "starling-like.apk").read_bytes())
    (workdir / "broken.apk").write_bytes(b"\x00garbage\x00")
    assert main(["--dir", str(workdir)]) == 3
    captured = capsys.readouterr()
    assert "Security report: good.apk" in captured.out
    assert "broken.apk" in captured.err
    assert "1 of 2 file(s) failed" in captured.err


def test_matrix_scans_past_a_superscript_sdk_version(fleet_dir, tmp_path, capsys):
    # A string-typed minSdkVersion="²" passes str.isdigit() but not int(); it
    # must read as unset rather than end the batch with a traceback.
    profile = profile_for_rules("odd-sdk", frozenset())
    root = manifest_element("fixture.odd", profile.manifest_knobs)
    [sdk] = [child for child in root.children if child.name == "uses-sdk"]
    sdk.attrs[0] = (ANDROID_NS, "minSdkVersion", "²")
    workdir = tmp_path / "sdk"
    workdir.mkdir()
    (workdir / "a-good.apk").write_bytes((fleet_dir / "starling-like.apk").read_bytes())
    entries = [("AndroidManifest.xml", encode_document(root)), ("classes.dex", build_dex(profile).data)]
    (workdir / "b-odd.apk").write_bytes(pack_apk(entries))
    assert main(["--dir", str(workdir), "--matrix", "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == ["a-good.apk", "b-odd.apk"]
    assert captured.err == ""


def test_batch_scans_past_any_exception(fleet_dir, tmp_path, monkeypatch, capsys):
    from bankscan import cli

    workdir = tmp_path / "raising"
    workdir.mkdir()
    (workdir / "a-good.apk").write_bytes((fleet_dir / "starling-like.apk").read_bytes())
    (workdir / "b-bad.apk").write_bytes((fleet_dir / "atom-like.apk").read_bytes())
    scan = cli.scan_bytes

    def scan_or_raise(data, apk_name):
        if apk_name == "b-bad.apk":
            raise ValueError("not a scan result")
        return scan(data, apk_name)

    monkeypatch.setattr(cli, "scan_bytes", scan_or_raise)
    assert main(["--dir", str(workdir), "--matrix", "--format", "csv"]) == 3
    captured = capsys.readouterr()
    assert [line.split(",")[0] for line in captured.out.splitlines()[1:]] == ["a-good.apk"]
    assert captured.err.splitlines() == [
        f"bankscan: {workdir / 'b-bad.apk'}: ValueError: not a scan result",
        "bankscan: 1 of 2 file(s) failed to scan",
    ]
    assert main(["-f", str(workdir / "b-bad.apk")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bankscan: {workdir / 'b-bad.apk'}: ValueError: not a scan result\n"


def test_batch_reports_in_input_order(fleet_dir, capsys):
    a = str(fleet_dir / "monzo-like.apk")
    b = str(fleet_dir / "atom-like.apk")
    assert main([a, b]) in (0, 1)
    out = capsys.readouterr().out
    assert out.index("monzo-like.apk") < out.index("atom-like.apk")


def test_dir_inputs_keep_path_sort_order(fleet_dir, tmp_path, capsys):
    # --dir inputs are sorted by file name; within one directory that is the
    # order sorting the paths gives, whatever the case, digits or script.
    d = tmp_path / "order"
    d.mkdir()
    names = ["b.apk", "B.apk", "a10.apk", "a9.apk", "a_1.apk", "10.apk", "9.apk", "Ä.apk", "é.apk", "e.apk", "ß.apk"]
    data = (fleet_dir / "starling-like.apk").read_bytes()
    for name in names:
        (d / name).write_bytes(data)
    (d / "notes.txt").write_bytes(b"")
    expected = [p.name for p in sorted(d.glob("*.apk"))]
    assert expected == sorted(names) != sorted(names, key=str.casefold)

    assert main(["--dir", str(d), "--matrix", "--format", "csv"]) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == expected
    assert main(["--dir", str(d), "--format", "json"]) == 0
    assert [doc["apk_name"] for doc in json.loads(capsys.readouterr().out)] == expected


def test_batch_empty_dir_exit_three(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["--dir", str(empty)]) == 3
    assert "no .apk files" in capsys.readouterr().err


def test_batch_json_is_valid_array(fleet_dir, capsys):
    assert main([str(fleet_dir / "starling-like.apk"), str(fleet_dir / "atom-like.apk"), "--format", "json"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["apk_name"] for d in docs] == ["starling-like.apk", "atom-like.apk"]


def test_module_entry_point_subprocess(fleet_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "bankscan", "-f", str(fleet_dir / "revolut-like.apk"), "--fail-on", "critical"],
        capture_output=True,
        text=True,
        env=_env_for_this_bankscan(),
    )
    assert proc.returncode == 1
    assert "Security report" in proc.stdout


# Names the watched modules that a fresh interpreter first imports after the
# probe starts importing bankscan.cli: one that the interpreter's own start-up
# (its site hooks, say) already imported is none of the scan's doing.
_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import bankscan.cli
out, watched = sys.argv[2], sys.argv[3:]
codes = [bankscan.cli.main(["-f", sys.argv[1], "--format", fmt, "-o", out]) for fmt in ("text", "json")]
print(codes, sorted(m for m in watched if m in sys.modules and m not in before))
"""


def _fresh_scan_imports(apk_on_disk, tmp_path, *watched) -> str:
    """The probe's output for a text and a json scan of a clean APK in a fresh interpreter."""
    path = apk_on_disk("cleanapp", frozenset())
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, path, str(tmp_path / "report.out"), *watched],
        capture_output=True,
        text=True,
        env=_env_for_this_bankscan(),
    )
    assert proc.stderr == ""
    assert '"kind": "report"' in (tmp_path / "report.out").read_text()
    return proc.stdout


def test_fresh_scan_imports_neither_logging_nor_decimal(apk_on_disk, tmp_path):
    # A fresh interpreter: pytest itself has imported logging in this one.
    assert _fresh_scan_imports(apk_on_disk, tmp_path, "decimal", "logging") == "[0, 0] []\n"


def test_fresh_scan_imports_neither_dataclasses_nor_inspect_nor_csv(apk_on_disk, tmp_path):
    # The scan path's records are hand-written classes and named tuples, and
    # only the CSV writers import csv.
    assert _fresh_scan_imports(apk_on_disk, tmp_path, "csv", "dataclasses", "inspect") == "[0, 0] []\n"


class _PinnedClock(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime.datetime(2024, 1, 1, tzinfo=tz)


# Batch output of --dir over starling-like, atom-like and revolut-like with the
# report clock pinned: (byte length, sha256) per format. Any change to how the
# batch joins its reports shows here; a deliberate change to what a report says
# (evidence, knowledge text) needs new pins.
_BATCH_PINS = {
    "text": (12693, "0e6832f11a7fe8bee28b4acfbf74a2c94b826fb5cf010a411f5871028d317ba7"),
    "json": (14833, "96538216ec7889eb2aa9a3c3f7776eb98ea9abb3562f25e7b537c016503fea5f"),
    "csv": (3324, "948042722ee6793774bd13990fee8f0d4f975bb1841d78f44a9affa7bdf6a302"),
}


@pytest.mark.parametrize("fmt", sorted(_BATCH_PINS))
def test_batch_output_bytes_pinned(fleet_dir, tmp_path, monkeypatch, capsys, fmt):
    pinned = types.SimpleNamespace(datetime=_PinnedClock, timezone=datetime.timezone)
    monkeypatch.setattr(report_module, "_dt", pinned)
    batch = tmp_path / "three"
    batch.mkdir()
    for name in ("starling-like.apk", "atom-like.apk", "revolut-like.apk"):
        (batch / name).write_bytes((fleet_dir / name).read_bytes())
    assert main(["--dir", str(batch), "--format", fmt]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    names = ["atom-like.apk", "revolut-like.apk", "starling-like.apk"]  # --dir order
    if fmt == "text":
        assert [line.split(": ")[1] for line in out.decode().splitlines() if line.startswith("== ")] == [
            f"{n} ==" for n in names
        ]
    elif fmt == "json":
        assert [d["generated_at"] for d in json.loads(out)] == ["2024-01-01T00:00:00+00:00"] * 3
    else:
        assert out.count(b"apk,rule,severity,") == 1
    assert (len(out), hashlib.sha256(out).hexdigest()) == _BATCH_PINS[fmt]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_batch_output_when_every_file_fails(tmp_path, capsys, fmt):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "a.apk").write_bytes(b"\x00garbage\x00")
    assert main(["--dir", str(broken), "--format", fmt]) == 3
    expected = {"text": b"", "json": b"[\n\n]\n", "csv": b""}[fmt]  # an empty json array, no csv header
    assert capsys.readouterr().out.encode("utf-8") == expected
