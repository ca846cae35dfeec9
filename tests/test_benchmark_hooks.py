"""The program hooks that perfbench's tracer relies on.

``perfbench/tracer.py`` wraps each layer's public function from outside the
program and rebinds every reference to it in the loaded ``bankscan``
modules; per-rule spans exist only because ``run_all_rules`` calls
``evaluate_rule`` through its module global. A refactor that renames a
layer function or calls a rule some other way breaks ``run.py --trace 1``;
this test makes that a tier-1 failure. Likewise, deleting a program name
that ``perfbench/workloads.py`` or ``perfbench/child.py`` imports breaks
every benchmark run, so both modules are imported here too.
"""

import importlib.util
import sys
from pathlib import Path

from bankscan import cli
from bankscan.report import render_report, serialize
from bankscan.rules import RuleId
from bankscan.scanner import scan_bytes

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bankscan_globals():
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "bankscan" or name.startswith("bankscan.")
        for key, value in vars(module).items()
    }


def test_tracer_sees_every_layer_and_rule_of_a_matrix_run(tmp_path, fleet, capsys):
    profile, data = fleet[0]
    (tmp_path / f"{profile.name}.apk").write_bytes(data)
    before = _bankscan_globals()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["--dir", str(tmp_path), "--matrix", "--format", "csv"])
    finally:
        tracer.uninstall()
    after = _bankscan_globals()

    assert code == 0
    assert profile.name in capsys.readouterr().out
    names = [name for _, name, _, _, _ in tracer.spans]
    assert sorted(n for n in names if n.startswith("rules.")) == [f"rules.{rule.value}" for rule in RuleId]
    for layer in ("apk.load", "apk.read_entry", "axml.decode", "manifest.build", "dex.parse",
                  "report.matrix", "report.serialize"):
        assert layer in names, layer
    assert tracer.counts["dex.insns"] > 0
    assert tracer.counts["dex.invokes"] > 0
    assert all(after.get(key) is value for key, value in before.items())


def test_perfbench_modules_import_and_read_the_printed_titles(monkeypatch, corpus):
    # perfbench imports program names that no other tier-1 test reaches;
    # deleting one would break only the benchmark. Its check maps each
    # report section's printed title back to a rule through RULE_TITLES.
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    try:
        import child  # noqa: F401
        import workloads
    finally:
        for name in ("workloads", "child", "tracer", "reference"):
            sys.modules.pop(name, None)

    printed = {}
    for profile, data in corpus:
        report = render_report(scan_bytes(data, profile.name), generated_at="-")
        titles = [m.group(2) for m in map(workloads._TITLE_LINE.match, serialize(report).decode().splitlines()) if m]
        assert len(titles) == len(report.sections), profile.name
        printed.update(zip((s.rule for s in report.sections), titles))
    assert set(printed) == set(RuleId)
    assert workloads.RULE_TITLES == printed


def test_perfbench_parsed_counts_match_each_plan(monkeypatch, tmp_path):
    # The untraced benchmark checks the DEX files, methods and instructions
    # its parser reads, through every body of DexImage.bodies(), against the
    # workload's plan; bodies(), built from the rows, must yield them all.
    monkeypatch.syspath_prepend(str(TRACER_PATH.parent))
    try:
        import child
        import workloads
    finally:
        for name in ("workloads", "child", "tracer", "reference"):
            sys.modules.pop(name, None)

    for name in ("bytecode-bulk", "webview-backscan"):
        workload = workloads.build(name, 7, scale=0.02)
        inputs = tmp_path / name
        inputs.mkdir()
        for file_name, data in workload.files.items():
            (inputs / file_name).write_bytes(data)
        plan = {"dex_files": workload.dex_files, "methods": workload.methods, "insns": workload.insns}
        assert child.parsed_counts(inputs) == plan, name
