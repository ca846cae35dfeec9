"""The program hooks that perfbench's tracer relies on.

``perfbench/tracer.py`` wraps each layer's public function from outside the
program and rebinds every reference to it in the loaded ``bankscan``
modules; per-rule spans exist only because ``run_all_rules`` calls
``evaluate_rule`` through its module global. A refactor that renames a
layer function or calls a rule some other way breaks ``run.py --trace 1``;
this test makes that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

from bankscan import cli
from bankscan.rules import RuleId

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
