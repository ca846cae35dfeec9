"""Same-process A/B of two trees' ``parse_dex`` over the benchmark's DEX inputs.

usage: python tests/ab_parse_dex.py BASE CHANGE [--seed N] [--rounds R] [--workload NAME ...]

BASE and CHANGE are the roots of two bankscan checkouts. Each tree's
``src/bankscan/dex.py`` is loaded as a module of its own (it imports only the
standard library), so both parsers run in one interpreter, on one heap and
through one stretch of the host's load. The DEX inputs are the workloads of
``perfbench.workloads`` in this checkout, built from the seed and read out of
their APKs once, before any timing. Both sides must agree on every image's id
tables and rows; the invoke columns are left out of that check, so their
layout may differ between the trees.

Each round times one pass of each side over a workload's DEX files, the
order of the two sides alternating from round to round. The script prints,
per workload, each side's median pass, the ratio CHANGE / BASE of the
medians and the number of rounds in which CHANGE was faster.

It is not collected by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_parser(tree: Path, label: str):
    """``parse_dex`` of the ``dex.py`` under ``tree``, loaded as module ``label``."""
    spec = importlib.util.spec_from_file_location(label, tree / "src" / "bankscan" / "dex.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[label] = module
    spec.loader.exec_module(module)
    return module.parse_dex


def dex_inputs(workloads, name: str, seed: int) -> list[bytes]:
    """Every DEX file of the workload's APKs, in the order a pass scans them."""
    from bankscan.apk import dex_entry_names, load_apk, read_entry

    dexes = []
    for path, data in sorted(workloads.build(name, seed).files.items()):
        if path.endswith(".apk"):
            archive = load_apk(data)
            dexes.extend(read_entry(archive, entry) for entry in dex_entry_names(archive))
    return dexes


def one_pass(parse, dexes: list[bytes]) -> float:
    started = time.perf_counter()
    for data in dexes:
        parse(data)
    return time.perf_counter() - started


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # this checkout's bankscan and perfbench
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=6421)
    parser.add_argument("--rounds", type=int, default=25)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    sides = (load_parser(args.base, "ab_base_dex"), load_parser(args.change, "ab_change_dex"))

    print(f"{'workload':<18} {'base ms':>9} {'change ms':>10} {'change/base':>12} {'change faster':>14}")
    for name in args.workload or workloads.WORKLOADS:
        dexes = dex_inputs(workloads, name, args.seed)
        for data in dict.fromkeys(dexes):
            base, change = (parse(data) for parse in sides)
            if tuple(base)[:5] != tuple(change)[:5]:  # every field but the invoke columns
                sys.exit(f"{name}: the two trees parse a DEX file differently")
        times = ([], [])
        for round_ in range(args.rounds):
            for side in (0, 1) if round_ % 2 == 0 else (1, 0):
                times[side].append(one_pass(sides[side], dexes))
        base_ms, change_ms = (1000 * statistics.median(side) for side in times)
        faster = sum(c < b for b, c in zip(*times))
        print(f"{name:<18} {base_ms:>9.2f} {change_ms:>10.2f} {change_ms / base_ms:>12.3f} {faster:>10}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
