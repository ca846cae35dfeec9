"""Scan-pipeline benchmark: one workload, one seed, one run.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--scale X]

Run from the root of a bankscan checkout; the program is imported from
``src/``. The run builds the workload's inputs from the seed and writes
them under ``perfbench/.work/``. It then

1. with ``--trace 0``, times set-up in fresh interpreters (``setup_s``),
2. starts a fresh interpreter that times CLI passes over the inputs for
   ``--seconds`` (``child.py``); with ``--trace 1`` half the passes run
   under the per-layer tracer,
3. checks every kept output against the plan in ``workloads.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The full record
of the run, with every pass time, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from reference import rescale
from tracer import PER_LAYER_COUNTS, PER_LAYER_TIMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 9  # measured set-up interpreters per run, after one that primes the caches


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size relative to the benchmark's")
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("BANKSCAN_FORMAT", None)
    return env


def run_python(script: str, *args: str, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / script), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(work: Path, setup_apk: bytes, findings: int, errors: list[str]):
    """Rescaled and raw set-up seconds of SETUP_PROBES fresh interpreters, and failed probes."""
    path = work / "setup.apk"
    path.write_bytes(setup_apk)
    rescaled, raw = [], []
    failed = wrong = 0
    for probe in range(SETUP_PROBES + 1):
        head, _, report = run_python("probe_setup.py", str(path), timeout=60).partition("\n")
        seconds, reference, code = head.split()
        failed += code != "0"
        wrong += code == "0" and f"findings: {findings}\n" not in report
        if probe:
            raw.append(float(seconds))
            rescaled.append(rescale(float(seconds), float(reference)))
    if failed or wrong:
        errors.append(f"set-up scans: {failed} exited non-zero, {wrong} did not report {findings} findings")
    return rescaled, raw, failed


def rescaled_passes(times: list[float], references: list[float]) -> list[float]:
    """Each pass time at nominal host speed, from the reference loops timed before and after it."""
    return [rescale(t, (before + after) / 2) for t, before, after in zip(times, references, references[1:])]


def end_to_end_metrics(workload, child, setup_rescaled) -> dict:
    pass_s = statistics.median(rescaled_passes(child["pass_s"], child["reference_s"]))
    return {
        "setup_s": (statistics.median(setup_rescaled), "s"),
        "apks_per_s": (workload.apks / pass_s, "1/s"),
        "insns_per_s": (workload.insns / pass_s, "1/s"),
        "peak_rss_mb": (child["maxrss_kb"] / 1024, "MB"),
    }


def per_layer_metrics(child) -> dict:
    """Medians over the traced passes; times rescaled pass by pass like the end-to-end ones."""
    references = child["traced_reference_s"]
    layers = child["traced_layers"]
    factors = rescaled_passes([1.0] * len(layers), references)
    metrics = {
        "pass.untraced_ms": (1000 * statistics.median(rescaled_passes(child["pass_s"], child["reference_s"])), "ms"),
        "pass.traced_ms": (1000 * statistics.median(rescaled_passes(child["traced_pass_s"], references)), "ms"),
        "host.reference_ms": (1000 * statistics.median(child["reference_s"] + references), "ms"),
    }
    for name in PER_LAYER_TIMES:
        metrics[name] = (statistics.median(p[name] * f for p, f in zip(layers, factors)), "ms")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (statistics.median(p[name] for p in layers), "KB" if name.endswith("_kb") else "count")
    return metrics


def run(workload, args, work: Path) -> dict:
    import workloads  # importable once main() has put src/ on sys.path

    errors: list[str] = []
    input_dir = work / "in"
    input_dir.mkdir(parents=True)
    for name, data in workload.files.items():
        (input_dir / name).write_bytes(data)

    setup_rescaled, setup_raw, setup_failed = [], [], 0
    if not args.trace:
        setup_rescaled, setup_raw, setup_failed = measure_setup(work, *workloads.setup_fixture(), errors)

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    config = {
        "argv": [a.replace("{dir}", str(input_dir)) for a in workload.argv],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "input_dir": str(input_dir),
        "out_dir": str(work),
        "trace_path": str(results_dir / f"trace-{tag}.json"),
    }
    (work / "config.json").write_text(json.dumps(config))
    timeout = args.seconds + 120 * max(1.0, args.scale)
    child = json.loads(run_python("child.py", str(work / "config.json"), timeout=timeout).splitlines()[-1])

    outputs = ["out-warm.bin", "out-last.bin"] + (["out-traced.bin"] if args.trace else [])
    for name in outputs:
        errors += [f"{name}: {e}" for e in workloads.check_output(workload, (work / name).read_bytes())]
    plan = {"dex_files": workload.dex_files, "methods": workload.methods, "insns": workload.insns}
    if child["parsed"] != plan:
        errors.append(f"parsed counts {child['parsed']} != plan {plan}")
    if child["failed_passes"]:
        errors.append(f"{child['failed_passes']} CLI pass(es) failed: {child['stderr']}")

    if args.trace:
        metrics = per_layer_metrics(child)
        for layers in child["traced_layers"]:
            traced = {"dex_files": layers["dex.files"], "methods": layers["dex.methods"],
                      "insns": layers["dex.insns"]}
            if traced != plan:
                errors.append(f"traced counts {traced} != plan {plan}")
                break
    else:
        metrics = end_to_end_metrics(workload, child, setup_rescaled)

    record = {
        "correct": not errors,
        "attempted": child["passes"] * workload.apks + len(setup_raw) + (1 if setup_raw else 0),
        "failed": child["failed_passes"] * workload.apks + setup_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload.name, "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "apks": workload.apks, "dex_files": workload.dex_files, "methods": workload.methods,
        "insns": workload.insns, "input_bytes": sum(len(b) for b in workload.files.values()),
        "setup_raw_s": setup_raw, "setup_rescaled_s": setup_rescaled,
        **{k: child.get(k) for k in ("pass_s", "reference_s", "traced_pass_s", "traced_reference_s")},
        "errors": errors,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps({**record, "details": details}, indent=1))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    print(
        f"{workload.name} seed {args.seed}: {workload.apks} APK(s), {workload.insns} instructions, "
        f"{len(child['pass_s'])} timed passes"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bankscan" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no bankscan sources in {SRC}; run from the root of a bankscan checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}\n")
        return 2
    workload = workloads.build(args.workload, args.seed, args.scale)
    work = BENCH_DIR / ".work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = run(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
