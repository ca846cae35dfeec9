"""Timed CLI passes in a fresh interpreter that did not build the inputs.

usage: python3 child.py CONFIG.json

Each pass is one call of ``bankscan.cli.main`` with the workload's
arguments, its standard output kept in memory. A warm-up pass fills the
caches first. Then passes repeat until ``seconds`` have gone by; with
``trace`` set, the time is split between untraced passes and passes under
the tracer. The outputs of the warm-up pass and of the last pass of each
kind are written for the caller to check. A reference loop is timed before
the first pass and after every pass, so that the caller can rescale each
pass to nominal host speed (see reference.py). Prints one JSON line.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

from bankscan import cli
from bankscan.apk import dex_entry_names, open_apk, read_entry
from bankscan.dex import parse_dex

from reference import reference_loop
from tracer import Tracer, dex_counts

MIN_PASSES = 5


def one_pass(argv: list[str]) -> tuple[float, int, bytes, str]:
    """(seconds, exit code, stdout bytes, stderr text) of one CLI call."""
    out, err = io.BytesIO(), io.StringIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = wrapper, err
    gc.collect()
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        wrapper.flush()
        seconds = time.perf_counter() - start
    finally:
        sys.stdout, sys.stderr = saved
    payload = out.getvalue()
    wrapper.detach()
    return seconds, code, payload, err.getvalue()


def repeat(argv, seconds, record, on_pass=None):
    """Passes until `seconds` have gone by (at least MIN_PASSES).

    Returns the pass times and the reference-loop times taken between them:
    one before the first pass and one after each pass.
    """
    times = []
    references = [reference_loop()]
    begin = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - begin < seconds:
        if on_pass is not None:
            on_pass(len(times))
        elapsed, code, payload, errors = one_pass(argv)
        times.append(elapsed)
        references.append(reference_loop())
        record(elapsed, code, payload, errors)
    return times, references


def parsed_counts(input_dir: Path) -> dict[str, int]:
    """DEX files, methods and instructions as the program's parser sees the inputs."""
    counts = {"dex_files": 0, "methods": 0, "insns": 0}
    for path in sorted(input_dir.glob("*.apk")):
        archive = open_apk(path)
        for name in dex_entry_names(archive):
            image = dex_counts(parse_dex(read_entry(archive, name), source_name=name))
            counts["dex_files"] += 1
            counts["methods"] += image["dex.methods"]
            counts["insns"] += image["dex.insns"]
    return counts


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    argv = config["argv"]
    out_dir = Path(config["out_dir"])
    status = {"passes": 0, "failed_passes": 0, "stderr": ""}

    def check(code: int, errors: str) -> None:
        status["passes"] += 1
        if code != 0 or errors:
            status["failed_passes"] += 1
            status["stderr"] = errors[-2000:]

    def keep(name: str):
        def record(elapsed, code, payload, errors):
            check(code, errors)
            (out_dir / name).write_bytes(payload)
        return record

    keep("out-warm.bin")(*one_pass(argv))

    seconds = config["seconds"] / 2 if config["trace"] else config["seconds"]
    times, references = repeat(argv, seconds, keep("out-last.bin"))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"pass_s": times, "reference_s": references, "maxrss_kb": peak_kb}

    if config["trace"]:
        tracer = Tracer()
        layers = []
        record = keep("out-traced.bin")

        def record_traced(elapsed, code, payload, errors):
            layers.append(tracer.pass_metrics(elapsed))
            record(elapsed, code, payload, errors)

        tracer.calibrate()
        tracer.install()
        try:
            result["traced_pass_s"], result["traced_reference_s"] = repeat(
                argv, seconds, record_traced, tracer.start_pass
            )
        finally:
            tracer.uninstall()
        result["traced_layers"] = layers
        spans = [
            {"pass": p, "name": n, "start_ms": 1000 * s, "end_ms": 1000 * e, "parent": parent}
            for p, n, s, e, parent in tracer.spans
        ]
        Path(config["trace_path"]).write_text(json.dumps(spans))

    result.update(status)
    result["parsed"] = parsed_counts(Path(config["input_dir"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
