"""Quick self-test of the benchmark itself; not part of the repository's tests.

usage: python3 perfbench/selftest.py      (from the root of a checkout; about 15 s)

For each workload it
1. builds the inputs at a tiny scale for two seeds and shows that the bytes
   differ while the work counts and the outcome the checks expect do not;
2. hands each check a wrong output and requires it to object;
3. runs the benchmark end to end at that scale, untraced and traced, and
   requires a correct result that carries exactly the metrics
   BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from bankscan import cli  # noqa: E402

SCALE = 0.05


def expected_outcome(w: workloads.Workload):
    """What the checks assert, with the seed-chosen file names left out."""
    if w.name == "fleet-matrix":
        return sorted(sorted(r.value for r in rules) for rules in w.expected["rows"].values())
    return w.expected


def wrong_output(w: workloads.Workload, output: bytes) -> bytes:
    """The program's output with one asserted fact changed."""
    if w.name == "fleet-matrix":
        return re.sub(rb",(YES|no),", lambda m: b",no," if m.group(1) == b"YES" else b",YES,", output, count=1)
    if w.name == "webview-backscan":
        doc = json.loads(output)
        doc["sections"].pop()
        return json.dumps(doc).encode()
    return re.sub(rb"\n\[1\] \([a-z]+\) [^\n]*\n", b"\n", output, count=1)


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def program_output(w: workloads.Workload) -> bytes:
    """The CLI's output for a workload, produced in this process."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for file_name, data in w.files.items():
            (Path(tmp) / file_name).write_bytes(data)
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            code = cli.main([a.replace("{dir}", tmp) for a in w.argv])
            out.flush()
    assert code == 0, f"{w.name}: CLI exited {code}"
    return out.buffer.getvalue()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    metric_names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}

    for name in workloads.WORKLOADS:
        first, second = workloads.build(name, 1, SCALE), workloads.build(name, 2, SCALE)
        assert first.files != second.files, f"{name}: seed does not change the input bytes"
        counts = lambda w: (w.apks, w.dex_files, w.methods, w.insns)  # noqa: E731
        assert counts(first) == counts(second), f"{name}: seed changes the work counts"
        assert expected_outcome(first) == expected_outcome(second), f"{name}: seed changes the expected outcome"
        for w in (first, second):
            output = program_output(w)
            assert workloads.check_output(w, output) == [], workloads.check_output(w, output)
            assert workloads.check_output(w, wrong_output(w, output)), f"{name}: check accepts a wrong output"
        print(f"ok   {name}: seeds change the bytes, not the outcome; the check tells right from wrong")

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run_bench(name, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
            assert set(result["metrics"]) == metric_names[trace], set(result["metrics"]) ^ metric_names[trace]
            print(f"ok   {name} --trace {trace}: {result['attempted']} operations, checks passed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
