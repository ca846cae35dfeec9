"""Per-layer spans and counts, recorded from outside the program.

The tracer wraps each layer's public function and rebinds every reference
to it in the loaded ``bankscan`` modules, so calls made through
``from .apk import read_entry`` style imports are caught as well. A span
records its name, start, end, the span that was open when it began and the
pass it belongs to. Counts are taken from the values the layer returns,
after the span has closed; the time spent counting is kept apart so it does
not show up as program time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _count_load(tracer, result, args):
    tracer.counts["apk.entries"] += len(result.entries)


def _count_read_entry(tracer, result, args):
    archive, name = args[0], args[1]
    if archive.entry(name).method == 8:  # deflated
        tracer.counts["apk.inflated_kb"] += len(result) / 1024


def _count_axml(tracer, result, args):
    stack = [result.root]
    elements = 0
    while stack:
        element = stack.pop()
        elements += 1
        stack.extend(element.children)
    tracer.counts["axml.elements"] += elements


def _count_manifest(tracer, result, args):
    tracer.counts["manifest.components"] += len(result.components)


def dex_counts(image) -> dict[str, int]:
    """Methods, instructions and invokes of one parsed DEX image."""
    counts = {"dex.methods": 0, "dex.insns": 0, "dex.invokes": 0}
    for body in image.bodies():
        counts["dex.methods"] += 1
        counts["dex.insns"] += len(body.instructions)
        counts["dex.invokes"] += sum(1 for ins in body.instructions if ins.method_index is not None)
    return counts


def _count_dex(tracer, result, args):
    tracer.counts["dex.files"] += 1
    for name, value in dex_counts(result).items():
        tracer.counts[name] += value


def _count_rule(tracer, result, args):
    tracer.counts["rules.findings"] += len(result)
    tracer.counts["rules.evidence_lines"] += sum(len(f.evidence) for f in result)


def _count_render(tracer, result, args):
    tracer.counts["report.sections"] += len(result.sections)


def _count_serialize(tracer, result, args):
    tracer.counts["report.output_kb"] += len(result) / 1024


# (module, function, span name or a function of the call's arguments, counter)
LAYER_FUNCTIONS = (
    ("bankscan.apk", "load_apk", "apk.load", _count_load),
    ("bankscan.apk", "read_entry", "apk.read_entry", _count_read_entry),
    ("bankscan.axml", "decode_axml", "axml.decode", _count_axml),
    ("bankscan.manifest", "build_manifest_model", "manifest.build", _count_manifest),
    ("bankscan.dex", "parse_dex", "dex.parse", _count_dex),
    ("bankscan.rules", "evaluate_rule", lambda args: f"rules.{args[0].value}", _count_rule),
    ("bankscan.report", "render_report", "report.render", _count_render),
    ("bankscan.report", "build_fleet_matrix", "report.matrix", None),
    ("bankscan.report", "serialize", "report.serialize", _count_serialize),
)

# Every per-layer metric of a pass, in report order. A layer that a
# workload never calls reads 0.
PER_LAYER_TIMES = (
    "cli.self_ms", "apk.load_ms", "apk.read_entry_ms", "axml.decode_ms", "manifest.build_ms",
    "dex.parse_ms", *(f"rules.R{i:02d}_ms" for i in range(1, 15)),
    "report.render_ms", "report.serialize_ms", "report.matrix_ms",
)
PER_LAYER_COUNTS = (
    "apk.entries", "apk.inflated_kb", "axml.elements", "manifest.components",
    "dex.files", "dex.methods", "dex.insns", "dex.invokes",
    "rules.findings", "rules.evidence_lines", "report.sections", "report.output_kb",
)


class Tracer:
    """Spans of the current pass, plus per-pass counts and bookkeeping time."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (pass, name, start, end, parent index)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.overhead = 0.0
        self.pass_id = 0
        self.residual = 0.0
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span_name = name(args) if callable(name) else name
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (self.pass_id, span_name, start, end, parent)
            if counter is not None:
                counter(self, result, args)
            if parent == -1:  # a nested span's bookkeeping is inside its parent's time
                self.overhead += (start - entered) + (time.perf_counter() - end)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "bankscan" or n.startswith("bankscan.")]
        for module_name, attr, name, counter in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def calibrate(self, calls: int = 5000) -> None:
        """Measure the cost per root span that neither span times nor `overhead` cover.

        That is the call into the wrapper and the return from it; `pass_metrics`
        takes it off the time left to the CLI itself.
        """
        probe = self._wrap(lambda *args: None, "calibrate", None)
        self.start_pass(-1)
        begin = time.perf_counter()
        for _ in range(calls):
            probe()
        elapsed = time.perf_counter() - begin
        covered = sum(end - start for _, _, start, end, _ in self.spans)
        self.residual = max(0.0, (elapsed - covered - self.overhead) / calls)
        self.start_pass(0)

    def start_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans.clear()
        self.counts.clear()
        self.overhead = 0.0

    def pass_metrics(self, pass_seconds: float) -> dict[str, float]:
        """Per-layer times (ms) and counts of the pass just finished."""
        times: defaultdict[str, float] = defaultdict(float)
        covered = 0.0
        roots = 0
        for _, name, start, end, parent in self.spans:
            times[name] += end - start
            if parent == -1:
                covered += end - start
                roots += 1
        metrics = dict.fromkeys(PER_LAYER_TIMES + PER_LAYER_COUNTS, 0.0)
        metrics.update((f"{name}_ms", 1000 * t) for name, t in times.items())
        metrics["cli.self_ms"] = 1000 * (pass_seconds - covered - self.overhead - roots * self.residual)
        metrics.update(self.counts)
        return metrics
