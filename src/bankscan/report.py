"""Report rendering and fleet comparison matrices.

A single-app report holds its scan's own findings, critical first, then in
rule order. Each section prints the six standard fields: the writers read a
rule's title, severity and category from ``rules.RULES``, and its background
and recommendation from the knowledge base, which also gives the
user-countermeasure appendix. Fleet matrices put apps on rows and the
fourteen rules on columns with YES/no cells, a per-app total, and the total
as a percentage of 14 rounded half-up to two decimals.

Three output encodings: ``text`` for humans, ``json`` for machines, and
``csv`` tables. The JSON report is written directly, one run of one rule's
sections at a time, and its bytes equal ``json.dumps(doc, sort_keys=True,
indent=2)`` of the report. Only the two JSON writers import ``json``, and
only the two CSV writers ``csv``, so a text scan loads neither. All output
is deterministic for a given input; a report's timestamp is the caller's,
or else ``_utc_now()``, which tests pin.

Both structured formats write the constant ``SCHEMA_VERSION`` as their
``schema_version``.
"""

from __future__ import annotations

import io
import time
from collections import Counter
from itertools import groupby, repeat
from operator import itemgetter
from typing import NamedTuple

from .knowledge import load_knowledge_base
from .rules import RULE_COUNT, RULE_TITLES, RULES, Finding, RuleId, ScanResult

SCHEMA_VERSION = 1

FORMATS = ("text", "json", "csv")
_RULE = itemgetter(0)  # of a Finding
_EVIDENCE = itemgetter(1)
# A finding's place in a report: critical first, then rule order.
_REPORT_ORDER = {rule: (-RULES[rule].severity.rank, i) for i, rule in enumerate(RuleId)}


class ReportError(Exception):
    """Base class for rendering/serialization failures."""


class DuplicateAppNameError(ReportError):
    """Two fleet scan results share an app name."""


class UnknownFormatError(ReportError):
    """Requested serialization format is not text/json/csv."""


class Report(NamedTuple):
    apk_name: str
    generated_at: str
    sections: tuple[Finding, ...]  # one per finding, in report order


class FleetMatrix(NamedTuple):
    apps: tuple[str, ...]
    cells: tuple[tuple[bool, ...], ...]  # per app, one per rule in rule order
    totals: tuple[int, ...]
    percentages: tuple[str, ...]


def format_percentage(count: int, out_of: int = RULE_COUNT) -> str:
    """count/out_of as a percentage string, two decimals, half-up rounding."""
    hundredths, rest = divmod(10000 * count, out_of)
    if 2 * rest >= out_of:
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def render_report(result: ScanResult, generated_at: str | None = None) -> Report:
    """The result's own findings, critical first, then rule order, then scan order."""
    if generated_at is None:
        generated_at = _utc_now()
    sections = sorted(result.findings, key=lambda finding: _REPORT_ORDER[finding.rule])  # stable: keeps scan order
    return Report(result.apk_name, generated_at, tuple(sections))


def _utc_now() -> str:
    """Now, as ``datetime.now(timezone.utc).isoformat(timespec="seconds")`` writes it for years 1000-9999.

    ``time.time()`` reads the clock ``datetime.now`` reads. A bare ``time.gmtime()``
    reads C ``time()``, which on Linux can lag it by a clock tick past a second's turn.
    """
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time()))


def duplicate_app_names(names) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(n for n, k in Counter(names).items() if k > 1)


def build_fleet_matrix(results: list[ScanResult]) -> FleetMatrix:
    """Stack scan results into the apps-by-rules comparison matrix."""
    if not results:
        raise ReportError("fleet matrix needs at least one scan result")
    names = [r.apk_name for r in results]
    dupes = duplicate_app_names(names)
    if dupes:
        raise DuplicateAppNameError(f"duplicate app names: {dupes}")

    cells = tuple(tuple(r.rule_vector) for r in results)
    totals = tuple(sum(row) for row in cells)
    return FleetMatrix(tuple(names), cells, totals, tuple(format_percentage(t) for t in totals))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise UnknownFormatError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def serialize(obj: Report | FleetMatrix, fmt: str = "text") -> bytes:
    _check_format(fmt)
    if isinstance(obj, Report):
        impl = {"text": _report_text, "json": _report_json, "csv": lambda r: _reports_csv([r])}[fmt]
    elif isinstance(obj, FleetMatrix):
        impl = {"text": _matrix_text, "json": _matrix_json, "csv": _matrix_csv}[fmt]
    else:
        raise ReportError(f"cannot serialize {type(obj).__name__}")
    return impl(obj)


def serialize_reports(reports: list[Report], fmt: str = "text") -> bytes:
    """Several reports as one document, in the given order.

    ``text`` puts one blank line between reports, ``json`` is an array of
    report objects, and ``csv`` is one table under a single header row.
    """
    _check_format(fmt)
    if fmt == "text":
        return b"\n".join(_report_text(r) for r in reports)
    if fmt == "json":
        docs = ",\n".join("".join(_report_json_parts(r)) for r in reports)
        return f"[\n{docs}\n]\n".encode("utf-8")
    return _reports_csv(reports)


def _json_array(items: list[str], indent: str) -> str:
    """Encoded items as a JSON array, laid out as ``json.dumps(indent=2)`` does at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _report_json_parts(report: Report) -> list[str]:
    """The report as ``json.dumps(doc, sort_keys=True, indent=2)`` writes it, in pieces to join.

    A run of one rule's sections encodes the rule's fields once, and one
    ``str.join`` puts them between its evidence arrays.
    """
    from json.encoder import encode_basestring_ascii as enc  # the str encoder of json.dumps

    kb = load_knowledge_base()
    parts = [
        f'{{\n  "apk_name": {enc(report.apk_name)},\n  "generated_at": {enc(report.generated_at)},\n'
        f'  "kind": "report",\n  "schema_version": {SCHEMA_VERSION},\n  "sections": ['
    ]
    separator = "\n    "
    for rule, run in groupby(report.sections, _RULE):
        title, severity, category, _ = RULES[rule]
        known = kb.rules[rule]
        background, recommendation = known.background, known.developer_countermeasure
        head = f'{{\n      "background": {enc(background)},\n      "category": {enc(category)},\n      "evidence": '
        tail = (
            f',\n      "recommendation": {enc(recommendation)},\n      "rule": {enc(rule.value)},\n'
            f'      "severity": {enc(severity.value)},\n      "title": {enc(title)}\n    }}'
        )
        inners = list(map(",\n        ".join, map(map, repeat(enc), map(_EVIDENCE, run))))  # each array's inside
        between = f"\n      ]{tail},\n    {head}[\n        "  # ends an array and its section, starts the next
        text = f"[\n        {between.join(inners)}\n      ]"
        if "" in inners:  # an encoded string holds no raw newline, so only an empty array reads as below
            text = text.replace("[\n        \n      ]", "[]")
        parts += (separator, head, text, tail)
        separator = ",\n    "
    users = _json_array(list(map(enc, kb.user_countermeasures)), "  ")
    parts += ("\n  ]" if report.sections else "]", ',\n  "user_countermeasures": ', users, "\n}")
    return parts


def _report_json(report: Report) -> bytes:
    return "".join([*_report_json_parts(report), "\n"]).encode("utf-8")


def _matrix_json(matrix: FleetMatrix) -> bytes:
    import json  # see _report_json_parts

    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fleet_matrix",
        "apps": list(matrix.apps),
        "rules": [r.value for r in RuleId],
        "rule_titles": list(RULE_TITLES.values()),
        "cells": [list(row) for row in matrix.cells],
        "totals": list(matrix.totals),
        "percentages": list(matrix.percentages),
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _report_text(report: Report) -> bytes:
    kb = load_knowledge_base()
    out = io.StringIO()
    out.write(f"== Security report: {report.apk_name} ==\n")
    out.write(f"generated: {report.generated_at}\n")
    out.write(f"findings: {len(report.sections)}\n")
    for i, (rule, evidence) in enumerate(report.sections, 1):
        title, severity, category, _ = RULES[rule]
        known = kb.rules[rule]
        out.write(f"\n[{i}] ({severity.value}) {title}\n")
        out.write(f"    category: {category}\n")
        out.write("    evidence:\n")
        for line in evidence:
            out.write(f"      - {line}\n")
        out.write(f"    background: {known.background}\n")
        out.write(f"    recommendation: {known.developer_countermeasure}\n")
    out.write("\n-- User countermeasures --\n")
    for i, text in enumerate(kb.user_countermeasures, 1):
        out.write(f"{i}. {text}\n")
    return out.getvalue().encode("utf-8")


def _reports_csv(reports: list[Report]) -> bytes:
    if not reports:
        return b""  # an empty batch writes no header either
    import csv  # only the two CSV writers need it; a text or json scan does not load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["apk", "rule", "severity", "title", "category", "evidence"])
    for report in reports:
        for rule, evidence in report.sections:
            title, severity, category, _ = RULES[rule]
            writer.writerow([report.apk_name, rule.value, severity.value, title, category, " | ".join(evidence)])
    return buf.getvalue().encode("utf-8")


def _cell_text(vulnerable: bool) -> str:
    return "YES" if vulnerable else "no"


def _matrix_text(matrix: FleetMatrix) -> bytes:
    out = io.StringIO()
    out.write("== Fleet vulnerability matrix ==\n")
    width = max(len(a) for a in matrix.apps + ("app",))
    header = "  ".join(r.value for r in RuleId)
    out.write(f"{'app'.ljust(width)}  {header}  Total  Percentage\n")
    for app, row, total, pct in zip(matrix.apps, matrix.cells, matrix.totals, matrix.percentages):
        cells = "  ".join(_cell_text(c).ljust(3) for c in row)
        out.write(f"{app.ljust(width)}  {cells}  {total:>5}  {pct:>10}\n")
    out.write("\nrule legend:\n")
    for rule, title in RULE_TITLES.items():
        out.write(f"  {rule.value}: {title}\n")
    return out.getvalue().encode("utf-8")


def _matrix_csv(matrix: FleetMatrix) -> bytes:
    import csv  # see _reports_csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["app", *RULE_TITLES.values(), "Total", "Percentage"])
    for app, row, total, pct in zip(matrix.apps, matrix.cells, matrix.totals, matrix.percentages):
        writer.writerow([app, *(_cell_text(c) for c in row), total, pct])
    return buf.getvalue().encode("utf-8")
