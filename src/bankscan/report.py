"""Report rendering and fleet comparison matrices.

Single-app reports carry one section per finding with the six standard
fields (title, evidence paths, severity, category, background,
recommendation) plus the user-countermeasure appendix. Fleet matrices put
apps on rows and the fourteen rules on columns with YES/no cells, a per-app
total, and the total as a percentage of 14 rounded half-up to two decimals.

Three output encodings: ``text`` for humans, ``json`` for machines (the
structured form round-trips losslessly), and ``csv`` tables. The JSON
report is written directly, one run of sections sharing every field but
the evidence at a time, and its bytes equal
``json.dumps(doc, sort_keys=True, indent=2)`` of the report. All output is
deterministic for a given input; report timestamps are injected by the
caller or pinned by tests.

Both structured formats are versioned via ``schema_version``.
"""

from __future__ import annotations

import datetime as _dt
import io
import json
from collections import Counter
from itertools import chain, groupby, repeat
from operator import itemgetter
from typing import NamedTuple

from .knowledge import KnowledgeBase, load_knowledge_base
from .rules import RULE_COUNT, RULE_TITLES, RuleId, ScanResult, Severity

SCHEMA_VERSION = 1

FORMATS = ("text", "json", "csv")
_enc = json.encoder.encode_basestring_ascii  # the str encoder of json.dumps
_FIXED = itemgetter(0, 1, 3, 4, 5, 6)  # a ReportSection's fields but the evidence
_EVIDENCE = itemgetter(2)
_RULE_AND_SEVERITY = itemgetter(0, 1)  # of a Finding


class ReportError(Exception):
    """Base class for rendering/serialization failures."""


class DuplicateAppNameError(ReportError):
    """Two fleet scan results share an app name."""


class UnknownFormatError(ReportError):
    """Requested serialization format is not text/json/csv."""


class ReportSection(NamedTuple):
    rule: RuleId
    title: str
    evidence: tuple[str, ...]
    severity: Severity
    category: str
    background: str
    recommendation: str


class Report(NamedTuple):
    apk_name: str
    generated_at: str
    sections: tuple[ReportSection, ...]
    user_countermeasures: tuple[str, ...]
    schema_version: int = SCHEMA_VERSION


class FleetMatrix(NamedTuple):
    apps: tuple[str, ...]
    rules: tuple[RuleId, ...]
    cells: tuple[tuple[bool, ...], ...]
    totals: tuple[int, ...]
    percentages: tuple[str, ...]
    rule_titles: tuple[str, ...]
    schema_version: int = SCHEMA_VERSION


def format_percentage(count: int, out_of: int = RULE_COUNT) -> str:
    """count/out_of as a percentage string, two decimals, half-up rounding."""
    hundredths, rest = divmod(10000 * count, out_of)
    if 2 * rest >= out_of:
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def render_report(
    result: ScanResult,
    kb: KnowledgeBase | None = None,
    generated_at: str | None = None,
) -> Report:
    """One section per finding, critical first, then rule order."""
    kb = kb or load_knowledge_base()
    if generated_at is None:
        generated_at = _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds")

    # Findings in a row that share a rule and a severity are a run: its knowledge
    # text is looked up once. Runs sorted by (-severity rank, rule index,
    # position) put their sections in that order too, since runs never overlap.
    runs = []
    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    for (rule, severity), run in groupby(result.findings, _RULE_AND_SEVERITY):
        background, recommendation = kb.backgrounds[rule], kb.countermeasures[rule].developer_action
        sections = [
            make(ReportSection, (rule, title, evidence, severity, category, background, recommendation))
            for _, _, title, evidence, category in run
        ]
        runs.append((-severity.rank, rule.index, len(runs), sections))
    runs.sort()  # positions are distinct, so sections are never compared
    return Report(
        apk_name=result.apk_name,
        generated_at=generated_at,
        sections=tuple(chain.from_iterable(sections for _, _, _, sections in runs)),
        user_countermeasures=tuple(u.text for u in kb.user_countermeasures),
    )


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

    rules = tuple(RuleId)
    cells = tuple(tuple(r.rule_vector) for r in results)
    totals = tuple(sum(row) for row in cells)
    return FleetMatrix(
        apps=tuple(names),
        rules=rules,
        cells=cells,
        totals=totals,
        percentages=tuple(format_percentage(t) for t in totals),
        rule_titles=tuple(RULE_TITLES[r] for r in rules),
    )


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


def _dump_json(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _json_array(items: list[str], indent: str) -> str:
    """Encoded items as a JSON array, laid out as ``json.dumps(indent=2)`` does at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _report_json_parts(report: Report) -> list[str]:
    """The report as ``json.dumps(doc, sort_keys=True, indent=2)`` writes it, in pieces to join.

    A run of sections sharing every field but the evidence encodes those
    fields once, and one ``str.join`` puts them between its evidence arrays.
    """
    parts = [
        f'{{\n  "apk_name": {_enc(report.apk_name)},\n  "generated_at": {_enc(report.generated_at)},\n'
        f'  "kind": "report",\n  "schema_version": {json.dumps(report.schema_version)},\n  "sections": ['
    ]
    separator = "\n    "
    for (rule, title, severity, category, background, recommendation), run in groupby(report.sections, _FIXED):
        head = f'{{\n      "background": {_enc(background)},\n      "category": {_enc(category)},\n      "evidence": '
        tail = (
            f',\n      "recommendation": {_enc(recommendation)},\n      "rule": {_enc(rule.value)},\n'
            f'      "severity": {_enc(severity.value)},\n      "title": {_enc(title)}\n    }}'
        )
        inners = list(map(",\n        ".join, map(map, repeat(_enc), map(_EVIDENCE, run))))  # each array's inside
        between = f"\n      ]{tail},\n    {head}[\n        "  # ends an array and its section, starts the next
        text = f"[\n        {between.join(inners)}\n      ]"
        if "" in inners:  # an encoded string holds no raw newline, so only an empty array reads as below
            text = text.replace("[\n        \n      ]", "[]")
        parts += (separator, head, text, tail)
        separator = ",\n    "
    users = _json_array(list(map(_enc, report.user_countermeasures)), "  ")
    parts += ("\n  ]" if report.sections else "]", ',\n  "user_countermeasures": ', users, "\n}")
    return parts


def _report_json(report: Report) -> bytes:
    return "".join([*_report_json_parts(report), "\n"]).encode("utf-8")


# What reading a malformed document raises (bad UTF-8 and bad JSON are
# ValueErrors); the deserializers raise each as a ReportError chained from it.
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError)


def deserialize_report(data: bytes) -> Report:
    try:
        doc = json.loads(data.decode("utf-8"))
        if doc.get("kind") != "report":
            raise ReportError(f"not a report document: kind={doc.get('kind')!r}")
        return Report(
            apk_name=doc["apk_name"],
            generated_at=doc["generated_at"],
            sections=tuple(
                ReportSection(
                    rule=RuleId(s["rule"]),
                    title=s["title"],
                    evidence=tuple(s["evidence"]),
                    severity=Severity(s["severity"]),
                    category=s["category"],
                    background=s["background"],
                    recommendation=s["recommendation"],
                )
                for s in doc["sections"]
            ),
            user_countermeasures=tuple(doc["user_countermeasures"]),
            schema_version=doc["schema_version"],
        )
    except _MALFORMED as exc:
        raise ReportError(f"malformed report document: {type(exc).__name__}: {exc}") from exc


def _matrix_json(matrix: FleetMatrix) -> bytes:
    return _dump_json(
        {
            "schema_version": matrix.schema_version,
            "kind": "fleet_matrix",
            "apps": list(matrix.apps),
            "rules": [r.value for r in matrix.rules],
            "rule_titles": list(matrix.rule_titles),
            "cells": [list(row) for row in matrix.cells],
            "totals": list(matrix.totals),
            "percentages": list(matrix.percentages),
        }
    )


def deserialize_matrix(data: bytes) -> FleetMatrix:
    try:
        doc = json.loads(data.decode("utf-8"))
        if doc.get("kind") != "fleet_matrix":
            raise ReportError(f"not a fleet matrix document: kind={doc.get('kind')!r}")
        return FleetMatrix(
            apps=tuple(doc["apps"]),
            rules=tuple(RuleId(r) for r in doc["rules"]),
            cells=tuple(tuple(bool(c) for c in row) for row in doc["cells"]),
            totals=tuple(doc["totals"]),
            percentages=tuple(doc["percentages"]),
            rule_titles=tuple(doc["rule_titles"]),
            schema_version=doc["schema_version"],
        )
    except _MALFORMED as exc:
        raise ReportError(f"malformed fleet matrix document: {type(exc).__name__}: {exc}") from exc


def scan_result_json(result: ScanResult) -> bytes:
    """Stable byte encoding of a raw scan result (no timestamp on purpose)."""
    return _dump_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "scan_result",
            "apk_name": result.apk_name,
            "rule_vector": list(result.rule_vector),
            "findings": [
                {
                    "rule": f.rule.value,
                    "severity": f.severity.value,
                    "title": f.title,
                    "category": f.category,
                    "evidence": list(f.evidence),
                }
                for f in result.findings
            ],
        }
    )


def _report_text(report: Report) -> bytes:
    out = io.StringIO()
    out.write(f"== Security report: {report.apk_name} ==\n")
    out.write(f"generated: {report.generated_at}\n")
    out.write(f"findings: {len(report.sections)}\n")
    for i, s in enumerate(report.sections, 1):
        out.write(f"\n[{i}] ({s.severity.value}) {s.title}\n")
        out.write(f"    category: {s.category}\n")
        out.write("    evidence:\n")
        for line in s.evidence:
            out.write(f"      - {line}\n")
        out.write(f"    background: {s.background}\n")
        out.write(f"    recommendation: {s.recommendation}\n")
    out.write("\n-- User countermeasures --\n")
    for i, text in enumerate(report.user_countermeasures, 1):
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
        for s in report.sections:
            writer.writerow(
                [report.apk_name, s.rule.value, s.severity.value, s.title, s.category, " | ".join(s.evidence)]
            )
    return buf.getvalue().encode("utf-8")


def _cell_text(vulnerable: bool) -> str:
    return "YES" if vulnerable else "no"


def _matrix_text(matrix: FleetMatrix) -> bytes:
    out = io.StringIO()
    out.write("== Fleet vulnerability matrix ==\n")
    width = max(len(a) for a in matrix.apps + ("app",))
    header = "  ".join(r.value for r in matrix.rules)
    out.write(f"{'app'.ljust(width)}  {header}  Total  Percentage\n")
    for app, row, total, pct in zip(matrix.apps, matrix.cells, matrix.totals, matrix.percentages):
        cells = "  ".join(_cell_text(c).ljust(3) for c in row)
        out.write(f"{app.ljust(width)}  {cells}  {total:>5}  {pct:>10}\n")
    out.write("\nrule legend:\n")
    for rule, title in zip(matrix.rules, matrix.rule_titles):
        out.write(f"  {rule.value}: {title}\n")
    return out.getvalue().encode("utf-8")


def _matrix_csv(matrix: FleetMatrix) -> bytes:
    import csv  # see _reports_csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["app", *matrix.rule_titles, "Total", "Percentage"])
    for app, row, total, pct in zip(matrix.apps, matrix.cells, matrix.totals, matrix.percentages):
        writer.writerow([app, *(_cell_text(c) for c in row), total, pct])
    return buf.getvalue().encode("utf-8")
