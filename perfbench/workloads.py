"""Seeded synthetic inputs for the scan-pipeline benchmark, and their checks.

Each workload is built from ``bankscan.fixtures`` and described by a plan:
the files to write, the CLI arguments that scan them, and what the program
must report for them. The plan is worked out here, from the generator's own
choices, never from the scanner, so the checks compare the program against
an independent account of its input.

The seed picks file names, method names, filler instructions and where each
call site lands. It never changes how much work a workload holds: the
number of APKs, methods, instructions and sites of each kind depend on the
scale alone, so different seeds give different bytes but the same expected
findings and near-identical cost.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass, field

from bankscan.fixtures import (
    CodeKnobs,
    ManifestKnobs,
    MethodSketch,
    build_fixture,
    emit_dex,
    encode_document,
    fleet_profiles,
    implied_rules,
    manifest_element,
    method_sketches,
    pack_apk,
    rule_oracle_corpus,
)
from bankscan.rules import RULE_TITLES, RuleId

WORKLOADS = ("fleet-matrix", "webview-backscan", "bytecode-bulk")

RULES = tuple(RuleId)
MANIFEST_RULES = frozenset({RuleId.R02, RuleId.R03, RuleId.R06, RuleId.R10})
# The six fields every report section must carry.
SECTION_FIELDS = ("title", "evidence", "severity", "category", "background", "recommendation")

STRING = "Ljava/lang/String;"
WEBSETTINGS = "Landroid/webkit/WebSettings;"
WEBVIEW = "Landroid/webkit/WebView;"
WINDOW = "Landroid/view/Window;"
JFILE = "Ljava/io/File;"
TELEPHONY = "Landroid/telephony/TelephonyManager;"
JS_BRIDGE_PROTO = ("V", ("Ljava/lang/Object;", STRING))

# Calls that no rule looks for. Filler invokes one of these, so the rules'
# passes over the instructions do full work without producing findings.
NEUTRAL_CALLS = (
    ("invoke-virtual", 2, ("Ljava/lang/StringBuilder;", "append", ("Ljava/lang/StringBuilder;", (STRING,)))),
    ("invoke-virtual", 1, (STRING, "length", ("I", ()))),
    ("invoke-static", 2, ("Landroid/util/Log;", "d", ("I", (STRING, STRING)))),
    ("invoke-interface", 1, ("Ljava/util/List;", "size", ("I", ()))),
    ("invoke-static", 0, ("Lbank/core/Ledger;", "flush", ("V", ()))),
    ("invoke-direct", 1, ("Lbank/core/Ledger;", "<init>", ("V", ()))),
)
NEUTRAL_TYPES = ("Ljava/lang/StringBuilder;", "Lbank/core/Ledger;", "Ljava/util/ArrayList;")

# Flags other than FLAG_SECURE (0x2000): FLAG_KEEP_SCREEN_ON, FLAG_FULLSCREEN.
WINDOW_FLAGS = (0x80, 0x400)

# Manifest of the paper's most exposed fleet app: R02, R03, R06 and R10 fire.
EXPOSED_MANIFEST = ManifestKnobs(
    allow_backup=None,
    provider_export="open",
    permission_level="normal",
    empty_intent_filter=True,
)
# Code knobs under which no code rule fires, so that only manifest rules remain.
NO_CODE_FINDINGS = CodeKnobs(
    root_check_strings=True, signature_check=True, flag_secure=True, installer_check=True
)


@dataclass
class Workload:
    """Everything one workload run needs, decided before the program runs."""

    name: str
    files: dict[str, bytes]           # path relative to the input directory -> bytes
    argv: list[str]                   # CLI arguments, with {dir} for the input directory
    apks: int
    dex_files: int
    methods: int
    insns: int
    expected: dict = field(default_factory=dict)


def _scaled(base: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, round(base * scale))


def _filler_string(rng: random.Random) -> str:
    # Hex tokens cannot contain any root-detection marker ("su", "test-keys", ...).
    return f"k.{rng.randrange(4096):03x}"


def _neutral(rng: random.Random, allow_const: bool) -> tuple:
    """One filler instruction that no rule reacts to."""
    kind = rng.randrange(7 if allow_const else 5)
    if kind == 0:
        return ("nop",)
    if kind == 1:
        return ("const-string", rng.randrange(6), _filler_string(rng))
    if kind == 2:
        return ("new-instance", rng.randrange(6), rng.choice(NEUTRAL_TYPES))
    if kind in (3, 4):
        op, arity, mref = rng.choice(NEUTRAL_CALLS)
        return (op, [rng.randrange(6) for _ in range(arity)], mref)
    if kind == 5:
        return ("const4", rng.randrange(6), rng.randrange(-8, 8))
    return ("const16", rng.randrange(6), rng.randrange(-0x8000, 0x8000))


def _method_names(rng: random.Random, count: int, stem: str) -> list[str]:
    tag = f"{rng.getrandbits(24):06x}"
    return [f"{stem}{i:05d}_{tag}" for i in range(count)]


def _insn_count(sketches: list[MethodSketch]) -> int:
    return sum(len(s.instructions) for s in sketches)


# ---------------------------------------------------------------------------
# fleet-matrix: many small deflated APKs, one CSV matrix
# ---------------------------------------------------------------------------


def build_fleet_matrix_workload(seed: int, scale: float = 1.0) -> Workload:
    profiles = rule_oracle_corpus() + fleet_profiles()
    copies = _scaled(20, scale)
    payloads = {p.name: build_fixture(p, compress=True) for p in profiles}
    insns = {p.name: _insn_count(method_sketches(p.code_knobs)) for p in profiles}
    methods = {p.name: len(method_sketches(p.code_knobs)) for p in profiles}

    rng = random.Random(f"fleet-matrix:{seed}")
    order = [p for p in profiles for _ in range(copies)]
    rng.shuffle(order)
    names: set[str] = set()
    while len(names) < len(order):
        names.add(f"app-{rng.getrandbits(40):010x}.apk")

    files = {}
    rows = {}
    for name, profile in zip(sorted(names), order):
        files[name] = payloads[profile.name]
        rows[name] = implied_rules(profile.manifest_knobs, profile.code_knobs)
    return Workload(
        name="fleet-matrix",
        files=files,
        argv=["--dir", "{dir}", "--matrix", "--format", "csv"],
        apks=len(files),
        dex_files=len(files),
        methods=sum(methods[p.name] for p in order),
        insns=sum(insns[p.name] for p in order),
        expected={"rows": rows},
    )


def half_up_percentage(count: int, out_of: int = len(RULES)) -> str:
    """count/out_of as a percentage with two decimals, rounded half up, in integers."""
    hundredths, rest = divmod(10000 * count, out_of)
    if 2 * rest >= out_of:
        hundredths += 1
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _check_fleet_matrix(workload: Workload, output: bytes) -> list[str]:
    rows = workload.expected["rows"]
    table = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    errors = []
    header = table[0] if table else []
    if len(header) != len(RULES) + 3 or header[0] != "app" or header[-2:] != ["Total", "Percentage"]:
        return [f"matrix header malformed: {header}"]
    body = table[1:]
    if [r[0] for r in body] != sorted(rows):
        errors.append(f"matrix rows {len(body)} do not match the {len(rows)} input files in order")
    for row in body:
        expected = rows.get(row[0])
        if expected is None or len(row) != len(RULES) + 3:
            errors.append(f"unexpected row {row[:1]}")
            continue
        cells = ["YES" if rule in expected else "no" for rule in RULES]
        if row[1:-2] != cells:
            errors.append(f"{row[0]}: cells {row[1:-2]} != {cells}")
        total = sum(c == "YES" for c in row[1:-2])
        if row[-2] != str(total) or row[-1] != half_up_percentage(total):
            errors.append(f"{row[0]}: total/percentage {row[-2:]} for {total} vulnerable rules")
    return errors


# ---------------------------------------------------------------------------
# webview-backscan: one large stored single-DEX app full of const back-scans
# ---------------------------------------------------------------------------

# Instruction layout of every method: a const-free lead-in, one slot for a
# back-scanned site, a tail of filler and direct call sites, return-void.
_LEAD = 8
_TAIL = 9


def _backscan_site(kind: str, literal: int | None, rng: random.Random) -> list[tuple]:
    """Two instructions ending in a back-scanned call.

    With a literal, the const right before the call writes the register the
    call passes, so a register-aware resolver reaches the same literal. Without
    one, the eight instructions before the call hold no const at all.
    """
    if kind == "js":
        call = ("invoke-virtual", [0, 1], (WEBSETTINGS, "setJavaScriptEnabled", ("V", ("Z",))))
    elif kind == "fa":
        call = ("invoke-virtual", [0, 1], (WEBSETTINGS, "setAllowFileAccess", ("V", ("Z",))))
    elif rng.randrange(2):
        call = ("invoke-virtual", [0, 1, 1], (WINDOW, "setFlags", ("V", ("I", "I"))))
    else:
        call = ("invoke-virtual", [0, 1], (WINDOW, "addFlags", ("V", ("I",))))
    if literal is None:
        return [_neutral(rng, allow_const=False), call]
    if kind == "win":
        return [("const16", 1, literal), call]
    return [("const4", 1, literal), call]


def _stratified(rng: random.Random, slots: int, count: int) -> list[int]:
    """`count` distinct slots, one per equal stratum, so their mean position is seed-independent."""
    return [(i * slots) // count + rng.randrange(max(1, slots // count)) for i in range(count)]


def _literal_plan(rng: random.Random, count: int, literals: tuple) -> list[int | None]:
    """Half the sites get literals[0], a quarter literals[1], a quarter no const; shuffled."""
    plan = [literals[0]] * (count - 2 * (count // 4)) + [literals[1]] * (count // 4) + [None] * (count // 4)
    rng.shuffle(plan)
    return plan


def webview_sizes(scale: float) -> dict[str, int]:
    return {
        "methods": _scaled(6000, scale, 40),
        "backscan_sites": _scaled(300, scale, 4),  # of each kind: js, fa, win
        "delete": _scaled(3000, scale, 4),
        "js_bridge": 4,
        "device_id": 4,
    }


def build_webview_backscan_workload(seed: int, scale: float = 1.0) -> Workload:
    sizes = webview_sizes(scale)
    rng = random.Random(f"webview-backscan:{seed}")
    m = sizes["methods"]
    per_kind = sizes["backscan_sites"]
    if 3 * per_kind > m:
        raise ValueError("more back-scanned sites than methods")

    # Back-scanned sites: the three kinds take turns over equal strata of the methods.
    kinds = ("js", "fa", "win")
    literals = {
        "js": _literal_plan(rng, per_kind, (1, 0)),
        "fa": _literal_plan(rng, per_kind, (1, 0)),
        "win": _literal_plan(rng, per_kind, WINDOW_FLAGS),
    }
    site_at = {
        method: (kinds[i % 3], literals[kinds[i % 3]][i // 3])
        for i, method in enumerate(_stratified(rng, m, 3 * per_kind))
    }

    # Direct sites (File.delete, addJavascriptInterface, getDeviceId) fill tail slots.
    direct = ["delete"] * sizes["delete"] + ["js_bridge"] * sizes["js_bridge"] + ["device_id"] * sizes["device_id"]
    rng.shuffle(direct)
    tail_sites = dict(zip(_stratified(rng, m * _TAIL, len(direct)), direct))

    sketches = []
    for method, name in enumerate(_method_names(rng, m, "web")):
        ins = [_neutral(rng, allow_const=False) for _ in range(_LEAD)]
        if method in site_at:
            ins += _backscan_site(*site_at[method], rng)
        else:
            ins += [_neutral(rng, allow_const=True) for _ in range(2)]
        for slot in range(method * _TAIL, (method + 1) * _TAIL):
            site = tail_sites.get(slot)
            if site == "delete":
                ins.append(("invoke-virtual", [rng.randrange(6)], (JFILE, "delete", ("Z", ()))))
            elif site == "js_bridge":
                ins.append(("invoke-virtual", [0, 2, 1], (WEBVIEW, "addJavascriptInterface", JS_BRIDGE_PROTO)))
            elif site == "device_id":
                ins.append(("invoke-virtual", [0], (TELEPHONY, "getDeviceId", (STRING, ()))))
            else:
                ins.append(_neutral(rng, allow_const=True))
        ins.append(("return-void",))
        sketches.append(MethodSketch(name, ins))

    dex = emit_dex(f"Lbank/webview/Screens{rng.getrandbits(16):04x};", sketches)
    manifest = encode_document(manifest_element("bank.webview", EXPOSED_MANIFEST))
    apk = pack_apk([("AndroidManifest.xml", manifest), ("classes.dex", dex.data)], compress=False)

    # Evidence lines per rule: one per planned site for presence rules, one
    # per absence rule, one per manifest declaration.
    lit1 = {k: sum(1 for lit in literals[k] if lit == 1) for k in ("js", "fa")}
    evidence = {
        RuleId.R04: sizes["js_bridge"],
        RuleId.R05: sizes["device_id"],
        RuleId.R07: lit1["fa"],
        RuleId.R08: lit1["js"],
        RuleId.R09: 1,  # no root marker in any string
        RuleId.R11: sizes["delete"],
        RuleId.R12: 1,  # no signature check
        RuleId.R13: 1,  # no FLAG_SECURE literal reaches a Window call
        RuleId.R14: 1,  # no installer check
    }
    for rule in implied_rules(EXPOSED_MANIFEST, NO_CODE_FINDINGS) & MANIFEST_RULES:
        evidence[rule] = 1
    return Workload(
        name="webview-backscan",
        files={"webview.apk": apk},
        argv=["-f", "{dir}/webview.apk", "--format", "json"],
        apks=1,
        dex_files=1,
        methods=m,
        insns=_insn_count(sketches),
        expected={"evidence": {r.value: n for r, n in evidence.items()}},
    )


def _check_webview_backscan(workload: Workload, output: bytes) -> list[str]:
    doc = json.loads(output)
    errors = []
    if doc.get("kind") != "report" or doc.get("apk_name") != "webview.apk":
        errors.append(f"not the report of webview.apk: kind={doc.get('kind')!r}")
    counts: dict[str, int] = {}
    for section in doc.get("sections", []):
        missing = [f for f in SECTION_FIELDS if not section.get(f)]
        if missing:
            errors.append(f"section {section.get('rule')} lacks {missing}")
        counts[section["rule"]] = counts.get(section["rule"], 0) + len(section.get("evidence", []))
    if counts != workload.expected["evidence"]:
        plan = sorted(workload.expected["evidence"].items())
        errors.append(f"evidence per rule {sorted(counts.items())} != plan {plan}")
    return errors


# ---------------------------------------------------------------------------
# bytecode-bulk: one large deflated multidex app with almost no rule hits
# ---------------------------------------------------------------------------

BULK_METHOD_LEN = 40
BULK_DEX_FILES = 3
# The app's own code and manifest: three code rules hit once each, three manifest
# rules fire, and four absence rules fire only after full passes over the code.
BULK_CORE_PROFILE = "revolut-like"


def bulk_sizes(scale: float) -> dict[str, int]:
    return {"dex_files": BULK_DEX_FILES, "methods_per_dex": _scaled(2500, scale, 20)}


def build_bytecode_bulk_workload(seed: int, scale: float = 1.0) -> Workload:
    sizes = bulk_sizes(scale)
    rng = random.Random(f"bytecode-bulk:{seed}")
    core = next(p for p in fleet_profiles() if p.name == BULK_CORE_PROFILE)
    entries = []
    methods = insns = 0
    for index in range(sizes["dex_files"]):
        sketches = method_sketches(core.code_knobs) if index == 0 else []
        for name in _method_names(rng, sizes["methods_per_dex"], f"bulk{index}x"):
            body = [_neutral(rng, allow_const=True) for _ in range(BULK_METHOD_LEN - 1)]
            sketches.append(MethodSketch(name, body + [("return-void",)]))
        dex = emit_dex(f"Lbank/bulk/Part{index}x{rng.getrandbits(16):04x};", sketches)
        entries.append((f"classes{index + 1 if index else ''}.dex", dex.data))
        methods += len(sketches)
        insns += _insn_count(sketches)
    manifest = encode_document(manifest_element(f"bank.{core.name}", core.manifest_knobs))
    apk = pack_apk([("AndroidManifest.xml", manifest), *entries], compress=True)
    return Workload(
        name="bytecode-bulk",
        files={"bulk.apk": apk},
        argv=["-f", "{dir}/bulk.apk", "--format", "text"],
        apks=1,
        dex_files=sizes["dex_files"],
        methods=methods,
        insns=insns,
        expected={"rules": sorted(r.value for r in implied_rules(core.manifest_knobs, core.code_knobs))},
    )


_TITLE_LINE = re.compile(r"^\[\d+\] \((\w+)\) (.+)$")
_DEX_COUNT = re.compile(r"across (\d+) dex file\(s\)")


def _check_bytecode_bulk(workload: Workload, output: bytes) -> list[str]:
    text = output.decode("utf-8")
    by_title = {title: rule.value for rule, title in RULE_TITLES.items()}
    found = set()
    sections = 0
    for line in text.splitlines():
        match = _TITLE_LINE.match(line)
        if match:
            sections += 1
            found.add(by_title.get(match.group(2), "?" + match.group(2)))
    errors = []
    if sorted(found) != workload.expected["rules"]:
        errors.append(f"rule vector {sorted(found)} != plan {workload.expected['rules']}")
    if f"findings: {sections}\n" not in text:
        errors.append(f"findings count line does not match {sections} sections")
    dex_counts = set(_DEX_COUNT.findall(text))
    if dex_counts != {str(workload.dex_files)}:
        errors.append(f"absence evidence names dex counts {dex_counts}, plan has {workload.dex_files}")
    return errors


BUILDERS = {
    "fleet-matrix": build_fleet_matrix_workload,
    "webview-backscan": build_webview_backscan_workload,
    "bytecode-bulk": build_bytecode_bulk_workload,
}
CHECKS = {
    "fleet-matrix": _check_fleet_matrix,
    "webview-backscan": _check_webview_backscan,
    "bytecode-bulk": _check_bytecode_bulk,
}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    return BUILDERS[name](seed, scale)


def check_output(workload: Workload, output: bytes) -> list[str]:
    """Differences between the program's output and the plan; empty when correct."""
    try:
        return CHECKS[workload.name](workload, output)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def setup_fixture() -> tuple[bytes, int]:
    """The smallest stored rule-oracle APK and the number of findings its profile implies."""
    profile = min(rule_oracle_corpus(), key=lambda p: (len(build_fixture(p)), p.name))
    return build_fixture(profile), len(implied_rules(profile.manifest_knobs, profile.code_knobs))
