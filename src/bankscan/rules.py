"""The fourteen banking-app detection rules.

Every rule is one row of ``RULES``: title, severity, category and an
evidence function of the scan input. ``evaluate_rule`` alone turns evidence
into ``Finding`` records, each only its rule and one tuple of evidence
lines; whoever needs the title, severity or category reads them from the
rule's row. Rules of one kind share a factory: ``_calls``
(R04, R05, R11), ``_calls_with_one`` (R08) and ``_absent`` (R09, R12, R13,
R14); the others are plain functions.

Presence rules flag a dangerous construct that was actually found (an API
call, a manifest declaration) and carry concrete evidence locations.
Absence rules (R09, R12, R13, R14) flag a missing defensive construct and
carry a single evidence line describing the search that came up empty; one
positive marker anywhere in any DEX suppresses them. All rules are pure
functions of the scan input, so results are deterministic; findings are
always merged in rule order.

Every code rule reads one per-scan fact table, ``ScanInput.facts``, and
``resolve_facts`` alone builds it, in one pass of ``_dex_facts`` over each DEX.
``CODE_TARGETS`` maps a method name to an owner, a shorty and a target key:
one C-level pass over the method refs picks the ones named in the table, and
each of those that matches and is invoked is kept. The same pass settles the
DEX-level facts (a root marker, which ``dex._string_marker`` finds in the raw
string data without decoding it, the package Signature type, the first
WebView type) and runs the one const back-scan: every call to R07's, R08's
and R13's targets is kept with the literal that reaches it, and each calling
body is stepped once however many sites it holds. Other rules read their
sites through ``_sites``, as plain tuples from the invoke columns and method
rows, and no rule builds a method body. The scan resolves the facts once,
before any rule runs, so a per-rule trace charges no rule for them.

Known, accepted imprecision: rules scan bundled third-party code exactly
like first-party code, R01 matches on method-local co-occurrence rather
than dataflow, and the const back-scan behind R07/R08/R13 ignores register
targets.
"""

from __future__ import annotations

import enum
from itertools import compress, count
from operator import itemgetter
from typing import Any, Callable, NamedTuple

from .dex import DexImage, _literals_reaching, _Site, _sites_of, _string_marker
from .manifest import ManifestModel, effective_exported

FLAG_SECURE = 0x2000

ROOT_MARKER_EXACT = ("su",)
ROOT_MARKER_SUBSTRINGS = (
    "/system/xbin/su",
    "/system/bin/su",
    "test-keys",
    "superuser",
)
# The same markers as the ASCII bytes that _string_marker searches the string data for.
_ROOT_EXACT = tuple(m.encode("ascii") for m in ROOT_MARKER_EXACT)
_ROOT_CONTAINED = tuple(m.encode("ascii") for m in ROOT_MARKER_SUBSTRINGS)


class RuleId(enum.Enum):
    R01 = "R01"  # implicit intent used to start a service
    R02 = "R02"  # intent-filter without an action
    R03 = "R03"  # exported content provider without permission
    R04 = "R04"  # WebView addJavascriptInterface
    R05 = "R05"  # IMEI / device id collection
    R06 = "R06"  # permission declared at normal/default protection
    R07 = "R07"  # WebView local file system access
    R08 = "R08"  # WebView JavaScript enabled
    R09 = "R09"  # no root / system privilege check
    R10 = "R10"  # ADB backup allowed
    R11 = "R11"  # unsafe file deleting
    R12 = "R12"  # no package signature check
    R13 = "R13"  # screenshot capture not blocked
    R14 = "R14"  # no APK installer source check

    # Members are singletons compared by identity, so the identity hash keeps
    # dict and set semantics and skips Enum.__hash__'s Python-level call.
    __hash__ = object.__hash__


_RULE_ORDER: tuple[RuleId, ...] = tuple(RuleId)
RULE_COUNT = len(_RULE_ORDER)


class Severity(enum.Enum):
    CRITICAL = "critical"
    WARNING = "warning"
    NOTICE = "notice"
    INFO = "info"

    __hash__ = object.__hash__  # as for RuleId

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]


_SEVERITY_RANK: dict[Severity, int] = {
    Severity.CRITICAL: 3, Severity.WARNING: 2, Severity.NOTICE: 1, Severity.INFO: 0,
}


class Rule(NamedTuple):
    """One rule's row in ``RULES``. ``evidence`` gives one tuple of lines per finding, ``[]`` if the rule holds."""

    title: str
    severity: Severity
    category: str
    evidence: Callable[[ScanInput], list[tuple[str, ...]]]


# The code rules' call targets: method name -> (owner, shorty, target key),
# where None matches any owner or shorty. _dex_facts resolves them once
# per DEX; names sharing a key have their sites merged in body order.
CODE_TARGETS: dict[str, tuple[str | None, str | None, str]] = {
    "<init>": ("Landroid/content/Intent;", "VL", "Intent(action)"),  # R01
    "startService": (None, None, "service start"),  # R01
    "bindService": (None, None, "service start"),  # R01
    "addJavascriptInterface": ("Landroid/webkit/WebView;", None, "WebView.addJavascriptInterface"),  # R04
    "getDeviceId": ("Landroid/telephony/TelephonyManager;", None, "TelephonyManager.getDeviceId"),  # R05
    "setAllowFileAccess": ("Landroid/webkit/WebSettings;", None, "WebSettings.setAllowFileAccess"),  # R07
    "setJavaScriptEnabled": ("Landroid/webkit/WebSettings;", None, "WebSettings.setJavaScriptEnabled"),  # R08
    "exec": ("Ljava/lang/Runtime;", None, "Runtime.exec"),  # R09
    "delete": ("Ljava/io/File;", None, "File.delete"),  # R11
    "getPackageInfo": (None, None, "getPackageInfo"),  # R12
    "setFlags": ("Landroid/view/Window;", None, "Window flags"),  # R13
    "addFlags": ("Landroid/view/Window;", None, "Window flags"),  # R13
    "getInstallerPackageName": (
        "Landroid/content/pm/PackageManager;", None, "PackageManager.getInstallerPackageName"
    ),  # R14
}
_NAME = itemgetter(1)  # MethodRef.name
_LITERAL_KEYS = ("WebSettings.setAllowFileAccess", "WebSettings.setJavaScriptEnabled", "Window flags")  # R07, R08, R13

# The facts _dex_facts adds to the call targets, by key, each with the
# value that set it. "root marker": a ROOT_MARKER_EXACT string of the DEX,
# else a ROOT_MARKER_SUBSTRINGS one inside one of its strings. "Signature type":
# the type Landroid/content/pm/Signature;. "webkit type": the first
# Landroid/webkit/ type, which R07 quotes. "<key> literals", per _LITERAL_KEYS
# key with sites: (site, literal reaching it) per call, in _sites order.
# "FLAG_SECURE": the first "Window flags" site whose literal is FLAG_SECURE.


class Finding(NamedTuple):
    rule: RuleId
    evidence: tuple[str, ...]


class ScanInput(NamedTuple):
    """What the rules read: the manifest model, at least one parsed DEX and their fact table.

    ``facts`` is ``resolve_facts(dexes)``; it has no default, so a hand-built
    input cannot leave the code rules without facts. Its DEX images and its
    fact table are unhashable, so it is too.
    """

    manifest: ManifestModel
    dexes: tuple[DexImage, ...]
    apk_name: str
    facts: dict[str, list[tuple[DexImage, Any]]]


def resolve_facts(dexes: tuple[DexImage, ...]) -> dict[str, list[tuple[DexImage, Any]]]:
    """For each fact some DEX holds, ``(dex, value)`` per DEX that holds it, in DEX order.

    A call target's value is its invoked method indices; see ``_dex_facts``.
    """
    if not dexes:
        raise ValueError("scan input needs at least one DEX image")
    resolved: dict[str, list[tuple[DexImage, Any]]] = {}
    for dex in dexes:
        for key, value in _dex_facts(dex).items():
            resolved.setdefault(key, []).append((dex, value))
    return resolved


def _dex_facts(dex: DexImage) -> dict[str, Any]:
    """The facts ``dex`` holds: each invoked target's method indices, ascending, then the DEX-level facts."""
    refs = dex.method_refs
    invoked = dex.invokes.methods  # one character per invoke: chr of the method index it names
    found: dict[str, Any] = {}
    for i in compress(count(), map(CODE_TARGETS.__contains__, map(_NAME, refs))):
        ref = refs[i]
        owner, shorty, key = CODE_TARGETS[ref.name]
        if (owner is None or owner == ref.owner) and (shorty is None or shorty == ref.shorty) and chr(i) in invoked:
            found.setdefault(key, []).append(i)

    marker = _string_marker(dex, _ROOT_EXACT, _ROOT_CONTAINED)
    if marker is not None:
        found["root marker"] = marker.decode("ascii")
    types = dex.type_names
    if "Landroid/content/pm/Signature;" in types:
        found["Signature type"] = "Landroid/content/pm/Signature;"
    webkit = next((t for t in types if t.startswith("Landroid/webkit/")), None)
    if webkit is not None:
        found["webkit type"] = webkit
    sites = _sites_of(dex, [i for key in _LITERAL_KEYS for i in found.get(key, ())])
    for site, literal in zip(sites, _literals_reaching(dex, sites)):
        key = CODE_TARGETS[site[2].name][2]
        found.setdefault(key + " literals", []).append((site, literal))
        if literal == FLAG_SECURE and key == "Window flags":
            found.setdefault("FLAG_SECURE", site)
    return found


class ScanResult(NamedTuple):
    apk_name: str
    findings: tuple[Finding, ...]
    rule_vector: tuple[bool, ...]


def _sites(inp: ScanInput, key: str) -> list[tuple[DexImage, _Site]]:
    """``(dex, site)`` for every call to a target: DEX order, then body, then offset."""
    return [(dex, site) for dex, indices in inp.facts.get(key, ()) for site in _sites_of(dex, indices)]


def _sites_with_literal(inp: ScanInput, key: str, literal: int) -> list[tuple[DexImage, _Site]]:
    """``(dex, site)`` for every call to an R07, R08 or R13 target that ``literal`` reaches, in ``_sites`` order."""
    return [(dex, site) for dex, pairs in inp.facts.get(key + " literals", ()) for site, lit in pairs if lit == literal]


def _call_lines(sites: list[tuple[DexImage, _Site]], suffix: str = "") -> list[tuple[str, ...]]:
    """One finding's evidence per ``(dex, site)``: the one line that names the call."""
    return [
        (f"{dex.source_name}: {owner}->{name} +0x{offset:04x} calls {callee.owner}->{callee.name}{suffix}",)
        for dex, (owner, name, callee, offset, _) in sites
    ]


def _calls(key: str) -> Callable[[ScanInput], list[tuple[str, ...]]]:
    """A presence rule with one finding per call to the target ``key``."""
    return lambda inp: _call_lines(_sites(inp, key))


def _calls_with_one(key: str) -> Callable[[ScanInput], list[tuple[str, ...]]]:
    """A presence rule with one finding per call to the target ``key`` that the literal 1 reaches."""
    return lambda inp: _call_lines(_sites_with_literal(inp, key, 1), " with literal 1")


def _absent(keys: tuple[str, ...], searched: str) -> Callable[[ScanInput], list[tuple[str, ...]]]:
    """An absence rule: no finding when any fact in ``keys`` is held, else one naming the search."""
    def evidence(inp: ScanInput) -> list[tuple[str, ...]]:
        if not inp.facts.keys().isdisjoint(keys):
            return []
        return [(f"absence: {searched} across {len(inp.dexes)} dex file(s)",)]
    return evidence


# --- manifest rules --------------------------------------------------------


def _r02_intent_filter(inp: ScanInput) -> list[tuple[str, ...]]:
    evidence = []
    for comp in inp.manifest.components:
        for i, actions in enumerate(comp.intent_filters):
            if not actions:
                evidence.append((f"manifest: application/{comp.kind}[{comp.name}]/intent-filter[{i}] has no action",))
    return evidence


def _r03_provider(inp: ScanInput) -> list[tuple[str, ...]]:
    evidence = []
    for comp in inp.manifest.components:
        if comp.kind == "provider" and effective_exported(comp, inp.manifest.target_sdk) and comp.permission is None:
            evidence.append((f"manifest: application/provider[{comp.name}] exported without permission",))
    return evidence


def _r06_permission(inp: ScanInput) -> list[tuple[str, ...]]:
    evidence = []
    for perm in inp.manifest.declared_permissions:
        if perm.protection_level in ("normal", "unset"):
            evidence.append((f"manifest: permission[{perm.name}] protectionLevel={perm.protection_level}",))
    return evidence


def _r10_backup(inp: ScanInput) -> list[tuple[str, ...]]:
    allow = inp.manifest.allow_backup
    state = "true" if allow else "unset (defaults to true)"
    return [] if allow is False else [(f"manifest: application allowBackup={state}",)]


# --- code presence rules ---------------------------------------------------


def _r01_implicit_service(inp: ScanInput) -> list[tuple[str, ...]]:
    # Method-local co-occurrence of an Intent(action-string) constructor and a
    # startService/bindService call. Shorty VL means one reference argument,
    # which covers the action-string constructor (and over-approximates the
    # copy constructor); the two-argument explicit form is VLL and never hits.
    # Sites come in DEX, then body order, so the first one seen per body (keyed
    # by its DEX and ordinal) is its first constructor call.
    first_ctor: dict[tuple[int, int], int] = {}
    for dex, (_, _, _, offset, place) in _sites(inp, "Intent(action)"):
        first_ctor.setdefault((id(dex), place), offset)
    if not first_ctor:  # the usual case: skip the start-site query
        return []
    starts: dict[tuple[int, int], list[tuple[DexImage, _Site]]] = {}
    for dex, site in _sites(inp, "service start"):
        if (id(dex), site[4]) in first_ctor:
            starts.setdefault((id(dex), site[4]), []).append((dex, site))
    return [
        tuple(
            f"{dex.source_name}: {owner}->{name} +0x{offset:04x} "
            f"calls {callee.owner}->{callee.name} with implicit Intent "
            f"(action-string constructor at +0x{first_ctor[body]:04x})"
            for dex, (owner, name, callee, offset, _) in sites
        )
        for body, sites in starts.items()
    ]


def _r07_file_access(inp: ScanInput) -> list[tuple[str, ...]]:
    fired = _sites_with_literal(inp, "WebSettings.setAllowFileAccess", 1)
    if fired:
        return _call_lines(fired, " with literal 1")
    # File access is on by default: a WebView in use without an explicit
    # setAllowFileAccess(false) anywhere leaves it enabled.
    if _sites_with_literal(inp, "WebSettings.setAllowFileAccess", 0) or "webkit type" not in inp.facts:
        return []
    dex, webkit = inp.facts["webkit type"][0]
    default_on = "never calls setAllowFileAccess(false); file access is enabled by default"
    return [(f"{dex.source_name}: references type {webkit} and {default_on}",)]


RULES: dict[RuleId, Rule] = {
    RuleId.R01: Rule("Implicit intent for service", Severity.CRITICAL, "Intent", _r01_implicit_service),
    RuleId.R02: Rule("Misconfiguration of intent-filters", Severity.CRITICAL, "Manifest", _r02_intent_filter),
    RuleId.R03: Rule(
        "Content Provider access from other apps on the device", Severity.CRITICAL, "Manifest", _r03_provider
    ),
    RuleId.R04: Rule("Remote code execution", Severity.CRITICAL, "WebView", _calls("WebView.addJavascriptInterface")),
    RuleId.R05: Rule("Getting IMEI and Device ID", Severity.WARNING, "Privacy", _calls("TelephonyManager.getDeviceId")),
    RuleId.R06: Rule("Normal protection-level of permission", Severity.CRITICAL, "Manifest", _r06_permission),
    RuleId.R07: Rule("Local file system access", Severity.WARNING, "WebView", _r07_file_access),
    RuleId.R08: Rule(
        "Webview JavaScript enabled", Severity.WARNING, "WebView", _calls_with_one("WebSettings.setJavaScriptEnabled")
    ),
    RuleId.R09: Rule(
        "Not executing 'root' or system privilege checks", Severity.NOTICE, "Platform integrity",
        _absent(
            ("Runtime.exec", "root marker"),
            f"no root-detection marker ({', '.join(ROOT_MARKER_EXACT + ROOT_MARKER_SUBSTRINGS)}) "
            "in any string pool and no Runtime.exec call",
        ),
    ),
    RuleId.R10: Rule("ADB backup", Severity.WARNING, "Storage", _r10_backup),
    RuleId.R11: Rule("File unsafe deleting", Severity.NOTICE, "Storage", _calls("File.delete")),
    RuleId.R12: Rule(
        "Not checking Package signature code", Severity.NOTICE, "Tamper detection",
        _absent(
            ("getPackageInfo", "Signature type"),
            "no reference to Landroid/content/pm/Signature; and no getPackageInfo call",
        ),
    ),
    RuleId.R13: Rule(
        "Allowing screenshot capturing", Severity.NOTICE, "Screen capture",
        _absent(("FLAG_SECURE",), "no Window.setFlags/addFlags call with FLAG_SECURE (0x2000)"),
    ),
    RuleId.R14: Rule(
        "Not checking APK installer sources", Severity.NOTICE, "Install source",
        _absent(("PackageManager.getInstallerPackageName",), "no PackageManager.getInstallerPackageName call"),
    ),
}

# Kept by name: the report module's matrix writers read it, and so does the
# benchmark's output check (perfbench/workloads.py), to map printed titles back to rules.
RULE_TITLES: dict[RuleId, str] = {rule: row.title for rule, row in RULES.items()}


def evaluate_rule(rule: RuleId, scan_input: ScanInput) -> list[Finding]:
    """Run one rule; empty list means not vulnerable."""
    evidence = RULES[rule].evidence(scan_input)
    if not evidence:  # the usual case on most apps: build nothing
        return evidence
    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    return [make(Finding, (rule, lines)) for lines in evidence]


def run_all_rules(scan_input: ScanInput) -> ScanResult:
    """Run all fourteen rules in rule order and fold the boolean vector."""
    findings: list[Finding] = []
    vector = []
    for rule in _RULE_ORDER:
        # Through the module global: perfbench's tracer rebinds it to time each rule.
        rule_findings = evaluate_rule(rule, scan_input)
        findings.extend(rule_findings)
        vector.append(bool(rule_findings))
    return ScanResult(scan_input.apk_name, tuple(findings), tuple(vector))
