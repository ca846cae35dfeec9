"""The fourteen banking-app detection rules.

Rules come in two flavors. Presence rules flag a dangerous construct that
was actually found (an API call, a manifest declaration) and carry concrete
evidence locations. Absence rules (R09, R12, R13, R14) flag a missing
defensive construct and carry a single evidence line describing the search
that came up empty; one positive marker anywhere in any DEX suppresses them.

All rules are pure functions of the scan input, so results are
deterministic and the rules could be evaluated in any order or in parallel;
findings are always merged in rule order.

Every code rule reads one per-scan fact table, ``ScanInput.facts``, and
queries the DEX no further. ``CODE_TARGETS`` maps a method name to an owner,
a shorty and a target key, and ``_resolve_facts`` resolves it once per DEX:
one C-level pass over the method refs picks the ones named in the table, and
each of those that matches and is invoked is kept. The same pass settles the
DEX-level facts: a root marker in the string pool, the package Signature
type, the first WebView type and a ``FLAG_SECURE`` window flag. A rule that
needs sites reads them from the DEX's invoke columns for the resolved method
indices. The absence rules are rows of ``ABSENCE_ROWS``: the fact keys that
clear the rule, and the search that came up empty. The first code rule to
ask, R01, pays for the table, so a per-rule trace shows it under R01, R09's
pool search and R13's const back-scan included. The const back-scan is one
batch call for all of R07's or R08's sites, and one per DEX for R13's: it
steps the bytes of each calling body once, however many sites the body
holds, and builds no instruction record.

Known, accepted imprecision: rules scan bundled third-party code exactly
like first-party code, R01 matches on method-local co-occurrence rather
than dataflow, and the const back-scan behind R07/R08/R13 ignores register
targets.
"""

from __future__ import annotations

import enum
import functools
from itertools import compress, count
from operator import itemgetter
from typing import Any, NamedTuple

from .dex import DexImage, InvocationSite, _Frozen, _literals_reaching, _sites_of
from .manifest import ManifestModel

FLAG_SECURE = 0x2000

ROOT_MARKER_EXACT = ("su",)
ROOT_MARKER_SUBSTRINGS = (
    "/system/xbin/su",
    "/system/bin/su",
    "test-keys",
    "superuser",
)


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

    @property
    def index(self) -> int:
        return _RULE_INDEX[self]


_RULE_ORDER: tuple[RuleId, ...] = tuple(RuleId)
_RULE_INDEX: dict[RuleId, int] = {rule: i for i, rule in enumerate(_RULE_ORDER)}
RULE_COUNT = len(_RULE_ORDER)


@functools.total_ordering
class Severity(enum.Enum):
    CRITICAL = "critical"
    WARNING = "warning"
    NOTICE = "notice"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


_SEVERITY_RANK: dict[Severity, int] = {
    Severity.CRITICAL: 3, Severity.WARNING: 2, Severity.NOTICE: 1, Severity.INFO: 0,
}


RULE_TITLES: dict[RuleId, str] = {
    RuleId.R01: "Implicit intent for service",
    RuleId.R02: "Misconfiguration of intent-filters",
    RuleId.R03: "Content Provider access from other apps on the device",
    RuleId.R04: "Remote code execution",
    RuleId.R05: "Getting IMEI and Device ID",
    RuleId.R06: "Normal protection-level of permission",
    RuleId.R07: "Local file system access",
    RuleId.R08: "Webview JavaScript enabled",
    RuleId.R09: "Not executing 'root' or system privilege checks",
    RuleId.R10: "ADB backup",
    RuleId.R11: "File unsafe deleting",
    RuleId.R12: "Not checking Package signature code",
    RuleId.R13: "Allowing screenshot capturing",
    RuleId.R14: "Not checking APK installer sources",
}

RULE_SEVERITIES: dict[RuleId, Severity] = {
    RuleId.R01: Severity.CRITICAL,
    RuleId.R02: Severity.CRITICAL,
    RuleId.R03: Severity.CRITICAL,
    RuleId.R04: Severity.CRITICAL,
    RuleId.R05: Severity.WARNING,
    RuleId.R06: Severity.CRITICAL,
    RuleId.R07: Severity.WARNING,
    RuleId.R08: Severity.WARNING,
    RuleId.R09: Severity.NOTICE,
    RuleId.R10: Severity.WARNING,
    RuleId.R11: Severity.NOTICE,
    RuleId.R12: Severity.NOTICE,
    RuleId.R13: Severity.NOTICE,
    RuleId.R14: Severity.NOTICE,
}

RULE_CATEGORIES: dict[RuleId, str] = {
    RuleId.R01: "Intent",
    RuleId.R02: "Manifest",
    RuleId.R03: "Manifest",
    RuleId.R04: "WebView",
    RuleId.R05: "Privacy",
    RuleId.R06: "Manifest",
    RuleId.R07: "WebView",
    RuleId.R08: "WebView",
    RuleId.R09: "Platform integrity",
    RuleId.R10: "Storage",
    RuleId.R11: "Storage",
    RuleId.R12: "Tamper detection",
    RuleId.R13: "Screen capture",
    RuleId.R14: "Install source",
}


# The code rules' call targets: method name -> (owner, shorty, target key),
# where None matches any owner or shorty. _resolve_facts resolves them once
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

# The DEX-level facts _resolve_facts adds to the call targets, by key, each
# with the value that set it. "root marker": a ROOT_MARKER_EXACT string in the
# pool, else a ROOT_MARKER_SUBSTRINGS one inside a pool string. "Signature
# type": the type Landroid/content/pm/Signature;. "webkit type": the first
# Landroid/webkit/ type, which R07 quotes. "FLAG_SECURE": the first "Window
# flags" site whose reaching literal is FLAG_SECURE.
#
# The absence rules: rule -> (the fact keys any one of which clears it, the
# search that came up empty when none is held).
ABSENCE_ROWS: dict[RuleId, tuple[tuple[str, ...], str]] = {
    RuleId.R09: (
        ("Runtime.exec", "root marker"),
        f"no root-detection marker ({', '.join(ROOT_MARKER_EXACT + ROOT_MARKER_SUBSTRINGS)}) "
        "in any string pool and no Runtime.exec call",
    ),
    RuleId.R12: (
        ("getPackageInfo", "Signature type"),
        "no reference to Landroid/content/pm/Signature; and no getPackageInfo call",
    ),
    RuleId.R13: (("FLAG_SECURE",), "no Window.setFlags/addFlags call with FLAG_SECURE (0x2000)"),
    RuleId.R14: (("PackageManager.getInstallerPackageName",), "no PackageManager.getInstallerPackageName call"),
}


class Finding(NamedTuple):
    rule: RuleId
    severity: Severity
    title: str
    evidence: tuple[str, ...]
    category: str


class ScanInput(_Frozen):
    """What the rules read: the manifest model and at least one parsed DEX."""

    # __dict__ holds what cached_property caches
    __slots__ = ("manifest", "dexes", "apk_name", "__dict__")

    def __init__(self, manifest: ManifestModel, dexes: tuple[DexImage, ...], apk_name: str) -> None:
        if not dexes:
            raise ValueError("scan input needs at least one DEX image")
        put = object.__setattr__
        put(self, "manifest", manifest)
        put(self, "dexes", dexes)
        put(self, "apk_name", apk_name)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(manifest={self.manifest!r}, dexes={self.dexes!r}, apk_name={self.apk_name!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.manifest, self.dexes, self.apk_name) == (other.manifest, other.dexes, other.apk_name)

    def __hash__(self) -> int:
        return hash((self.manifest, self.dexes, self.apk_name))

    def __reduce__(self):
        return type(self), (self.manifest, self.dexes, self.apk_name)

    @functools.cached_property
    def facts(self) -> dict[str, list[tuple[DexImage, Any]]]:
        """For each fact some DEX holds, ``(dex, value)`` per DEX that holds it, in DEX order.

        A call target's value is its invoked method indices; see ``_resolve_facts``.
        """
        resolved: dict[str, list[tuple[DexImage, Any]]] = {}
        for dex in self.dexes:
            for key, value in _resolve_facts(dex).items():
                resolved.setdefault(key, []).append((dex, value))
        return resolved


def _resolve_facts(dex: DexImage) -> dict[str, Any]:
    """The facts ``dex`` holds: each invoked target's method indices, ascending, then the DEX-level facts."""
    refs = dex.method_refs
    invoked = dex.invokes.methods  # one character per invoke: chr of the method index it names
    found: dict[str, Any] = {}
    for i in compress(count(), map(CODE_TARGETS.__contains__, map(_NAME, refs))):
        ref = refs[i]
        owner, shorty, key = CODE_TARGETS[ref.name]
        if (owner is None or owner == ref.owner) and (shorty is None or shorty == ref.shorty) and chr(i) in invoked:
            found.setdefault(key, []).append(i)

    pool = dex.string_pool
    marker = next((m for m in ROOT_MARKER_EXACT if m in pool), None)
    if marker is None:
        # The markers hold no NUL, so one found in the joined pool lies inside
        # one string; joining only distinct strings bounds it by the file size.
        joined = "\x00".join(dict.fromkeys(pool))
        marker = next((m for m in ROOT_MARKER_SUBSTRINGS if m in joined), None)
    if marker is not None:
        found["root marker"] = marker
    types = dex.type_names
    if "Landroid/content/pm/Signature;" in types:
        found["Signature type"] = "Landroid/content/pm/Signature;"
    webkit = next((t for t in types if t.startswith("Landroid/webkit/")), None)
    if webkit is not None:
        found["webkit type"] = webkit
    window_flags = _sites_of(dex, found.get("Window flags", ()))
    literals = _literals_reaching(window_flags)
    secure = next((site for site, literal in zip(window_flags, literals) if literal == FLAG_SECURE), None)
    if secure is not None:
        found["FLAG_SECURE"] = secure
    return found


class ScanResult(NamedTuple):
    apk_name: str
    findings: tuple[Finding, ...]
    rule_vector: tuple[bool, ...]


def _finding(rule: RuleId, evidence: list[str]) -> Finding:
    return Finding(rule, RULE_SEVERITIES[rule], RULE_TITLES[rule], tuple(evidence), RULE_CATEGORIES[rule])


def _site_findings(rule: RuleId, sites: list, suffix: str = "") -> list[Finding]:
    """One finding per ``(dex, site)``, with the rule's constants looked up once."""
    if not sites:  # the usual case on most apps: skip the lookups
        return []
    severity, title, category = RULE_SEVERITIES[rule], RULE_TITLES[rule], RULE_CATEGORIES[rule]
    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    return [
        make(
            Finding,
            (
                rule,
                severity,
                title,
                (
                    f"{dex.source_name}: {site.body.owner}->{site.body.name} +0x{site.offset:04x} "
                    f"calls {site.callee.owner}->{site.callee.name}{suffix}",
                ),
                category,
            ),
        )
        for dex, site in sites
    ]


def _absence(rule: RuleId, inp: ScanInput) -> list[Finding]:
    """An absence rule: no finding when any fact of its row is held, else one naming the search."""
    keys, searched = ABSENCE_ROWS[rule]
    if not inp.facts.keys().isdisjoint(keys):
        return []
    return [_finding(rule, [f"absence: {searched} across {len(inp.dexes)} dex file(s)"])]


def _sites(inp: ScanInput, key: str) -> list[tuple[DexImage, InvocationSite]]:
    """``(dex, site)`` for every call to a target: DEX order, then body, then position."""
    return [(dex, site) for dex, indices in inp.facts.get(key, ()) for site in _sites_of(dex, indices)]


# --- manifest rules --------------------------------------------------------


def _r02_intent_filter(inp: ScanInput) -> list[Finding]:
    findings = []
    for comp in inp.manifest.components:
        for i, filt in enumerate(comp.intent_filters):
            if not filt.actions:
                findings.append(
                    _finding(
                        RuleId.R02,
                        [f"manifest: application/{comp.kind}[{comp.name}]/intent-filter[{i}] has no action"],
                    )
                )
    return findings


def _r03_provider(inp: ScanInput) -> list[Finding]:
    findings = []
    for comp in inp.manifest.components:
        if comp.kind != "provider":
            continue
        if inp.manifest.effective_exported(comp) and comp.permission is None:
            findings.append(
                _finding(
                    RuleId.R03,
                    [f"manifest: application/provider[{comp.name}] exported without permission"],
                )
            )
    return findings


def _r06_permission(inp: ScanInput) -> list[Finding]:
    findings = []
    for perm in inp.manifest.declared_permissions:
        if perm.protection_level in ("normal", "unset"):
            findings.append(
                _finding(
                    RuleId.R06,
                    [f"manifest: permission[{perm.name}] protectionLevel={perm.protection_level}"],
                )
            )
    return findings


def _r10_backup(inp: ScanInput) -> list[Finding]:
    allow = inp.manifest.application.allow_backup
    if allow is False:
        return []
    state = "true" if allow else "unset (defaults to true)"
    return [_finding(RuleId.R10, [f"manifest: application allowBackup={state}"])]


# --- code presence rules ---------------------------------------------------


def _r01_implicit_service(inp: ScanInput) -> list[Finding]:
    # Method-local co-occurrence of an Intent(action-string) constructor and a
    # startService/bindService call. Shorty VL means one reference argument,
    # which covers the action-string constructor (and over-approximates the
    # copy constructor); the two-argument explicit form is VLL and never hits.
    findings = []
    start_targets = {id(dex): indices for dex, indices in inp.facts.get("service start", ())}
    for dex, ctor_targets in inp.facts.get("Intent(action)", ()):
        if id(dex) not in start_targets:
            continue
        # Sites come in body order, so the first one seen per body is its
        # first constructor call and grouped start sites keep body order.
        # Bodies are keyed by identity: they live as long as the image.
        first_ctor: dict[int, int] = {}
        for site in _sites_of(dex, ctor_targets):
            first_ctor.setdefault(id(site.body), site.offset)
        starts: dict[int, list[InvocationSite]] = {}
        for site in _sites_of(dex, start_targets[id(dex)]):
            if id(site.body) in first_ctor:
                starts.setdefault(id(site.body), []).append(site)
        for key, sites in starts.items():
            body = sites[0].body
            evidence = [
                f"{dex.source_name}: {body.owner}->{body.name} +0x{site.offset:04x} "
                f"calls {site.callee.owner}->{site.callee.name} with implicit Intent "
                f"(action-string constructor at +0x{first_ctor[key]:04x})"
                for site in sites
            ]
            findings.append(_finding(RuleId.R01, evidence))
    return findings


def _site_rule(rule: RuleId, key: str, inp: ScanInput) -> list[Finding]:
    """A presence rule with one finding per call to its target."""
    return _site_findings(rule, _sites(inp, key))


def _site_literals(inp: ScanInput, key: str) -> list[tuple[tuple[DexImage, InvocationSite], int | None]]:
    """``((dex, site), literal reaching it)`` for every call to a target, in ``_sites`` order."""
    sites = _sites(inp, key)
    return list(zip(sites, _literals_reaching([site for _, site in sites])))


def _r07_file_access(inp: ScanInput) -> list[Finding]:
    fired = []
    explicit_off = False
    for pair, lit in _site_literals(inp, "WebSettings.setAllowFileAccess"):
        if lit == 1:
            fired.append(pair)
        elif lit == 0:
            explicit_off = True
    findings = _site_findings(RuleId.R07, fired, " with literal 1")
    if findings:
        return findings
    # File access is on by default: a WebView in use without an explicit
    # setAllowFileAccess(false) anywhere leaves it enabled.
    if not explicit_off and "webkit type" in inp.facts:
        dex, webkit = inp.facts["webkit type"][0]
        default_on = "never calls setAllowFileAccess(false); file access is enabled by default"
        findings.append(_finding(RuleId.R07, [f"{dex.source_name}: references type {webkit} and {default_on}"]))
    return findings


def _r08_javascript(inp: ScanInput) -> list[Finding]:
    sites = _site_literals(inp, "WebSettings.setJavaScriptEnabled")
    return _site_findings(RuleId.R08, [pair for pair, lit in sites if lit == 1], " with literal 1")


_EVALUATORS = {
    RuleId.R01: _r01_implicit_service,
    RuleId.R02: _r02_intent_filter,
    RuleId.R03: _r03_provider,
    RuleId.R04: functools.partial(_site_rule, RuleId.R04, "WebView.addJavascriptInterface"),
    RuleId.R05: functools.partial(_site_rule, RuleId.R05, "TelephonyManager.getDeviceId"),
    RuleId.R06: _r06_permission,
    RuleId.R07: _r07_file_access,
    RuleId.R08: _r08_javascript,
    RuleId.R09: functools.partial(_absence, RuleId.R09),
    RuleId.R10: _r10_backup,
    RuleId.R11: functools.partial(_site_rule, RuleId.R11, "File.delete"),
    RuleId.R12: functools.partial(_absence, RuleId.R12),
    RuleId.R13: functools.partial(_absence, RuleId.R13),
    RuleId.R14: functools.partial(_absence, RuleId.R14),
}


def evaluate_rule(rule: RuleId, scan_input: ScanInput) -> list[Finding]:
    """Run one rule; empty list means not vulnerable."""
    return _EVALUATORS[rule](scan_input)


def run_all_rules(scan_input: ScanInput) -> ScanResult:
    """Run all fourteen rules in rule order and fold the boolean vector."""
    findings: list[Finding] = []
    vector = []
    for rule in _RULE_ORDER:
        rule_findings = evaluate_rule(rule, scan_input)
        findings.extend(rule_findings)
        vector.append(bool(rule_findings))
    return ScanResult(scan_input.apk_name, tuple(findings), tuple(vector))
