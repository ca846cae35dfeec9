"""Rule-by-rule behavior at the engine level, with hand-built inputs."""

import struct
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_dex import _multidex_images, invocations_of, invocations_where, position, string_pool

from bankscan import dex as dex_module
from bankscan import rules as rules_module
from bankscan import scanner as scanner_module
from bankscan.dex import DexImage, parse_dex
from bankscan.fixtures import (
    MethodSketch,
    build_dex,
    build_manifest_bytes,
    emit_dex,
    fleet_profiles,
    pack_apk,
    rule_oracle_corpus,
)
from bankscan.fixtures.dex_writer import _uleb
from bankscan.fixtures.profiles import (
    CONTEXT,
    INTENT,
    JFILE,
    PKG_MANAGER,
    STRING,
    TELEPHONY,
    WEBSETTINGS,
    WEBVIEW,
    WINDOW,
    CodeKnobs,
    method_sketches,
)
from bankscan.manifest import ComponentDecl, ManifestModel, PermissionDecl
from bankscan.rules import (
    CODE_TARGETS,
    RULES,
    Finding,
    RuleId,
    ScanInput,
    Severity,
    evaluate_rule,
    resolve_facts,
    run_all_rules,
)
from bankscan.scanner import scan_bytes

ABSENCE_RULES = {RuleId.R09, RuleId.R12, RuleId.R13, RuleId.R14}


def make_manifest(
    components=(),
    permissions=(),
    allow_backup=False,
    target_sdk=28,
) -> ManifestModel:
    return ManifestModel(
        package_name="test.app",
        target_sdk=target_sdk,
        allow_backup=allow_backup,
        components=tuple(components),
        declared_permissions=tuple(permissions),
    )


def make_input(sketches=None, manifest=None, extra_dexes=()) -> ScanInput:
    sketches = sketches if sketches is not None else [MethodSketch("noop", [("return-void",)])]
    dex = parse_dex(emit_dex("Ltest/app/Code;", sketches).data)
    dexes = (dex, *extra_dexes)
    return ScanInput(manifest or make_manifest(), dexes, "test.apk", resolve_facts(dexes))


def provider(exported=None, permission=None, filters=()):
    return ComponentDecl(
        kind="provider", name="test.app.P", exported=exported, permission=permission,
        intent_filters=tuple(filters),
    )


# --- R01 ---------------------------------------------------------------------


def _service_start(ctor_proto, include_start=True, include_ctor=True):
    ins = [("new-instance", 0, INTENT)]
    if include_ctor:
        if ctor_proto[1]:
            ins.append(("const-string", 1, "test.ACTION"))
            ins.append(("invoke-direct", [0, 1], (INTENT, "<init>", ctor_proto)))
        else:
            ins.append(("invoke-direct", [0], (INTENT, "<init>", ctor_proto)))
    if include_start:
        ins.append(
            ("invoke-virtual", [2, 0], (CONTEXT, "startService", ("Landroid/content/ComponentName;", (INTENT,))))
        )
    ins.append(("return-void",))
    return MethodSketch("launch", ins)


def test_r01_flags_action_string_constructor_with_start():
    inp = make_input([_service_start(("V", (STRING,)))])
    findings = evaluate_rule(RuleId.R01, inp)
    assert len(findings) == 1
    assert RULES[findings[0].rule].severity == Severity.CRITICAL


def test_r01_ignores_explicit_two_arg_constructor():
    explicit = ("V", (CONTEXT, "Ljava/lang/Class;"))
    sketch = MethodSketch(
        "launch",
        [
            ("new-instance", 0, INTENT),
            ("invoke-direct", [0, 1, 2], (INTENT, "<init>", explicit)),
            ("invoke-virtual", [3, 0], (CONTEXT, "startService", ("Landroid/content/ComponentName;", (INTENT,)))),
            ("return-void",),
        ],
    )
    assert evaluate_rule(RuleId.R01, make_input([sketch])) == []


def test_r01_ignores_no_arg_constructor():
    assert evaluate_rule(RuleId.R01, make_input([_service_start(("V", ()))])) == []


def test_r01_needs_both_halves():
    assert evaluate_rule(RuleId.R01, make_input([_service_start(("V", (STRING,)), include_start=False)])) == []
    sketch = MethodSketch(
        "launch",
        [
            ("invoke-virtual", [2, 0], (CONTEXT, "startService", ("Landroid/content/ComponentName;", (INTENT,)))),
            ("return-void",),
        ],
    )
    assert evaluate_rule(RuleId.R01, make_input([sketch])) == []


def test_r01_bind_service_counts():
    sketch = MethodSketch(
        "launch",
        [
            ("new-instance", 0, INTENT),
            ("const-string", 1, "test.ACTION"),
            ("invoke-direct", [0, 1], (INTENT, "<init>", ("V", (STRING,)))),
            ("invoke-virtual", [2, 0, 3], (CONTEXT, "bindService", ("Z", (INTENT, "Landroid/content/ServiceConnection;")))),
            ("return-void",),
        ],
    )
    assert len(evaluate_rule(RuleId.R01, make_input([sketch]))) == 1


def _r01_by_walk(inp):
    """Reference for R01: the per-body instruction walk the rule replaced."""
    evidence_sets = []
    for dex in inp.dexes:
        for body in dex.bodies():
            ctors, starts = [], []
            for ins in body.instructions:
                if ins.method_index is None:
                    continue
                ref = dex.method_ref(ins.method_index)
                if (ref.owner, ref.name, ref.shorty) == (INTENT, "<init>", "VL"):
                    ctors.append(ins.offset)
                elif ref.name in ("startService", "bindService"):
                    starts.append((ins.offset, ref))
            if ctors and starts:
                evidence_sets.append(
                    tuple(
                        f"{dex.source_name}: {body.owner}->{body.name} +0x{off:04x} "
                        f"calls {ref.owner}->{ref.name} with implicit Intent "
                        f"(action-string constructor at +0x{ctors[0]:04x})"
                        for off, ref in starts
                    )
                )
    return evidence_sets


def test_r01_evidence_matches_instruction_walk():
    start = (CONTEXT, "startService", ("Landroid/content/ComponentName;", (INTENT,)))
    bind = (CONTEXT, "bindService", ("Z", (INTENT, "Landroid/content/ServiceConnection;")))
    other_start = ("Landroid/app/Activity;", "startService", ("Landroid/content/ComponentName;", (INTENT,)))
    ctor = (INTENT, "<init>", ("V", (STRING,)))
    sketches = [
        MethodSketch(
            "many",
            [
                ("invoke-virtual", [2, 0, 3], bind),
                ("const-string", 1, "test.ACTION"),
                ("invoke-direct", [0, 1], ctor),
                ("invoke-virtual", [2, 0], other_start),
                ("invoke-direct", [0, 1], ctor),
                ("invoke-virtual", [2, 0], start),
                ("invoke-virtual", [2, 0, 3], bind),
                ("return-void",),
            ],
        ),
        MethodSketch("startOnly", [("invoke-virtual", [2, 0], start), ("return-void",)]),
        _service_start(("V", (STRING,))),
    ]
    second = parse_dex(
        emit_dex("Ltest/app/Second;", [_service_start(("V", (STRING,)))]).data, source_name="classes2.dex"
    )
    inp = make_input(sketches, extra_dexes=(second,))
    findings = evaluate_rule(RuleId.R01, inp)
    assert [f.evidence for f in findings] == _r01_by_walk(inp)
    assert [len(f.evidence) for f in findings] == [1, 4, 1]  # launch, many; then classes2.dex


def test_r01_keys_bodies_by_dex_and_ordinal():
    # Each DEX holds a body with only one half at ordinal 0 (build, begin) and
    # a launch body with both at ordinal 1; the halves at ordinal 0 do not pair.
    bind = (CONTEXT, "bindService", ("Z", (INTENT, "Landroid/content/ServiceConnection;")))
    build = MethodSketch("build", _service_start(("V", (STRING,)), include_start=False).instructions)
    first = [build, _service_start(("V", (STRING,)))]
    begin = MethodSketch("begin", [("invoke-virtual", [2, 0, 3], bind), ("return-void",)])
    launch = MethodSketch(
        "launch",
        [
            ("const-string", 1, "test.ACTION"),
            ("invoke-direct", [0, 1], (INTENT, "<init>", ("V", (STRING,)))),
            ("invoke-virtual", [2, 0, 3], bind),
            ("invoke-virtual", [2, 0, 3], bind),
            ("return-void",),
        ],
    )
    second = parse_dex(emit_dex("Ltest/app/Second;", [begin, launch]).data, source_name="classes2.dex")
    inp = make_input(first, extra_dexes=(second,))
    assert [place for _, (_, _, _, _, place) in rules_module._sites(inp, "Intent(action)")] == [0, 1, 1]
    assert [place for _, (_, _, _, _, place) in rules_module._sites(inp, "service start")] == [1, 0, 1, 1]
    implicit = "with implicit Intent (action-string constructor at"
    assert [f.evidence for f in evaluate_rule(RuleId.R01, inp)] == [
        (f"classes.dex: Ltest/app/Code;->launch +0x000e calls {CONTEXT}->startService {implicit} +0x0008)",),
        (
            f"classes2.dex: Ltest/app/Second;->launch +0x000a calls {CONTEXT}->bindService {implicit} +0x0004)",
            f"classes2.dex: Ltest/app/Second;->launch +0x0010 calls {CONTEXT}->bindService {implicit} +0x0004)",
        ),
    ]
    assert [f.evidence for f in evaluate_rule(RuleId.R01, inp)] == _r01_by_walk(inp)


def test_r01_cross_method_does_not_fire():
    ctor_only = _service_start(("V", (STRING,)), include_start=False)
    start_only = MethodSketch(
        "elsewhere",
        [
            ("invoke-virtual", [2, 0], (CONTEXT, "startService", ("Landroid/content/ComponentName;", (INTENT,)))),
            ("return-void",),
        ],
    )
    assert evaluate_rule(RuleId.R01, make_input([ctor_only, start_only])) == []


# --- R02 / R03 / R06 / R10 (manifest) ---------------------------------------


def test_r02_empty_actions_flagged_per_filter():
    comp = ComponentDecl(
        kind="receiver", name="test.app.R", exported=None, permission=None,
        intent_filters=((), ("android.intent.action.BOOT_COMPLETED",), ()),
    )
    findings = evaluate_rule(RuleId.R02, make_input(manifest=make_manifest([comp])))
    assert len(findings) == 2


def test_r03_exported_provider_without_permission():
    inp = make_input(manifest=make_manifest([provider(exported=True)]))
    assert len(evaluate_rule(RuleId.R03, inp)) == 1


def test_r03_permission_or_private_suppresses():
    assert evaluate_rule(
        RuleId.R03, make_input(manifest=make_manifest([provider(exported=True, permission="p")]))
    ) == []
    assert evaluate_rule(
        RuleId.R03, make_input(manifest=make_manifest([provider(exported=False)]))
    ) == []


def test_r03_default_export_depends_on_target_sdk():
    low = make_manifest([provider()], target_sdk=16)
    high = make_manifest([provider()], target_sdk=28)
    absent = make_manifest([provider()], target_sdk=None)
    assert len(evaluate_rule(RuleId.R03, make_input(manifest=low))) == 1
    assert evaluate_rule(RuleId.R03, make_input(manifest=high)) == []
    assert len(evaluate_rule(RuleId.R03, make_input(manifest=absent))) == 1


def test_r06_normal_and_unset_protection():
    for level, expect in (("normal", 1), ("unset", 1), ("dangerous", 0), ("signature", 0), ("signatureOrSystem", 0)):
        manifest = make_manifest(permissions=[PermissionDecl("test.P", level)])
        assert len(evaluate_rule(RuleId.R06, make_input(manifest=manifest))) == expect, level


def test_r10_backup_tri_state():
    assert len(evaluate_rule(RuleId.R10, make_input(manifest=make_manifest(allow_backup=True)))) == 1
    assert len(evaluate_rule(RuleId.R10, make_input(manifest=make_manifest(allow_backup=None)))) == 1
    assert evaluate_rule(RuleId.R10, make_input(manifest=make_manifest(allow_backup=False))) == []


# --- R04 / R05 / R11 (spec examples live mostly in fixtures tests) ----------


def test_r04_example_fixture_yields_one_critical():
    inp = make_input(method_sketches(CodeKnobs(add_javascript_interface=True, set_allow_file_access=False)))
    findings = evaluate_rule(RuleId.R04, inp)
    assert len(findings) == 1
    assert RULES[findings[0].rule].severity == Severity.CRITICAL
    assert "addJavascriptInterface" in findings[0].evidence[0]


def test_r05_and_r11_presence():
    inp = make_input(method_sketches(CodeKnobs(get_device_id=True, file_delete=True)))
    assert len(evaluate_rule(RuleId.R05, inp)) == 1
    assert len(evaluate_rule(RuleId.R11, inp)) == 1


def test_site_findings_cover_every_dex_in_order():
    # One finding per site, the first DEX's sites first, each naming its own
    # DEX; R08's literal suffix rides on the site that fired.
    delete = ("invoke-virtual", [0], (JFILE, "delete", ("Z", ())))
    second = parse_dex(
        emit_dex(
            "Ltest/app/Second;",
            [MethodSketch("wipe", [delete, delete, ("return-void",)]), _settings_call("setJavaScriptEnabled", 1)],
        ).data,
        source_name="classes2.dex",
    )
    inp = make_input([MethodSketch("wipe", [delete, ("return-void",)])], extra_dexes=(second,))
    r11 = evaluate_rule(RuleId.R11, inp)
    assert [f.evidence[0].split(": ")[0] for f in r11] == ["classes.dex", "classes2.dex", "classes2.dex"]
    assert {(f.rule, len(f.evidence)) for f in r11} == {(RuleId.R11, 1)}
    assert RULES[RuleId.R11][:3] == ("File unsafe deleting", Severity.NOTICE, "Storage")
    [r08] = evaluate_rule(RuleId.R08, inp)
    assert r08.evidence[0].startswith("classes2.dex: Ltest/app/Second;->cfg_setJavaScriptEnabled_1 +0x")
    assert r08.evidence[0].endswith(" calls Landroid/webkit/WebSettings;->setJavaScriptEnabled with literal 1")


# --- R07 / R08 (WebView literals) --------------------------------------------


def _settings_call(name, literal):
    return MethodSketch(
        f"cfg_{name}_{literal}",
        [
            ("const4", 1, literal),
            ("invoke-virtual", [0, 1], (WEBSETTINGS, name, ("V", ("Z",)))),
            ("return-void",),
        ],
    )


def test_r07_explicit_enable_flagged():
    findings = evaluate_rule(RuleId.R07, make_input([_settings_call("setAllowFileAccess", 1)]))
    assert len(findings) == 1
    assert "literal 1" in findings[0].evidence[0]


def test_r07_default_enabled_when_webview_present():
    findings = evaluate_rule(RuleId.R07, make_input([_settings_call("setJavaScriptEnabled", 0)]))
    assert len(findings) == 1
    assert "enabled by default" in findings[0].evidence[0]


def test_r07_disable_suppresses():
    assert evaluate_rule(RuleId.R07, make_input([_settings_call("setAllowFileAccess", 0)])) == []


def test_r07_silent_without_webview():
    assert evaluate_rule(RuleId.R07, make_input()) == []


def _type_refs(*types):
    return MethodSketch("refs", [*(("const-class", i, t) for i, t in enumerate(types)), ("return-void",)])


def test_r07_default_on_evidence_quotes_the_first_webkit_type():
    # The first DEX that references a webkit type, then its first such type in
    # type order (CookieManager sorts before WebView, whatever the code order).
    default_on = " and never calls setAllowFileAccess(false); file access is enabled by default"
    second = parse_dex(
        emit_dex("Ltest/app/Second;", [_type_refs(WEBVIEW, "Landroid/webkit/CookieManager;")]).data,
        source_name="classes2.dex",
    )
    assert not any(t.startswith("Landroid/webkit/") for t in make_input().dexes[0].type_names)
    [finding] = evaluate_rule(RuleId.R07, make_input(extra_dexes=(second,)))
    assert finding.evidence == ("classes2.dex: references type Landroid/webkit/CookieManager;" + default_on,)

    [finding] = evaluate_rule(RuleId.R07, make_input([_type_refs(WEBVIEW)], extra_dexes=(second,)))
    assert finding.evidence == (f"classes.dex: references type {WEBVIEW}" + default_on,)


def test_r08_literal_controls_finding():
    assert len(evaluate_rule(RuleId.R08, make_input([_settings_call("setJavaScriptEnabled", 1)]))) == 1
    assert evaluate_rule(RuleId.R08, make_input([_settings_call("setJavaScriptEnabled", 0)])) == []


def _backscan_input(site_count):
    calls = [
        ((WEBSETTINGS, "setJavaScriptEnabled", ("V", ("Z",))), ("const4", 1, 1)),
        ((WEBSETTINGS, "setAllowFileAccess", ("V", ("Z",))), ("const4", 1, 1)),
        (("Landroid/view/Window;", "addFlags", ("V", ("I",))), ("const16", 1, 0x0080)),
    ]
    return make_input(
        [
            MethodSketch(
                f"cfg{i}_{k}",
                [const, ("invoke-virtual", [0, 1], target), ("return-void",)],
            )
            for i in range(site_count)
            for k, (target, const) in enumerate(calls)
        ]
    )


def test_backscan_does_not_rescan_bodies_per_site(monkeypatch):
    calls = 0
    original = DexImage.bodies

    def counting_bodies(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(DexImage, "bodies", counting_bodies)
    counts = {}
    for site_count in (1, 50):
        inp = _backscan_input(site_count)
        calls = 0
        assert len(evaluate_rule(RuleId.R07, inp)) == site_count
        assert len(evaluate_rule(RuleId.R08, inp)) == site_count
        assert len(evaluate_rule(RuleId.R13, inp)) == 1  # 0x0080 is not FLAG_SECURE
        counts[site_count] = calls
    assert counts == {1: 0, 50: 0}  # sites come from the invoke columns


def test_backscan_steps_each_body_once_per_call(monkeypatch):
    # One method with 2,000 setJavaScriptEnabled sites, every other one after
    # const/4 1, and one with 2,000 Window.addFlags sites, the last after
    # FLAG_SECURE. Stepping each body from its start per site would take
    # 2,000 body starts; the back-scan resumes from the previous site, and it
    # runs once, as make_input resolves the facts, for R07, R08 and R13 together.
    js = ("invoke-virtual", [0, 1], (WEBSETTINGS, "setJavaScriptEnabled", ("V", ("Z",))))
    flags = ("invoke-virtual", [0, 1], (WINDOW, "addFlags", ("V", ("I",))))
    configure = [ins for k in range(2000) for ins in (("const4", 1, k % 2), js)]
    lock = [ins for k in range(2000) for ins in (("const16", 1, 0x2000 if k == 1999 else 0x80), flags)]
    starts = []
    original = dex_module._scan_steps

    def counting_steps(code):
        starts.append(len(code))
        return original(code)

    monkeypatch.setattr(dex_module, "_scan_steps", counting_steps)
    inp = make_input(
        [MethodSketch("configure", configure + [("return-void",)]), MethodSketch("lock", lock + [("return-void",)])]
    )
    assert "FLAG_SECURE" in inp.facts
    # configure: const/4 and invoke, 8 bytes a pair; lock: const/16 and invoke, 10 bytes a pair.
    assert starts == [2000 * 8 + 2, 2000 * 10 + 2]
    starts.clear()
    findings = evaluate_rule(RuleId.R08, inp)
    assert sum(len(f.evidence) for f in findings) == 1000
    last = f"+0x{1999 * 8 + 2:04x} calls {WEBSETTINGS}->setJavaScriptEnabled with literal 1"
    assert findings[-1].evidence[0] == f"classes.dex: Ltest/app/Code;->configure {last}"
    assert starts == []  # R08 reads its literals from the facts
    assert evaluate_rule(RuleId.R13, inp) == []


def test_backscan_steps_a_body_once_for_r07_r08_and_r13(monkeypatch):
    calls = [
        ("const4", 1, 1),
        ("invoke-virtual", [0, 1], (WEBSETTINGS, "setJavaScriptEnabled", ("V", ("Z",)))),
        ("invoke-virtual", [0, 1], (WEBSETTINGS, "setAllowFileAccess", ("V", ("Z",)))),
        ("const16", 1, 0x2000),
        ("invoke-virtual", [2, 1], (WINDOW, "addFlags", ("V", ("I",)))),
        ("return-void",),
    ]
    starts = []
    original = dex_module._scan_steps

    def counting_steps(code):
        starts.append(len(code))
        return original(code)

    monkeypatch.setattr(dex_module, "_scan_steps", counting_steps)
    inp = make_input([MethodSketch("configure", calls)])
    result = run_all_rules(inp)
    assert starts == [2 + 6 + 6 + 4 + 6 + 2]  # one step table for the one calling body
    fired = {f.rule for f in result.findings}
    assert {RuleId.R07, RuleId.R08} <= fired and RuleId.R13 not in fired
    literals = {key: [lit for _, lit in pairs] for key, [(_, pairs)] in inp.facts.items() if key.endswith(" literals")}
    assert literals == {
        "WebSettings.setJavaScriptEnabled literals": [1],
        "WebSettings.setAllowFileAccess literals": [1],
        "Window flags literals": [0x2000],
    }


def _lookup_rules_input(site_count):
    calls = [
        [
            ("const-string", 1, "test.ACTION"),
            ("invoke-direct", [0, 1], (INTENT, "<init>", ("V", (STRING,)))),
            ("invoke-virtual", [2, 0], (CONTEXT, "startService", ("Landroid/content/ComponentName;", (INTENT,)))),
        ],
        [("invoke-virtual", [0, 2, 1], (WEBVIEW, "addJavascriptInterface", ("V", ("Ljava/lang/Object;", STRING))))],
        [("invoke-virtual", [0], (TELEPHONY, "getDeviceId", (STRING, ())))],
        [("invoke-virtual", [0], (JFILE, "delete", ("Z", ())))],
    ]
    return make_input(
        [
            MethodSketch(f"site{i}_{k}", [*body, ("return-void",)])
            for i in range(site_count)
            for k, body in enumerate(calls)
        ]
    )


def test_rules_answer_from_index_without_walking_bodies(monkeypatch):
    calls = 0
    original = DexImage.bodies

    def counting_bodies(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(DexImage, "bodies", counting_bodies)
    for site_count in (1, 50):
        inp = _lookup_rules_input(site_count)
        for rule in (RuleId.R01, RuleId.R04, RuleId.R05, RuleId.R11):
            assert len(evaluate_rule(rule, inp)) == site_count, rule
        for rule in (RuleId.R09, RuleId.R12, RuleId.R14):
            assert len(evaluate_rule(rule, inp)) == 1, rule
        assert calls == 0, site_count


# --- the resolved target table -----------------------------------------------


def _is_action_intent_ctor(ref):
    return ref.owner == "Landroid/content/Intent;" and ref.name == "<init>" and ref.shorty == "VL"


def _is_service_start(ref):
    return ref.name in ("startService", "bindService")


# The per-DEX query each code rule made before the table, by target key:
# R01's invocations_where predicates as the rule wrote them, or the
# (owner pattern, name) pairs the other rules passed to invocations_of.
OLD_TARGET_QUERIES = {
    "Intent(action)": _is_action_intent_ctor,
    "service start": _is_service_start,
    "WebView.addJavascriptInterface": [(WEBVIEW, "addJavascriptInterface")],
    "TelephonyManager.getDeviceId": [(TELEPHONY, "getDeviceId")],
    "WebSettings.setAllowFileAccess": [(WEBSETTINGS, "setAllowFileAccess")],
    "WebSettings.setJavaScriptEnabled": [(WEBSETTINGS, "setJavaScriptEnabled")],
    "Runtime.exec": [("Ljava/lang/Runtime;", "exec")],
    "File.delete": [(JFILE, "delete")],
    "getPackageInfo": [("*", "getPackageInfo")],
    "Window flags": [(WINDOW, "setFlags"), (WINDOW, "addFlags")],
    "PackageManager.getInstallerPackageName": [(PKG_MANAGER, "getInstallerPackageName")],
}


def _old_sites(dex, query):
    if callable(query):
        return invocations_where(dex, query)
    sites = [site for owner, name in query for site in invocations_of(dex, owner, name)]
    return sorted(sites, key=lambda site: (site.place, position(dex, site)))


def _near_miss_input():
    def call(owner, name, proto):
        return ("invoke-virtual", [0, 1], (owner, name, proto))

    flags = ("V", ("I",))
    first = [
        MethodSketch(
            "mixed",
            [
                call("Lcom/example/Store;", "delete", ("Z", ())),  # not java.io.File
                call(JFILE, "delete", ("Z", ())),
                ("invoke-direct", [0, 1, 2], (INTENT, "<init>", ("V", (STRING, STRING)))),  # shorty VLL
                ("invoke-direct", [0, 1], (INTENT, "<init>", ("V", (STRING,)))),
                call("Landroid/webkit/WebViewClient;", "addJavascriptInterface", ("V", (STRING,))),
                call(WINDOW, "setFlags", ("V", ("I", "I"))),  # called before the lower method index
                call(WINDOW, "addFlags", flags),
                call(WINDOW, "setFlags", ("V", ("I", "I"))),
                call("Lcom/example/Loader;", "getPackageInfo", ("V", ())),  # any owner counts
                call(CONTEXT, "bindService", ("Z", (INTENT,))),
                ("return-void",),
            ],
        ),
        MethodSketch(
            "other",
            [
                call("Landroid/app/Activity;", "startService", ("V", (INTENT,))),
                call(WINDOW, "setFlags", ("V", ("I", "I"))),
                call(WEBVIEW, "addJavascriptInterface", ("V", (STRING,))),
                call("Ljava/lang/Runtime;", "exec", ("Ljava/lang/Process;", (STRING,))),
                ("return-void",),
            ],
        ),
    ]
    wipe = MethodSketch("wipe", [call(JFILE, "delete", ("Z", ())), ("return-void",)])
    second = parse_dex(emit_dex("Ltest/app/Second;", [wipe]).data, source_name="classes2.dex")
    return make_input(first, extra_dexes=(second,))


def _resolution_inputs():
    images = [parse_dex(build_dex(p).data) for p in rule_oracle_corpus() + fleet_profiles()]
    assert len(images) == 34
    single = [ScanInput(make_manifest(), (image,), "t.apk", resolve_facts((image,))) for image in images]
    multidex_dexes = tuple(_multidex_images())
    multidex = ScanInput(make_manifest(), multidex_dexes, "m.apk", resolve_facts(multidex_dexes))
    return [*single, multidex, _near_miss_input()]


def test_resolved_targets_equal_the_old_per_rule_queries():
    assert {key for _, _, key in CODE_TARGETS.values()} == set(OLD_TARGET_QUERIES)
    hits = set()
    for inp in _resolution_inputs():
        for key, query in OLD_TARGET_QUERIES.items():
            # owner, name, callee, offset and ordinal, ordered by ordinal and position
            expected = [(dex, site) for dex in inp.dexes for site in _old_sites(dex, query)]
            assert rules_module._sites(inp, key) == expected, (inp.dexes[0].source_name, key)
            if expected:
                hits.add(key)
        for key in OLD_TARGET_QUERIES.keys() & inp.facts.keys():
            for dex, indices in inp.facts[key]:
                assert indices and indices == sorted(indices), key
    assert hits == set(OLD_TARGET_QUERIES)  # every row was exercised with sites


def test_near_misses_resolve_as_before():
    inp = _near_miss_input()
    callees = {
        key: {(callee.owner, callee.shorty) for _, (_, _, callee, _, _) in rules_module._sites(inp, key)}
        for key in OLD_TARGET_QUERIES
    }
    assert callees["File.delete"] == {(JFILE, "Z")}
    assert callees["Intent(action)"] == {(INTENT, "VL")}
    assert callees["WebView.addJavascriptInterface"] == {(WEBVIEW, "VL")}
    assert callees["getPackageInfo"] == {("Lcom/example/Loader;", "V")}
    assert callees["service start"] == {(CONTEXT, "ZL"), ("Landroid/app/Activity;", "VL")}
    delete_dexes = [dex.source_name for dex, _ in inp.facts["File.delete"]]
    assert delete_dexes == ["classes.dex", "classes2.dex"]
    # Window.addFlags/setFlags sites merge in body order, then position.
    flags = [(site[:2], position(dex, site), site[2].name) for dex, site in rules_module._sites(inp, "Window flags")]
    owner = "Ltest/app/Code;"
    assert flags == [
        ((owner, "mixed"), 5, "setFlags"), ((owner, "mixed"), 6, "addFlags"),
        ((owner, "mixed"), 7, "setFlags"), ((owner, "other"), 1, "setFlags"),
    ]


def test_targets_resolve_once_per_dex_per_scan(monkeypatch):
    # The scan resolves the facts, once per DEX and in DEX order, before any
    # rule runs; run_all_rules and evaluate_rule only read them.
    resolved = []
    original = rules_module._dex_facts

    def counting(dex):
        resolved.append(dex.source_name)
        return original(dex)

    inputs, during_rules = [], []

    def run_rules(scan_input):
        before = len(resolved)
        result = run_all_rules(scan_input)
        inputs.append(scan_input)
        during_rules.append(len(resolved) - before)
        return result

    monkeypatch.setattr(rules_module, "_dex_facts", counting)
    monkeypatch.setattr(scanner_module, "run_all_rules", run_rules)
    every_knob = CodeKnobs(
        implicit_start_service=True, add_javascript_interface=True, get_device_id=True,
        set_javascript_enabled=True, set_allow_file_access=False, root_check_strings=False,
        file_delete=True, signature_check=True, flag_secure=True, installer_check=True,
    )
    sketches = method_sketches(every_knob)
    apk = pack_apk(
        [
            ("AndroidManifest.xml", build_manifest_bytes(fleet_profiles()[0])),
            ("classes.dex", emit_dex("Ltest/app/Code;", sketches).data),
            ("classes2.dex", emit_dex("Ltest/app/Second;", sketches).data),
        ]
    )
    result = scan_bytes(apk, "every.apk")
    assert resolved == ["classes.dex", "classes2.dex"]
    assert during_rules == [0]

    resolved.clear()
    [inp] = inputs
    vector = [bool(evaluate_rule(rule, inp)) for rule in RuleId]
    assert vector == list(run_all_rules(inp).rule_vector) == list(result.rule_vector)
    assert any(vector) and resolved == []


# --- R09 / R12 / R13 / R14 (absence rules) -----------------------------------


def _string_sketch(*texts):
    ins = [("const-string", i, t) for i, t in enumerate(texts)]
    return MethodSketch("strings", [*ins, ("return-void",)])


def test_r09_vulnerable_without_markers():
    findings = evaluate_rule(RuleId.R09, make_input())
    assert len(findings) == 1
    assert findings[0].evidence[0].startswith("absence:")


def test_r09_markers_suppress():
    for marker in ("su", "/system/xbin/su", "/system/bin/su", "test-keys", "superuser"):
        assert evaluate_rule(RuleId.R09, make_input([_string_sketch(marker)])) == [], marker


def test_r09_exact_su_does_not_match_substrings():
    findings = evaluate_rule(RuleId.R09, make_input([_string_sketch("sushi", "result")]))
    assert len(findings) == 1


def test_r09_runtime_exec_suppresses():
    sketch = MethodSketch(
        "probe",
        [
            ("invoke-virtual", [0, 1], ("Ljava/lang/Runtime;", "exec", ("Ljava/lang/Process;", (STRING,)))),
            ("return-void",),
        ],
    )
    assert evaluate_rule(RuleId.R09, make_input([sketch])) == []


def test_r12_markers():
    assert len(evaluate_rule(RuleId.R12, make_input())) == 1
    type_ref_only = MethodSketch(
        "sig", [("const-class", 0, "Landroid/content/pm/Signature;"), ("return-void",)]
    )
    assert evaluate_rule(RuleId.R12, make_input([type_ref_only])) == []
    call_only = MethodSketch(
        "info",
        [
            ("invoke-virtual", [0, 1, 2], (PKG_MANAGER, "getPackageInfo", ("Landroid/content/pm/PackageInfo;", (STRING, "I")))),
            ("return-void",),
        ],
    )
    assert evaluate_rule(RuleId.R12, make_input([call_only])) == []


def test_r13_flag_secure_via_setflags_or_addflags():
    assert len(evaluate_rule(RuleId.R13, make_input())) == 1
    for name, proto in (("addFlags", ("V", ("I",))), ("setFlags", ("V", ("I", "I")))):
        sketch = MethodSketch(
            "lock",
            [
                ("const16", 1, 0x2000),
                ("invoke-virtual", [0, 1], ("Landroid/view/Window;", name, proto)),
                ("return-void",),
            ],
        )
        assert evaluate_rule(RuleId.R13, make_input([sketch])) == [], name


def test_r13_other_flag_value_still_vulnerable():
    sketch = MethodSketch(
        "lock",
        [
            ("const16", 1, 0x0080),
            ("invoke-virtual", [0, 1], ("Landroid/view/Window;", "addFlags", ("V", ("I",)))),
            ("return-void",),
        ],
    )
    assert len(evaluate_rule(RuleId.R13, make_input([sketch]))) == 1


def test_r14_installer_check():
    assert len(evaluate_rule(RuleId.R14, make_input())) == 1
    sketch = MethodSketch(
        "verify",
        [
            ("const-string", 1, "test.app"),
            ("invoke-virtual", [0, 1], (PKG_MANAGER, "getInstallerPackageName", (STRING, (STRING,)))),
            ("return-void",),
        ],
    )
    assert evaluate_rule(RuleId.R14, make_input([sketch])) == []


def test_absence_rules_search_union_of_all_dexes():
    # Each rule's clearing fact is only in classes2.dex; classes.dex holds none.
    clearing = {
        RuleId.R09: _string_sketch("/system/xbin/su"),
        RuleId.R12: MethodSketch("sig", [("const-class", 0, "Landroid/content/pm/Signature;"), ("return-void",)]),
        RuleId.R13: MethodSketch(
            "lock",
            [("const16", 1, 0x2000), ("invoke-virtual", [0, 1], (WINDOW, "addFlags", ("V", ("I",)))), ("return-void",)],
        ),
        RuleId.R14: MethodSketch(
            "verify",
            [("invoke-virtual", [0, 1], (PKG_MANAGER, "getInstallerPackageName", (STRING, (STRING,)))), ("return-void",)],
        ),
    }
    assert set(clearing) == ABSENCE_RULES
    for rule, sketch in clearing.items():
        second = parse_dex(emit_dex("Ltest/app/Second;", [sketch]).data, source_name="classes2.dex")
        assert len(evaluate_rule(rule, make_input())) == 1, rule
        assert evaluate_rule(rule, make_input(extra_dexes=(second,))) == [], rule


def _mutf8(text: str) -> bytes:
    """``text`` as MUTF-8: NUL as C0 80, and a supplementary character as its two surrogates, three bytes each."""
    out = bytearray()
    for char in text:
        if char == "\x00":
            out += b"\xc0\x80"
        else:
            for unit in struct.unpack(f"<{len(char.encode('utf-16-le')) // 2}H", char.encode("utf-16-le")):
                out += chr(unit).encode("utf-8", "surrogatepass")
    return bytes(out)


def _is_string_id(data: bytes, off: int) -> bool:
    """Whether a string id at ``off`` passes parse_dex's checks: a ULEB128 length, then content that a NUL ends."""
    try:
        start = off + dex_module._uleb128(data, off, len(data))[1]
    except dex_module.MalformedUleb128Error:
        return False
    return data.find(b"\x00", start) >= 0


def _string_data_image(items, extra=()):
    """An image whose ``rows.data`` holds ``items`` in order, with a string id per str item and per ``extra`` offset.

    A str item is written as a string_data item: its ULEB128 UTF-16 length,
    its MUTF-8 bytes and a NUL. A bytes item is written as it is and gets no
    id. Each of ``extra`` is an offset into the data, taken modulo its
    length; those that fail parse_dex's string checks are left out.
    """
    data = bytearray()
    ids = []
    for item in items:
        if isinstance(item, str):
            ids.append(len(data))
            data += _uleb(len(item.encode("utf-16-le")) // 2) + _mutf8(item) + b"\x00"
        else:
            data += item
    data = bytes(data)
    ids += [off % len(data) for off in extra if data and _is_string_id(data, off % len(data))]
    return DexImage(tuple(ids), (), dex_module._Methods((), b"", ()), rows=dex_module._Rows(data, (), (), (), ()))


def _root_marker_by_loop(pool):
    """Reference for the root-marker fact: every marker against every pool string, exact markers first."""
    exact = [m for m in rules_module.ROOT_MARKER_EXACT if any(s == m for s in pool)]
    inside = [m for m in rules_module.ROOT_MARKER_SUBSTRINGS if any(m in s for s in pool)]
    return (exact + inside + [None])[0]


# Pool strings built from pieces of the markers, so that a marker appears
# whole, split over two strings, or cut by a NUL inside one string; and bytes
# between the string items built from the same pieces.
_MARKER_PIECES = ["su", "s", "u", "/system/", "xbin/", "bin/", "test-", "keys", "super", "user", "\x00", "x"]
_POOL_STRING = st.lists(st.sampled_from(_MARKER_PIECES + ["\xe9", "\U0001f600"]), max_size=4).map("".join)
_GARBAGE = st.lists(st.sampled_from([p.encode() for p in _MARKER_PIECES] + [b"\x80", b"\xc0\x80"]), min_size=1, max_size=4).map(
    b"".join
)


@settings(max_examples=300, deadline=None)
@example(items=[], extra=[])
@example(items=[""], extra=[])
@example(items=["", ""], extra=[])
@example(items=["s", "u"], extra=[])
@example(items=["su\x00", "\x00su"], extra=[])
@example(items=["/system/xbin/", "su"], extra=[])
@example(items=["test-\x00keys", "super\x00user"], extra=[])
@example(items=["sushi", "(su)|x", "s+u"], extra=[])
@example(items=["su", "x", "su", "sux"], extra=[])
@example(items=["a", "/system/bin/su-superuser", "b"], extra=[])
@example(items=["a", "system/xbin/su" + "x" * 33], extra=[])  # the length byte of 47 is "/"
@example(items=["x" * 128 + "test-keys", "su" + "x" * 200], extra=[])  # two-byte lengths
@example(items=["a", "system/xbin/su" + "x" * 6002], extra=[])  # the second byte of the length of 6,016 is "/"
@example(items=["\xe9xsu"], extra=[1])  # an id whose three-byte length ends right before "su"
@example(items=["a", b"superuser", "superuser"], extra=[])  # a marker between strings, then one at a content start
@example(items=["x" * 200, b"superuser"], extra=[])
@example(items=["asu"], extra=[1])  # an id at "a" in the middle of a string: its text is "su"
@example(items=["x/system/bin/su"], extra=[2])  # an id at "/": its text is "system/bin/su"
@example(items=["\xe9su"], extra=[2])  # an id at the second byte of "\xe9": a two-byte length, its text "u"
@example(items=["x", "superuser", "x"], extra=[3, 3])  # repeated ids
@example(items=["su", "su", "su"], extra=[])
@example(items=["a", b"superuser\x00su\x00/system/bin/su", "b"], extra=[])  # markers between string items
@example(items=["a", b"su\x00", "b"], extra=[])
@example(items=[b"\x00superuser\x00", "x", b"test-keys"], extra=[])  # markers before and after every string
@example(items=["a", b"su\x00"], extra=[])
@given(items=st.lists(st.one_of(_POOL_STRING, _GARBAGE), max_size=8), extra=st.lists(st.integers(0, 1 << 16), max_size=4))
def test_root_marker_fact_agrees_with_loop(items, extra):
    # Empty pools and strings, NULs inside strings, repeated strings, markers
    # that would only match across two strings or that lie between string
    # items, and ids that start inside another string.
    image = _string_data_image(items, extra)
    facts = rules_module._dex_facts(image)
    assert facts.get("root marker") == _root_marker_by_loop(string_pool(image))


@pytest.mark.parametrize("last", ["x", "a superuser"])
def test_root_marker_search_is_linear_over_marker_hits_between_strings(last):
    # 4 MB of "superuser" with no NUL between two strings: every hit lies
    # outside any string. A search that checks each of the 450,000 hits and
    # looks back over the run for its NUL took about a minute.
    image = _string_data_image(["a", b"superuser" * 450_000, "b" * 300, last])
    started = time.perf_counter()
    facts = rules_module._dex_facts(image)
    elapsed = time.perf_counter() - started
    assert facts.get("root marker") == ("superuser" if "superuser" in last else None)
    assert elapsed < 0.25


# --- engine-wide properties ---------------------------------------------------


def test_run_all_rules_vector_consistency(corpus):
    for profile, data in corpus[:8]:
        result = scan_bytes(data, profile.name)
        rules_with_findings = {f.rule for f in result.findings}
        assert sum(result.rule_vector) == len(rules_with_findings)
        for i, rule in enumerate(RuleId):
            assert result.rule_vector[i] == (rule in rules_with_findings)


def _scan_input(data, apk_name):
    """The ``ScanInput`` that ``scan_bytes`` hands to ``run_all_rules``, built by hand."""
    from bankscan.apk import MANIFEST_NAME, dex_entry_names, load_apk, read_entry
    from bankscan.axml import decode_axml
    from bankscan.manifest import build_manifest_model

    archive = load_apk(data)
    manifest = build_manifest_model(decode_axml(read_entry(archive, MANIFEST_NAME)))
    dexes = tuple(parse_dex(read_entry(archive, name), source_name=name) for name in dex_entry_names(archive))
    return ScanInput(manifest, dexes, apk_name, resolve_facts(dexes))


def test_run_all_rules_agrees_with_evaluate_rule_in_rule_order(corpus, fleet):
    assert tuple(RULES) == tuple(RuleId)
    apps = corpus + fleet
    inputs = [_scan_input(data, profile.name) for profile, data in apps]
    assert len(inputs) == 34
    # The hand-built pipeline is the scanner's own.
    assert [run_all_rules(inp) for inp in inputs] == [scan_bytes(data, profile.name) for profile, data in apps]
    for inp in [*inputs, _lookup_rules_input(50)]:
        expected = tuple(finding for rule in RuleId for finding in evaluate_rule(rule, inp))
        assert run_all_rules(inp).findings == expected, inp.apk_name


def test_run_all_rules_deterministic():
    inp = make_input(method_sketches(CodeKnobs(file_delete=True)))
    assert run_all_rules(inp) == run_all_rules(inp)


def test_adding_flagged_method_preserves_findings():
    base_sketches = method_sketches(CodeKnobs(get_device_id=True))
    grown = base_sketches + [
        MethodSketch("extra", [("invoke-virtual", [0], (JFILE, "delete", ("Z", ()))), ("return-void",)])
    ]
    before = run_all_rules(make_input(base_sketches))
    after = run_all_rules(make_input(grown))
    assert {f.rule for f in before.findings} <= {f.rule for f in after.findings}
    assert set(before.findings) <= set(after.findings)


def test_absence_findings_carry_exactly_one_absence_evidence():
    result = run_all_rules(make_input(manifest=make_manifest(allow_backup=None)))
    for finding in result.findings:
        if finding.rule in ABSENCE_RULES:
            assert len(finding.evidence) == 1
            assert finding.evidence[0].startswith("absence:")
        else:
            assert len(finding.evidence) >= 1
            assert not finding.evidence[0].startswith("absence:")


def test_scan_input_requires_dexes():
    with pytest.raises(ValueError) as info:
        ScanInput(manifest=make_manifest(), dexes=(), apk_name="x", facts=resolve_facts(()))
    assert type(info.value) is ValueError
    assert str(info.value) == "scan input needs at least one DEX image"


def test_severity_order_total():
    # The order is rank's alone: severities themselves do not compare.
    assert Severity.CRITICAL.rank > Severity.WARNING.rank > Severity.NOTICE.rank > Severity.INFO.rank
    by_rank = sorted(Severity, key=lambda s: s.rank)
    assert by_rank == [Severity.INFO, Severity.NOTICE, Severity.WARNING, Severity.CRITICAL]
    with pytest.raises(TypeError):
        Severity.INFO < Severity.CRITICAL


def test_severity_does_not_order_against_other_types():
    assert Severity.INFO.__lt__(0) is NotImplemented
    with pytest.raises(TypeError) as info:
        Severity.INFO < 0
    assert str(info.value) == "'<' not supported between instances of 'Severity' and 'int'"
