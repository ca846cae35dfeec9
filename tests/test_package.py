"""The package's public names: adding or removing one is a deliberate change."""

import bankscan

PUBLIC_API = [
    "ApkArchive",
    "ApkError",
    "AxmlDocument",
    "AxmlError",
    "DexError",
    "DexImage",
    "Finding",
    "FleetMatrix",
    "ManifestModel",
    "Report",
    "RuleId",
    "ScanInput",
    "ScanResult",
    "Severity",
    "build_fleet_matrix",
    "build_manifest_model",
    "decode_axml",
    "dex_entry_names",
    "evaluate_rule",
    "load_apk",
    "load_knowledge_base",
    "open_apk",
    "parse_dex",
    "read_entry",
    "render_report",
    "run_all_rules",
    "scan_bytes",
    "serialize",
]


def test_public_api_is_pinned():
    assert sorted(bankscan.__all__) == PUBLIC_API
    for name in PUBLIC_API:
        getattr(bankscan, name)
