"""bankscan: offline static-analysis vulnerability scanner for Android APKs.

Checks banking-grade Android packages against fourteen detection rules
covering manifest configuration, WebView hardening, privacy-sensitive API
use, and missing defensive code, then renders per-app reports or a fleet
comparison matrix.
"""

from .apk import ApkArchive, ApkError, dex_entry_names, load_apk, open_apk, read_entry
from .axml import AxmlDocument, AxmlError, decode_axml
from .dex import DexError, DexImage, parse_dex
from .knowledge import load_knowledge_base
from .manifest import ManifestModel, build_manifest_model
from .report import (
    FleetMatrix,
    Report,
    build_fleet_matrix,
    render_report,
    serialize,
)
from .rules import (
    Finding,
    RuleId,
    ScanInput,
    ScanResult,
    Severity,
    evaluate_rule,
    run_all_rules,
)
from .scanner import scan_bytes

__version__ = "0.1.0"

__all__ = [
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
