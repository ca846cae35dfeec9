"""End-to-end scan pipeline: APK bytes in, rule findings out."""

from __future__ import annotations

from .apk import MANIFEST_NAME, dex_entry_names, load_apk, read_entry
from .axml import decode_axml
from .dex import parse_dex
from .manifest import build_manifest_model
from .rules import ScanInput, ScanResult, resolve_facts, run_all_rules


def scan_bytes(data: bytes, apk_name: str) -> ScanResult:
    """Scan in-memory APK bytes under the given display name."""
    archive = load_apk(data)
    manifest = build_manifest_model(decode_axml(read_entry(archive, MANIFEST_NAME)))
    dexes = tuple(
        parse_dex(read_entry(archive, name), source_name=name)
        for name in dex_entry_names(archive)
    )
    return run_all_rules(ScanInput(manifest, dexes, apk_name, resolve_facts(dexes)))

