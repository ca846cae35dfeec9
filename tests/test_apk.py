"""APK container tests. zipfile acts as the independent writer/oracle."""

import gc
import hashlib
import io
import struct
import time
import tracemalloc
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankscan.apk import (
    CrcMismatchError,
    EntryNotFoundError,
    LocalNameMismatchError,
    MissingManifestError,
    NoDexEntriesError,
    NotAZipError,
    TruncatedArchiveError,
    UnsupportedCompressionError,
    dex_entry_names,
    load_apk,
    open_apk,
    read_entry,
)
from bankscan.cli import main
from bankscan.fixtures import pack_apk

MANIFEST_STUB = struct.pack("<HHI", 0x0003, 8, 8)  # just the AXML chunk tag


def make_zip(entries, method=zipfile.ZIP_STORED) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", method) as zf:
        for name, payload in entries:
            zf.writestr(name, payload)
    return buf.getvalue()


def minimal_apk(dex_payload=b"dexdata", method=zipfile.ZIP_STORED) -> bytes:
    return make_zip(
        [("AndroidManifest.xml", MANIFEST_STUB), ("classes.dex", dex_payload)], method
    )


def test_open_apk_lists_entries_matching_zipfile(tmp_path, clean_apk):
    _, data = clean_apk
    path = tmp_path / "clean.apk"
    path.write_bytes(data)
    archive = open_apk(path)

    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        infos = {i.filename: i for i in zf.infolist()}
    assert len(archive.entries) == 2
    assert list(archive.entries) == list(infos)  # by name, in central-directory order
    for name, entry in archive.entries.items():
        assert entry.name == name and archive.entry(name) is entry
        ref = infos[name]
        assert entry.crc32 == ref.CRC
        assert entry.compressed_size == ref.compress_size
        assert entry.uncompressed_size == ref.file_size


def test_open_apk_deterministic(clean_apk):
    _, data = clean_apk
    assert load_apk(data).entries == load_apk(data).entries


def test_empty_file_is_not_a_zip(tmp_path):
    path = tmp_path / "empty.apk"
    path.write_bytes(b"")
    with pytest.raises(NotAZipError):
        open_apk(path)


def test_garbage_is_not_a_zip():
    with pytest.raises(NotAZipError):
        load_apk(b"\x00" * 4096)


def test_missing_manifest():
    data = make_zip([("classes.dex", b"x"), ("res/a.png", b"y")])
    with pytest.raises(MissingManifestError):
        load_apk(data)


def test_no_dex_entries():
    data = make_zip([("AndroidManifest.xml", MANIFEST_STUB)])
    with pytest.raises(NoDexEntriesError):
        load_apk(data)


def test_read_entry_round_trip_stored_and_deflated(clean_apk):
    _, fixture = clean_apk
    manifest = read_entry(load_apk(fixture), "AndroidManifest.xml")
    assert struct.unpack_from("<H", manifest, 0)[0] == 0x0003

    payload = b"payload bytes" * 50
    for method in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
        archive = load_apk(minimal_apk(dex_payload=payload, method=method))
        out = read_entry(archive, "classes.dex")
        assert hashlib.sha256(out).digest() == hashlib.sha256(payload).digest()


def test_read_entry_not_found():
    archive = load_apk(minimal_apk())
    with pytest.raises(EntryNotFoundError, match=r"^no entry named 'nope.txt'$"):
        read_entry(archive, "nope.txt")


def _read_every_entry(entry_count: int):
    """A function that reads every entry of an APK of ``entry_count`` one-byte stored entries and returns its time."""
    names = [f"res/{i}" for i in range(entry_count)]
    entries = [("AndroidManifest.xml", MANIFEST_STUB), ("classes.dex", b"d"), *((name, b"x") for name in names)]
    archive = load_apk(pack_apk(entries))

    def read_all() -> float:
        started = time.perf_counter()
        for name in names:
            read_entry(archive, name)
        return time.perf_counter() - started

    return read_all


def _best_read_times_s(*entry_counts: int, repeats: int = 7) -> list[float]:
    """Best of ``repeats`` times to read every entry, per count.

    The counts take turns within each repeat, so a slow stretch of a shared
    host falls on all of them alike, and the collector is off while timing,
    as in ``timeit``, so a full collection of the rest of the test run's
    objects is not charged to one read.
    """
    readers = [_read_every_entry(count) for count in entry_counts]
    best = [float("inf")] * len(readers)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            best = [min(time_s, read_all()) for time_s, read_all in zip(best, readers)]
    finally:
        if enabled:
            gc.enable()
    return best


def test_reading_every_entry_is_linear_in_the_entry_count():
    # A lookup that scans the entry list makes this quadratic: reading every
    # entry that way took 0.41 s at 4,000 entries and 1.7 s at 8,000.
    small, large = _best_read_times_s(8_000, 16_000)
    assert large < 3 * small
    assert large < 0.5


def test_corrupted_payload_byte_fails_crc():
    payload = b"SENTINELPAYLOAD" * 4
    data = bytearray(minimal_apk(dex_payload=payload))
    at = data.index(b"SENTINELPAYLOAD")
    data[at + 3] ^= 0xFF
    archive = load_apk(bytes(data))
    with pytest.raises(CrcMismatchError):
        read_entry(archive, "classes.dex")


def test_corrupted_deflate_stream_fails_integrity():
    payload = bytes(range(256)) * 16
    data = bytearray(minimal_apk(dex_payload=payload, method=zipfile.ZIP_DEFLATED))
    # flip a byte in the middle of the deflate stream of classes.dex
    local = data.index(b"classes.dex", data.index(b"PK\x03\x04"))
    data[local + len(b"classes.dex") + 40] ^= 0x55
    archive = load_apk(bytes(data))
    with pytest.raises(CrcMismatchError):
        read_entry(archive, "classes.dex")


def _central_record(data, name: bytes) -> int:
    """The offset of ``name``'s central directory record in ``data``."""
    central = data.index(b"PK\x01\x02")
    while data[central + 46 : central + 46 + len(name)] != name:
        central = data.index(b"PK\x01\x02", central + 4)
    return central


def test_an_entry_inflating_past_its_declared_size_fails_before_it_is_inflated():
    data = bytearray(minimal_apk(dex_payload=bytes(20_000_000), method=zipfile.ZIP_DEFLATED))
    struct.pack_into("<I", data, _central_record(data, b"classes.dex") + 24, 4096)  # uncompressed size
    archive = load_apk(bytes(data))
    tracemalloc.start()
    try:
        with pytest.raises(CrcMismatchError) as info:
            read_entry(archive, "classes.dex")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == "entry 'classes.dex': inflates past its declared size 4096"
    assert peak < 1 << 20


@pytest.mark.parametrize("extra", [-3, 4])
def test_a_deflate_stream_is_read_as_zlib_decompress_reads_it(extra):
    # A stream cut short fails with zlib.decompress's own message; bytes after
    # the end of a whole stream are ignored.
    payload = bytes(range(256)) * 16
    data = bytearray(minimal_apk(dex_payload=payload, method=zipfile.ZIP_DEFLATED))
    central = _central_record(data, b"classes.dex")
    (size,) = struct.unpack_from("<I", data, central + 20)
    struct.pack_into("<I", data, central + 20, size + extra)  # compressed size
    archive = load_apk(bytes(data))
    if extra >= 0:
        assert read_entry(archive, "classes.dex") == payload
        return
    start = data.index(b"classes.dex", data.index(b"PK\x03\x04")) + len(b"classes.dex")
    with pytest.raises(zlib.error) as expected:
        zlib.decompress(bytes(data[start : start + size + extra]), wbits=-15)
    with pytest.raises(CrcMismatchError) as info:
        read_entry(archive, "classes.dex")
    assert str(info.value) == f"entry 'classes.dex': corrupt deflate stream: {expected.value}"


def test_unsupported_compression_method():
    data = bytearray(minimal_apk())
    # patch method field (offset 8 in local header, 10 in central entry) of classes.dex
    local = data.index(b"PK\x03\x04", data.index(b"classes.dex") - 64)
    struct.pack_into("<H", data, local + 8, 12)  # bzip2
    central = _central_record(data, b"classes.dex")
    struct.pack_into("<H", data, central + 10, 12)
    archive = load_apk(bytes(data))
    with pytest.raises(UnsupportedCompressionError):
        read_entry(archive, "classes.dex")


def test_encrypted_entry_rejected():
    data = bytearray(minimal_apk())
    central = _central_record(data, b"classes.dex")
    struct.pack_into("<H", data, central + 8, 0x1)  # encryption flag
    archive = load_apk(bytes(data))
    with pytest.raises(UnsupportedCompressionError):
        read_entry(archive, "classes.dex")


def test_truncated_central_directory():
    data = minimal_apk()
    eocd = data.rindex(b"PK\x05\x06")
    mutated = bytearray(data)
    struct.pack_into("<I", mutated, eocd + 16, len(data))  # cd offset past EOCD
    with pytest.raises(TruncatedArchiveError):
        load_apk(bytes(mutated))


def test_duplicate_entry_names_rejected(tmp_path, capsys):
    # Two central records of one name (the "Master Key" shape): which payload
    # a reader takes would depend on the reader, so the archive is refused.
    with pytest.warns(UserWarning, match="Duplicate name"):
        data = pack_apk([("AndroidManifest.xml", MANIFEST_STUB), ("classes.dex", b"a"), ("classes.dex", b"b")])
    with pytest.raises(TruncatedArchiveError, match=r"^duplicate entry name 'classes\.dex'$"):
        load_apk(data)
    path = tmp_path / "twice.apk"
    path.write_bytes(data)
    assert main(["-f", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"bankscan: {path}: TruncatedArchiveError: duplicate entry name 'classes.dex'\n"


@pytest.fixture
def renamed_local_header():
    """A minimal APK whose classes.dex local header names classes.dez; its central record is unchanged."""
    data = bytearray(minimal_apk())
    local = data.index(b"PK\x03\x04")
    while data[local + 30 : local + 41] != b"classes.dex":
        local = data.index(b"PK\x03\x04", local + 4)
    data[local + 40] = ord("z")
    return bytes(data)


def test_local_header_name_must_match_the_central_record(renamed_local_header):
    archive = load_apk(renamed_local_header)
    assert read_entry(archive, "AndroidManifest.xml") == MANIFEST_STUB
    with pytest.raises(LocalNameMismatchError, match=r"^local header of 'classes\.dex' names 'classes\.dez'$"):
        read_entry(archive, "classes.dex")


def test_zipfile_rejects_a_local_header_name_that_differs(renamed_local_header):
    with zipfile.ZipFile(io.BytesIO(renamed_local_header)) as zf:
        assert zf.read("AndroidManifest.xml") == MANIFEST_STUB
        with pytest.raises(zipfile.BadZipFile, match="File name in directory 'classes.dex' and header b'classes.dez' differ"):
            zf.read("classes.dex")


def test_prepended_data_still_opens(clean_apk):
    _, data = clean_apk
    shifted = b"\xde\xad\xbe\xef" * 32 + data
    archive = load_apk(shifted)
    assert set(archive.entries) == {"AndroidManifest.xml", "classes.dex"}
    manifest = read_entry(archive, "AndroidManifest.xml")
    assert struct.unpack_from("<H", manifest, 0)[0] == 0x0003


def test_dex_entry_names_numeric_order():
    data = make_zip(
        [
            ("classes10.dex", b"j"),
            ("AndroidManifest.xml", MANIFEST_STUB),
            ("classes2.dex", b"b"),
            ("classes.dex", b"a"),
            ("lib/x.so", b"n"),
        ]
    )
    archive = load_apk(data)
    assert dex_entry_names(archive) == ["classes.dex", "classes2.dex", "classes10.dex"]
    with zipfile.ZipFile(io.BytesIO(data)) as zf:
        reference = sorted(
            (n for n in zf.namelist() if n.startswith("classes") and n.endswith(".dex")),
            key=lambda n: 1 if n == "classes.dex" else int(n[len("classes"):-4]),
        )
    assert dex_entry_names(archive) == reference


def test_dex_name_with_a_trailing_newline_is_not_dex(tmp_path, capsys):
    # "$" would match before a final newline; no Android loader opens "classes.dex\n".
    data = pack_apk([("AndroidManifest.xml", MANIFEST_STUB), ("classes.dex\n", b"a")])
    with pytest.raises(NoDexEntriesError):
        load_apk(data)
    path = tmp_path / "newline.apk"
    path.write_bytes(data)
    assert main(["-f", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"bankscan: {path}: NoDexEntriesError: archive has no classes.dex entries\n"


def test_dex_name_with_non_ascii_digits_is_not_dex():
    # "\d" would take ARABIC-INDIC DIGIT TWO and sort the entry as classes2.dex.
    data = pack_apk([("AndroidManifest.xml", MANIFEST_STUB), ("classes.dex", b"a"), ("classes\u0662.dex", b"b")])
    assert dex_entry_names(load_apk(data)) == ["classes.dex"]


@settings(max_examples=40, deadline=None)
@given(
    payload=st.binary(min_size=0, max_size=2048),
    deflate=st.booleans(),
)
def test_payload_round_trip_property(payload, deflate):
    method = zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED
    archive = load_apk(minimal_apk(dex_payload=payload, method=method))
    assert read_entry(archive, "classes.dex") == payload
