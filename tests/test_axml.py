"""Binary-XML decoder tests.

The encoder in the fixtures package shares no code with the decoder, so
encode/decode round trips act as a cross-check; on top of that a few
assertions read the chunk layout directly with struct as a second opinion.
"""

import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bankscan.axml import (
    ANDROID_NS,
    AxmlError,
    BadMagicError,
    ResourceRef,
    StringIndexOutOfRangeError,
    TruncatedChunkError,
    UnbalancedTreeError,
    decode_axml,
)
from bankscan.fixtures import Elem, build_manifest_bytes, clean_profile, encode_document


@pytest.fixture(scope="module")
def manifest_bytes():
    return build_manifest_bytes(clean_profile())


def test_decode_fixture_manifest(manifest_bytes):
    doc = decode_axml(manifest_bytes)
    assert doc.root.name == "manifest"
    assert doc.root.attr("package", namespace=None) == "fixture.clean"
    assert not doc.warnings
    child_names = [c.name for c in doc.root.children]
    assert "application" in child_names and "uses-sdk" in child_names


def test_string_pool_count_matches_raw_header(manifest_bytes):
    # independent read: XML header (8) then string pool chunk header
    ctype, _, _ = struct.unpack_from("<HHI", manifest_bytes, 8)
    assert ctype == 0x0001
    raw_count = struct.unpack_from("<I", manifest_bytes, 16)[0]
    doc = decode_axml(manifest_bytes)
    assert len(doc.string_pool) == raw_count


def test_typed_attribute_values():
    root = Elem(
        "manifest",
        [(None, "package", "a.b")],
        [
            Elem(
                "application",
                [(ANDROID_NS, "allowBackup", False), (ANDROID_NS, "debuggable", True)],
            ),
            Elem("uses-sdk", [(ANDROID_NS, "minSdkVersion", 21)]),
        ],
    )
    doc = decode_axml(encode_document(root))
    app = [c for c in doc.root.children if c.name == "application"][0]
    assert app.attr("allowBackup") is False
    assert app.attr("debuggable") is True
    assert [c for c in doc.root.children if c.name == "uses-sdk"][0].attr("minSdkVersion") == 21


def test_utf16_string_pool_round_trip():
    root = Elem("manifest", [(None, "package", "pkg.sixteen")])
    doc = decode_axml(encode_document(root, utf8=False))
    assert doc.root.attr("package", namespace=None) == "pkg.sixteen"


def test_bad_magic():
    with pytest.raises(BadMagicError):
        decode_axml(b"\x00\x00\x00\x00\x10\x00\x00\x00" + b"\x00" * 8)
    with pytest.raises(BadMagicError):
        decode_axml(b"")


def test_declared_size_must_match(manifest_bytes):
    with pytest.raises(TruncatedChunkError):
        decode_axml(manifest_bytes + b"\x00")
    with pytest.raises(AxmlError):
        decode_axml(manifest_bytes[:-1])


def _doc(*chunks: bytes) -> bytes:
    payload = b"".join(chunks)
    return struct.pack("<HHI", 0x0003, 8, 8 + len(payload)) + payload


def _varlen(n: int, wide: bool) -> bytes:
    # One length unit, or two with the high bit of the first set.
    if wide:
        return struct.pack("<H", n) if n < 0x8000 else struct.pack("<HH", 0x8000 | n >> 16, n & 0xFFFF)
    return bytes([n]) if n < 0x80 else bytes([0x80 | n >> 8, n & 0xFF])


def _pool(*strings: str, utf8: bool = True, header_size: int = 28) -> bytes:
    """A string pool chunk; a ``header_size`` above 28 pads the header with zero bytes."""
    body = bytearray()
    offsets = []
    for s in strings:
        offsets.append(len(body))
        if utf8:
            raw = s.encode("utf-8")
            body += _varlen(len(s), False) + _varlen(len(raw), False) + raw + b"\x00"
        else:
            body += _varlen(len(s), True) + s.encode("utf-16-le") + b"\x00\x00"
    while len(body) % 4:
        body += b"\x00"
    start = header_size + 4 * len(strings)
    flags = 0x100 if utf8 else 0
    chunk = struct.pack("<HHIIIIII", 0x0001, header_size, start + len(body), len(strings), 0, flags, start, 0)
    chunk += bytes(header_size - 28)
    return chunk + b"".join(struct.pack("<I", o) for o in offsets) + bytes(body)


def _start(name_idx: int, attrs: bytes = b"", attr_count: int = 0) -> bytes:
    body = struct.pack("<IIII", 1, 0xFFFFFFFF, 0xFFFFFFFF, name_idx)
    body += struct.pack("<HHHHHH", 0x14, 0x14, attr_count, 0, 0, 0) + attrs
    return struct.pack("<HHI", 0x0102, 0x10, 8 + len(body)) + body


def _end(name_idx: int) -> bytes:
    return struct.pack("<HHIIIII", 0x0103, 0x10, 0x18, 1, 0xFFFFFFFF, 0xFFFFFFFF, name_idx)


def test_unbalanced_missing_end_tag():
    with pytest.raises(UnbalancedTreeError):
        decode_axml(_doc(_pool("manifest"), _start(0)))


def test_unbalanced_stray_end_tag():
    with pytest.raises(UnbalancedTreeError):
        decode_axml(_doc(_pool("manifest"), _end(0)))


def test_unbalanced_mismatched_end_tag():
    with pytest.raises(UnbalancedTreeError):
        decode_axml(_doc(_pool("manifest", "other"), _start(0), _end(1)))


def test_multiple_roots_rejected():
    with pytest.raises(UnbalancedTreeError):
        decode_axml(_doc(_pool("a"), _start(0), _end(0), _start(0), _end(0)))


def test_string_index_out_of_range():
    attr = struct.pack("<IIIHBBI", 0xFFFFFFFF, 999, 0xFFFFFFFF, 8, 0, 0x10, 1)
    with pytest.raises(StringIndexOutOfRangeError):
        decode_axml(_doc(_pool("manifest"), _start(0, attr, 1), _end(0)))


def test_reference_valued_attribute_decodes_as_ref():
    attr = struct.pack("<IIIHBBI", 0xFFFFFFFF, 1, 0xFFFFFFFF, 8, 0, 0x01, 0x7F040001)
    doc = decode_axml(_doc(_pool("manifest", "allowBackup"), _start(0, attr, 1), _end(0)))
    assert doc.root.attr("allowBackup", namespace=None) == ResourceRef(0x7F040001)


def test_unknown_value_type_warns():
    attr = struct.pack("<IIIHBBI", 0xFFFFFFFF, 1, 0xFFFFFFFF, 8, 0, 0x04, 0x3F800000)
    doc = decode_axml(_doc(_pool("manifest", "weight"), _start(0, attr, 1), _end(0)))
    assert doc.root.attr("weight", namespace=None) is None
    assert any("weight" in w for w in doc.warnings)


def test_oversized_string_pool_count_rejected():
    data = bytearray(_doc(_pool("manifest"), _start(0), _end(0)))
    struct.pack_into("<I", data, 16, 0xFFFF)  # string_count
    with pytest.raises(TruncatedChunkError):
        decode_axml(bytes(data))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutations_never_crash(manifest_bytes, data):
    # truncations and byte flips must yield AxmlError or a document, nothing else
    buf = bytearray(manifest_bytes)
    if data.draw(st.booleans()):
        buf = buf[: data.draw(st.integers(0, len(buf)))]
    for _ in range(data.draw(st.integers(1, 4))):
        if not buf:
            break
        i = data.draw(st.integers(0, len(buf) - 1))
        buf[i] ^= data.draw(st.integers(1, 255))
    try:
        decode_axml(bytes(buf))
    except AxmlError:
        pass


# --- pinned error surface ---------------------------------------------------
# Exact messages, so a change in how the decoder bounds-checks cannot change
# what a caller sees. _pool("manifest") is 44 bytes, so in these documents the
# pool chunk sits at 0x8, the first element-start chunk at 0x34 (its body at
# 0x44) and the end chunk after it at 0x58 (its body at 0x68).


def _cut_chunk(chunk: bytes, header_size: int, body_len: int) -> bytes:
    """``chunk`` cut to ``body_len`` bytes after a ``header_size``-byte header, sizes rewritten."""
    ctype = struct.unpack_from("<H", chunk)[0]
    return struct.pack("<HHI", ctype, header_size, header_size + body_len) + chunk[8 : header_size + body_len]


def _raises(doc: bytes, exc: type, message: str) -> None:
    with pytest.raises(exc) as info:
        decode_axml(doc)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kept, message",
    [
        (0, "need 4 bytes at offset 0x10, only 0 left"),  # string_count
        (3, "need 4 bytes at offset 0x10, only 3 left"),
        (5, "need 4 bytes at offset 0x14, only 1 left"),  # style_count
        (10, "need 4 bytes at offset 0x18, only 2 left"),  # flags
        (15, "need 4 bytes at offset 0x1c, only 3 left"),  # strings_start
        (16, "need 4 bytes at offset 0x20, only 0 left"),  # styles_start
        (19, "need 4 bytes at offset 0x20, only 3 left"),
    ],
)
def test_string_pool_header_truncation_messages(kept, message):
    _raises(_doc(_cut_chunk(_pool("manifest"), 8, kept)), TruncatedChunkError, message)


@pytest.mark.parametrize(
    "kept, message",
    [
        (0, "need 4 bytes at offset 0x44, only 0 left"),  # namespace
        (6, "need 4 bytes at offset 0x48, only 2 left"),  # name
        (9, "need 2 bytes at offset 0x4c, only 1 left"),  # attribute start
        (10, "need 2 bytes at offset 0x4e, only 0 left"),  # attribute size
        (13, "need 2 bytes at offset 0x50, only 1 left"),  # attribute count
        (14, "need 6 bytes at offset 0x52, only 0 left"),  # id/class/style indexes
        (19, "need 6 bytes at offset 0x52, only 5 left"),
    ],
)
def test_element_start_truncation_messages(kept, message):
    doc = _doc(_pool("manifest"), _cut_chunk(_start(0), 0x10, kept), _end(0))
    _raises(doc, TruncatedChunkError, message)


@pytest.mark.parametrize(
    "kept, message",
    [
        (0, "need 4 bytes at offset 0x68, only 0 left"),  # namespace
        (3, "need 4 bytes at offset 0x68, only 3 left"),
        (4, "need 4 bytes at offset 0x6c, only 0 left"),  # name
        (7, "need 4 bytes at offset 0x6c, only 3 left"),
    ],
)
def test_element_end_truncation_messages(kept, message):
    doc = _doc(_pool("manifest"), _start(0), _cut_chunk(_end(0), 0x10, kept))
    _raises(doc, TruncatedChunkError, message)


def test_string_pool_offsets_follow_the_declared_header_size():
    # A 32-byte pool header (4 spare bytes): the offset table starts at 32, not 28.
    for utf8 in (True, False):
        pool = _pool("manifest", "other", utf8=utf8, header_size=32)
        doc = decode_axml(_doc(pool, _start(0), _end(0)))
        assert doc.string_pool == ("manifest", "other")
    short = bytearray(_pool("manifest"))
    struct.pack_into("<H", short, 2, 24)
    _raises(_doc(bytes(short), _start(0), _end(0)), TruncatedChunkError, "string pool header size 24 below 28")


def test_chunk_and_pool_size_messages():
    pool = _pool("manifest")
    _raises(_doc(pool, b"\x02\x01\x10\x00"), TruncatedChunkError, "chunk header truncated at offset 0x34")
    _raises(_doc(pool, struct.pack("<HHI", 0x0102, 0x10, 8)), TruncatedChunkError, "chunk 0x0102 at 0x34 has bad size 8/16")
    oversized = bytearray(_doc(pool, _start(0), _end(0)))
    struct.pack_into("<I", oversized, 16, 0xFFFF)  # string_count
    _raises(bytes(oversized), TruncatedChunkError, "string pool offset table larger than chunk")
    late = bytearray(_doc(pool, _start(0), _end(0)))
    struct.pack_into("<I", late, 28, 45)  # strings_start, one past the 44-byte chunk
    _raises(bytes(late), TruncatedChunkError, "string data starts past end of pool chunk")
    _raises(_doc(_start(0), _end(0)), StringIndexOutOfRangeError, "element name string index 0 out of range (pool size 0)")
    _raises(_doc(pool), UnbalancedTreeError, "document contains no elements")
    _raises(_doc(pool, _end(0)), UnbalancedTreeError, "end tag with no open element")
    _raises(_doc(_pool("a", "b"), _start(0), _end(1)), UnbalancedTreeError, "end tag 'b' does not close open element 'a'")


def test_attribute_table_messages():
    attr = struct.pack("<IIIHBBI", 0xFFFFFFFF, 0, 0xFFFFFFFF, 8, 0, 0x10, 1)
    small = bytearray(_start(0, attr, 1))
    struct.pack_into("<H", small, 0x1A, 19)  # attribute record size
    _raises(_doc(_pool("manifest"), bytes(small), _end(0)), TruncatedChunkError, "attribute record size 19 too small")
    _raises(
        _doc(_pool("manifest"), _start(0, attr, 2), _end(0)),
        TruncatedChunkError,
        "attribute table larger than element chunk",
    )
    missing = struct.pack("<IIIHBBI", 0xFFFFFFFF, 999, 0xFFFFFFFF, 8, 0, 0x10, 1)
    _raises(
        _doc(_pool("manifest"), _start(0, missing, 1), _end(0)),
        StringIndexOutOfRangeError,
        "attribute name string index 999 out of range (pool size 1)",
    )


def test_string_data_messages():
    # The pool data of _pool("manifest") is 12 bytes at 0x28: prefixes 08 08,
    # eight bytes of text, a NUL and one padding byte at 0x33.
    def patched(offset: int, value: int, width: str = "B") -> bytes:
        doc = bytearray(_doc(_pool("manifest"), _start(0), _end(0)))
        struct.pack_into("<" + width, doc, offset, value)
        return bytes(doc)

    _raises(patched(0x24, 12, "I"), TruncatedChunkError, "string offset 0xc outside pool data")
    _raises(patched(0x29, 0x7F), TruncatedChunkError, "UTF-8 string data truncated")
    prefix_at_end = bytearray(patched(0x24, 11, "I"))  # string 0 starts at the padding byte
    prefix_at_end[0x33] = 0x80  # which announces a two-byte length
    _raises(bytes(prefix_at_end), TruncatedChunkError, "string length prefix truncated")
    wide = bytearray(_doc(_pool("manifest", utf8=False), _start(0), _end(0)))
    struct.pack_into("<H", wide, 0x28, 100)  # UTF-16 length in units
    _raises(bytes(wide), TruncatedChunkError, "UTF-16 string data truncated")


@pytest.mark.parametrize(
    "utf8, offset, high, message",
    [
        # "manifest" in UTF-16 is 20 bytes of pool data at 0x28, ending at 0x3c.
        (False, 19, None, "string length prefix truncated"),  # one byte of a unit left
        (False, 18, 0x80, "string length prefix truncated"),  # a two-unit prefix with one unit left
        # In UTF-8 it is 12 bytes, ending at 0x34: the last byte is padding,
        # read as a one-byte UTF-16 length with no byte left for the UTF-8 one.
        (True, 11, None, "string length prefix truncated"),
    ],
)
def test_string_length_prefix_messages(utf8, offset, high, message):
    doc = bytearray(_doc(_pool("manifest", utf8=utf8), _start(0), _end(0)))
    struct.pack_into("<I", doc, 0x24, offset)  # string 0's offset
    if high is not None:
        doc[0x28 + offset + 1] = high
    _raises(bytes(doc), TruncatedChunkError, message)


def test_elements_without_a_string_pool_name_no_string():
    # Every index is out of range before a pool is read, so no element is
    # built without one.
    message = "element name string index 0 out of range (pool size 0)"
    _raises(_doc(_start(0), _end(0)), StringIndexOutOfRangeError, message)


def test_unknown_chunk_and_extra_pool_warn():
    unknown = struct.pack("<HHI", 0x0200, 8, 12) + b"\x00" * 4
    doc = decode_axml(_doc(_pool("manifest"), unknown, _pool("other"), _start(0), _end(0)))
    assert doc.warnings == (
        "unknown chunk type 0x0200 at offset 0x34 skipped",
        "extra string pool at offset 0x40 ignored",
    )
    assert doc.string_pool == ("manifest",)
    assert doc.root.name == "manifest"


@pytest.mark.parametrize("utf8", [True, False])
def test_long_strings_round_trip(utf8):
    # 128+ characters take the two-byte UTF-8 prefixes (0x7FFF at most);
    # 0x8000+ UTF-16 units take the two-unit UTF-16 prefix. Short neighbours
    # keep the one-unit form.
    strings = ["manifest", "é" * 100, "n" * 200, "x" * (0x7FFF if utf8 else 0x8001), "tail"]
    doc = decode_axml(_doc(_pool(*strings, utf8=utf8), _start(0), _end(0)))
    assert doc.string_pool == tuple(strings)
    round_trip = Elem("manifest", [(None, "label", "y" * 300), (None, "short", "ab")])
    doc = decode_axml(encode_document(round_trip, utf8=utf8))
    assert doc.root.attr("label", namespace=None) == "y" * 300
    assert doc.root.attr("short", namespace=None) == "ab"


def test_repeated_pool_offsets_share_one_decoded_string():
    # A UTF-16 pool: "manifest", then 1,000 offsets on one 50,000-unit string.
    long_units = 50_000
    body = _varlen(8, True) + "manifest".encode("utf-16-le") + b"\x00\x00"
    long_off = len(body)
    body += _varlen(long_units, True) + "s".encode("utf-16-le") * long_units + b"\x00\x00"
    offsets = [0] + [long_off] * 1000
    start = 28 + 4 * len(offsets)
    header = struct.pack("<HHIIIIII", 0x0001, 28, start + len(body), len(offsets), 0, 0, start, 0)
    pool = header + struct.pack(f"<{len(offsets)}I", *offsets) + body
    data = _doc(pool, _start(0), _end(0))
    tracemalloc.start()
    try:
        doc = decode_axml(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.root.name == "manifest"
    shared = doc.string_pool[1:]
    assert len(shared) == 1000 and shared[0] == "s" * long_units
    assert all(s is shared[0] for s in shared)
    # 1,000 separately decoded copies would take 50 MB.
    assert peak < 2 * 1024 * 1024


def _attr(ns_idx: int, name_idx: int, dtype: int, data: int) -> bytes:
    return struct.pack("<IIIHBBI", ns_idx, name_idx, 0xFFFFFFFF, 8, 0, dtype, data)


def _with_element_namespace(start: bytes, ns_idx: int) -> bytes:
    chunk = bytearray(start)
    struct.pack_into("<I", chunk, 0x10, ns_idx)
    return bytes(chunk)


def test_string_index_messages():
    pool = _pool("manifest")
    cases = [
        (_start(0, _attr(7, 0, 0x10, 1), 1), "attribute namespace string index 7 out of range (pool size 1)"),
        (_start(0, _attr(0xFFFFFFFF, 0, 0x03, 9), 1), "attribute value string index 9 out of range (pool size 1)"),
        (_with_element_namespace(_start(0), 3), "element namespace string index 3 out of range (pool size 1)"),
    ]
    for start, message in cases:
        _raises(_doc(pool, start, _end(0)), StringIndexOutOfRangeError, message)
    _raises(_doc(pool, _start(0), _end(5)), StringIndexOutOfRangeError, "end tag name string index 5 out of range (pool size 1)")
    # Only a string-typed value is a pool index.
    doc = decode_axml(_doc(pool, _start(0, _attr(0xFFFFFFFF, 0, 0x10, 9), 1), _end(0)))
    assert doc.root.attributes[0].value == 9


def test_string_index_check_order():
    pool = _pool("manifest")
    cases = [
        # Within an attribute: namespace, then name, then value.
        (_start(0, _attr(7, 8, 0x03, 9), 1), "attribute namespace string index 7 out of range (pool size 1)"),
        (_start(0, _attr(0xFFFFFFFF, 8, 0x03, 9), 1), "attribute name string index 8 out of range (pool size 1)"),
        # Every attribute before the element's own names.
        (
            _with_element_namespace(_start(4, _attr(0xFFFFFFFF, 8, 0x10, 1), 1), 3),
            "attribute name string index 8 out of range (pool size 1)",
        ),
        (
            _start(4, _attr(0xFFFFFFFF, 0, 0x10, 1) + _attr(0xFFFFFFFF, 0, 0x03, 6), 2),
            "attribute value string index 6 out of range (pool size 1)",
        ),
        # The element namespace before its name.
        (_with_element_namespace(_start(4), 3), "element namespace string index 3 out of range (pool size 1)"),
        (_start(4), "element name string index 4 out of range (pool size 1)"),
    ]
    for start, message in cases:
        _raises(_doc(pool, start, _end(0)), StringIndexOutOfRangeError, message)
    # Before any pool, every index is out of range of a pool of size 0.
    _raises(
        _doc(_start(0, _attr(0xFFFFFFFF, 0, 0x10, 1), 1), _end(0), pool),
        StringIndexOutOfRangeError,
        "attribute name string index 0 out of range (pool size 0)",
    )
    # An end tag pops its element before it reads its own name.
    _raises(_doc(pool, _end(5)), UnbalancedTreeError, "end tag with no open element")
