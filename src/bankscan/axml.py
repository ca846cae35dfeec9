"""Android binary XML (AXML) decoding.

Compiled manifests are chunked little-endian documents: an XML header chunk
(0x0003) wrapping a string pool (0x0001), an optional resource map (0x0180),
and a flat stream of namespace / element begin+end records that describe the
tree. This decoder supports exactly that subset -- the resource map and
cdata chunks are skipped -- and rebuilds the element tree with typed
attribute values.

Bounds are checked once per chunk or record, not per field: each header or
element body is size-checked against its chunk, then read with one
precompiled ``struct.Struct`` call (the pool's offset table with one
``unpack_from``). A failed check names the first field that does not fit.
Each string index is compared with the pool size where it is read, and its
error is built only when that comparison fails. Pool strings with one-byte
length prefixes are sliced inline. The layout follows AOSP ``ResourceTypes.h``.

Attribute lookup downstream is by name within the ``android`` namespace URI;
resource-ID lookup is deliberately not implemented.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

ANDROID_NS = "http://schemas.android.com/apk/res/android"

CHUNK_XML = 0x0003
CHUNK_STRING_POOL = 0x0001
CHUNK_RESOURCE_MAP = 0x0180
CHUNK_NS_START = 0x0100
CHUNK_NS_END = 0x0101
CHUNK_ELEMENT_START = 0x0102
CHUNK_ELEMENT_END = 0x0103
CHUNK_CDATA = 0x0104

# Typed value dataType codes (ResValue).
TYPE_REFERENCE = 0x01
TYPE_STRING = 0x03
TYPE_INT_DEC = 0x10
TYPE_INT_HEX = 0x11
TYPE_INT_BOOLEAN = 0x12

_UTF8_FLAG = 1 << 8
_NO_INDEX = 0xFFFFFFFF


class AxmlError(Exception):
    """Base class for binary-XML decode failures."""


class BadMagicError(AxmlError):
    """Input does not start with the XML chunk type."""


class TruncatedChunkError(AxmlError):
    """A chunk or string runs past its declared bounds."""


class UnbalancedTreeError(AxmlError):
    """Element begin/end records do not form a tree."""


class StringIndexOutOfRangeError(AxmlError):
    """A string reference points outside the string pool."""


class ResourceRef(NamedTuple):
    """A reference-typed attribute value (points at a resource table entry)."""

    resource_id: int


# Decoded attribute values: pool string, integer, boolean, resource
# reference, or None for types this decoder does not interpret.
AttrValue = str | int | bool | ResourceRef | None


class AxmlAttribute(NamedTuple):
    namespace: str | None
    name: str
    value: AttrValue


class AxmlElement:
    """One element; mutable and unhashable, as the decoder appends its children as it reads them.

    A slotted class, not a named tuple: the manifest projection reads its
    fields once per element, and CPython 3.11 specializes reads of slot
    attributes but not of named-tuple fields, so as a named tuple
    ``build_manifest_model`` ran about 5% slower.
    """

    __slots__ = ("namespace", "name", "attributes", "children")

    def __init__(
        self,
        namespace: str | None,
        name: str,
        attributes: tuple[AxmlAttribute, ...],
        children: list[AxmlElement] | None = None,
    ) -> None:
        self.namespace = namespace
        self.name = name
        self.attributes = attributes
        self.children = [] if children is None else children

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(namespace={self.namespace!r}, name={self.name!r}, "
            f"attributes={self.attributes!r}, children={self.children!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.namespace, self.name, self.attributes, self.children) == (
            other.namespace, other.name, other.attributes, other.children
        )

    def attr(self, name: str, namespace: str | None = ANDROID_NS) -> AttrValue:
        """Value of the first attribute matching (namespace, name), else None."""
        for a in self.attributes:
            if a.name == name and a.namespace == namespace:
                return a.value
        return None


class AxmlDocument(NamedTuple):
    """The decoded document; unhashable, as its root element is."""

    string_pool: tuple[str, ...]
    root: AxmlElement
    warnings: tuple[str, ...] = ()


# Fixed-size records, each read with one call after one bounds check of its
# chunk. The per-field message is built only when that check fails.
_CHUNK_HEADER = struct.Struct("<HHI")  # type, header size, chunk size
# string and style counts, flags, strings start; styles start skipped
_POOL_HEADER = struct.Struct("<IIII4x")
# namespace, name, attribute start, size and count; id/class/style indexes skipped
_ELEMENT_START = struct.Struct("<IIHHH6x")
_ELEMENT_END = struct.Struct("<4xI")  # namespace skipped, name
# namespace, name, value type and data; raw value, size and res0 skipped
_ATTRIBUTE = struct.Struct("<II7xBI")


def _truncated(pos: int, end: int, widths: tuple[int, ...]) -> TruncatedChunkError:
    """The error for the first field (of ``widths`` bytes from ``pos``) that runs past ``end``."""
    for n in widths:
        if pos + n > end:
            break
        pos += n
    return TruncatedChunkError(f"need {n} bytes at offset {pos:#x}, only {end - pos} left")


def _bad_index(what: str, idx: int, size: int) -> StringIndexOutOfRangeError:
    return StringIndexOutOfRangeError(f"{what} string index {idx} out of range (pool size {size})")


def _decode_string_pool(data: bytes, chunk_start: int, header_size: int, chunk_size: int) -> tuple[str, ...]:
    pos = chunk_start + 8
    limit = chunk_start + chunk_size
    if pos + _POOL_HEADER.size > limit:
        raise _truncated(pos, limit, (4, 4, 4, 4, 4))
    string_count, style_count, flags, strings_start = _POOL_HEADER.unpack_from(data, pos)
    is_utf8 = bool(flags & _UTF8_FLAG)

    # The offset table follows the declared header, as in AOSP's
    # ResStringPool::setTo, and must physically fit inside the chunk.
    if header_size < 28:  # the chunk header and the five pool header fields
        raise TruncatedChunkError(f"string pool header size {header_size} below 28")
    if header_size + 4 * (string_count + style_count) > chunk_size:
        raise TruncatedChunkError("string pool offset table larger than chunk")
    if strings_start > chunk_size:
        raise TruncatedChunkError("string data starts past end of pool chunk")

    offsets = struct.unpack_from(f"<{string_count}I", data, chunk_start + header_size)
    base = chunk_start + strings_start

    # Offsets may repeat; each distinct one is decoded once, in first-use
    # order, and its str is shared, so the pool costs no more than its data.
    text = dict.fromkeys(offsets)
    for off in text:
        pos = base + off
        if pos >= limit:
            raise TruncatedChunkError(f"string offset {off:#x} outside pool data")
        if is_utf8 and pos + 2 <= limit and data[pos] < 0x80 and data[pos + 1] < 0x80:
            # The usual string: one-byte UTF-16 and UTF-8 length prefixes.
            stop = pos + 2 + data[pos + 1]
            if stop > limit:
                raise TruncatedChunkError("UTF-8 string data truncated")
            text[off] = data[pos + 2 : stop].decode("utf-8", "replace")
        else:
            text[off] = _read_string(data, pos, limit, is_utf8)
    return tuple(map(text.__getitem__, offsets))


def _read_varlen(data: bytes, pos: int, limit: int, wide: bool) -> tuple[int, int]:
    # AXML length prefix: one unit, or two with the high bit of the first set.
    if wide:
        if pos + 2 > limit:
            raise TruncatedChunkError("string length prefix truncated")
        first = struct.unpack_from("<H", data, pos)[0]
        if first & 0x8000:
            if pos + 4 > limit:
                raise TruncatedChunkError("string length prefix truncated")
            second = struct.unpack_from("<H", data, pos + 2)[0]
            return ((first & 0x7FFF) << 16) | second, 4
        return first, 2
    if pos >= limit:
        raise TruncatedChunkError("string length prefix truncated")
    first = data[pos]
    if first & 0x80:
        if pos + 2 > limit:
            raise TruncatedChunkError("string length prefix truncated")
        return ((first & 0x7F) << 8) | data[pos + 1], 2
    return first, 1


def _read_string(data: bytes, pos: int, limit: int, is_utf8: bool) -> str:
    if is_utf8:
        _, n = _read_varlen(data, pos, limit, wide=False)  # UTF-16 length, unused
        pos += n
        byte_len, n = _read_varlen(data, pos, limit, wide=False)
        pos += n
        if pos + byte_len > limit:
            raise TruncatedChunkError("UTF-8 string data truncated")
        return data[pos : pos + byte_len].decode("utf-8", "replace")
    unit_len, n = _read_varlen(data, pos, limit, wide=True)
    pos += n
    if pos + 2 * unit_len > limit:
        raise TruncatedChunkError("UTF-16 string data truncated")
    return data[pos : pos + 2 * unit_len].decode("utf-16-le", "replace")


def decode_axml(data: bytes) -> AxmlDocument:
    """Decode binary-XML bytes into a string pool plus a balanced element tree."""
    n = len(data)
    if n < 8:
        raise BadMagicError("input shorter than a chunk header")
    chunk_type, header_size, declared = _CHUNK_HEADER.unpack_from(data, 0)
    if chunk_type != CHUNK_XML:
        raise BadMagicError(f"expected XML chunk type 0x0003, got {chunk_type:#06x}")
    if declared != n:
        raise TruncatedChunkError(
            f"declared document size {declared} != input length {n}"
        )
    if header_size < 8 or header_size > n:
        raise TruncatedChunkError(f"bad XML chunk header size {header_size}")

    pool: tuple[str, ...] | None = None
    size = 0  # of the pool; 0 until one is read, so every index is out of range before it
    warnings: list[str] = []
    root: AxmlElement | None = None
    stack: list[AxmlElement] = []

    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    unpack_header = _CHUNK_HEADER.unpack_from
    unpack_attribute = _ATTRIBUTE.unpack_from
    pos = header_size
    while pos < n:
        if pos + 8 > n:
            raise TruncatedChunkError(f"chunk header truncated at offset {pos:#x}")
        ctype, chdr, csize = unpack_header(data, pos)
        if csize < 8 or chdr < 8 or csize < chdr or pos + csize > n:
            raise TruncatedChunkError(
                f"chunk 0x{ctype:04x} at {pos:#x} has bad size {csize}/{chdr}"
            )
        body = pos + chdr
        end = pos + csize

        # Element records come first: they are most of a manifest's chunks.
        if ctype == CHUNK_ELEMENT_START:
            if body + _ELEMENT_START.size > end:
                raise _truncated(body, end, (4, 4, 2, 2, 2, 6))
            ns_idx, name_idx, attr_start, attr_size, attr_count = _ELEMENT_START.unpack_from(data, body)
            if attr_size < 20:
                raise TruncatedChunkError(f"attribute record size {attr_size} too small")
            abase = body + attr_start
            aend = abase + attr_count * attr_size
            if aend > end:
                raise TruncatedChunkError("attribute table larger than element chunk")
            attrs = []
            for apos in range(abase, aend, attr_size):
                a_ns, a_name, dtype, dvalue = unpack_attribute(data, apos)
                if a_ns == _NO_INDEX:
                    namespace = None
                elif a_ns < size:
                    namespace = pool[a_ns]
                else:
                    raise _bad_index("attribute namespace", a_ns, size)
                if a_name >= size:
                    raise _bad_index("attribute name", a_name, size)
                name = pool[a_name]
                value: AttrValue
                if dtype == TYPE_STRING:
                    if dvalue >= size:
                        raise _bad_index("attribute value", dvalue, size)
                    value = pool[dvalue]
                elif dtype == TYPE_INT_DEC or dtype == TYPE_INT_HEX:
                    value = dvalue
                elif dtype == TYPE_INT_BOOLEAN:
                    value = dvalue != 0
                elif dtype == TYPE_REFERENCE:
                    value = make(ResourceRef, (dvalue,))
                else:
                    warnings.append(f"attribute {name!r}: unhandled value type 0x{dtype:02x}")
                    value = None
                attrs.append(make(AxmlAttribute, (namespace, name, value)))
            if ns_idx == _NO_INDEX:
                namespace = None
            elif ns_idx < size:
                namespace = pool[ns_idx]
            else:
                raise _bad_index("element namespace", ns_idx, size)
            if name_idx >= size:
                raise _bad_index("element name", name_idx, size)
            elem = AxmlElement(namespace, pool[name_idx], tuple(attrs))
            if stack:
                stack[-1].children.append(elem)
            elif root is None:
                root = elem
            else:
                raise UnbalancedTreeError("multiple root elements")
            stack.append(elem)
        elif ctype == CHUNK_ELEMENT_END:
            if body + _ELEMENT_END.size > end:
                raise _truncated(body, end, (4, 4))
            (name_idx,) = _ELEMENT_END.unpack_from(data, body)
            if not stack:
                raise UnbalancedTreeError("end tag with no open element")
            open_name = stack.pop().name
            if name_idx >= size:
                raise _bad_index("end tag name", name_idx, size)
            if pool[name_idx] != open_name:
                raise UnbalancedTreeError(
                    f"end tag {pool[name_idx]!r} does not close open element {open_name!r}"
                )
        elif ctype == CHUNK_STRING_POOL:
            if pool is None:
                pool = _decode_string_pool(data, pos, chdr, csize)
                size = len(pool)
            else:
                warnings.append(f"extra string pool at offset {pos:#x} ignored")
        elif ctype in (CHUNK_RESOURCE_MAP, CHUNK_CDATA, CHUNK_NS_START, CHUNK_NS_END):
            pass  # not needed: attributes carry full namespace URIs, and manifests need no resource IDs or text
        else:
            warnings.append(f"unknown chunk type 0x{ctype:04x} at offset {pos:#x} skipped")
        pos = end

    if stack:
        raise UnbalancedTreeError(f"{len(stack)} element(s) left open at end of document")
    if root is None:
        raise UnbalancedTreeError("document contains no elements")
    return make(AxmlDocument, (pool, root, tuple(warnings)))
