"""DEX bytecode parsing.

Parses Dalvik executable files just far enough for rule queries: which
methods are invoked where, which strings the file holds, and what integer
literal precedes a given call. The id sections (strings, types, protos,
fields, methods) are each range-checked once against the file and then read
in bulk, not one entry at a time. Every string id is checked, with a few
C-level calls unless one fails, and kept as its string_data offset; a
string is decoded only when a type id, a proto's shorty or a method's name
names it, once per distinct offset. Method ids build no record: each is a
name in one column and its 8 raw bytes in another, and ``method_ref``
builds a ``MethodRef`` only for the callee of a call site.
``_string_marker`` searches the raw string data for ASCII needles without
decoding a string. ``parse_dex`` then
reads every class_data, method entry and instruction stream of the DEX in
one loop, its locals bound once per DEX, so every instruction's width,
every payload and every invoke target is checked at parse time, but it
builds no per-instruction record.
The walk maps the file's opcode bytes through a 256-byte table, built from
the published opcode format table, with one ``bytes.translate`` per DEX;
each entry is the opcode's width in code units, or a marker for the invoke
family and for ``nop``, which may start a payload. A plain instruction then
costs one table read and one add. The loop reads a one-byte ULEB128, and a
code_off of up to three bytes, inline. The format puts every code_item on a
4-byte boundary, so the file's code units number every stream; a code_item
off that boundary raises ``MisalignedCodeItemError``. Every body, with or
without a payload, takes that one path.
The walk builds no ``MethodBody``: each method is a row of per-DEX columns
(its method index and where its stream starts) and each class a row of its
owner and last method. The id tables, the method id columns, the rows and
the invoke columns are all a ``DexImage`` holds; ``bodies()`` builds each
``MethodBody`` from them as it is read and keeps none, and a scan never
calls it.

An invoke costs one list append, the code unit it starts at, and a method
entry one more: the invoke row its body starts at, so a row's body is found
by bisection. After the last body, the method index of every invoke is read
in one pass over a 16-bit view of the file and checked with one ``max``; if
another error stops the parse first, the invokes recorded so far are
checked before it is raised, so the first invoke that names no method still
wins. The indices are kept as a string, one character per invoke, so the
rules find the invokes of the method ids they want with ``str.find``.
``_sites_of`` reads a site as a plain tuple (caller owner and name, callee,
byte offset, caller ordinal) from those columns and the method and class
rows, counting no position and building no record or body but one
``MethodRef`` per target.
``MethodBody.instructions`` decodes ``Instruction`` records from a body's
validated bytes on each read; a scan never reads them. The const
back-scan, ``_literals_reaching``, reads a calling body's code by its
ordinal and steps it forward through a width table, reading a literal
straight from the bytes; it steps each body once per call, however many of
its sites it is asked about. Register dataflow is deliberately not modeled:
the back-scan ignores which register a const targets, so it over- and
under-approximates on reordered or obfuscated code.
"""

from __future__ import annotations

import struct
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from operator import itemgetter
from typing import NamedTuple

HEADER_SIZE = 0x70
ENDIAN_CONSTANT = 0x12345678
_MAGIC_VERSIONS = (b"035\x00", b"037\x00", b"038\x00", b"039\x00")

OP_CONST_4 = 0x12
OP_CONST_16 = 0x13
OP_CONST = 0x14
CONST_OPS = (OP_CONST_4, OP_CONST_16, OP_CONST)

# invoke-virtual .. invoke-interface, then the /range variants.
INVOKE_OPS = frozenset(range(0x6E, 0x73)) | frozenset(range(0x74, 0x79))

DEFAULT_LOOKBACK = 8


class DexError(Exception):
    """Base class for DEX parse failures."""


class BadMagicError(DexError):
    """File does not start with a supported dex magic."""


class BadEndianTagError(DexError):
    """Header endian tag is not the little-endian constant."""


class SectionOutOfBoundsError(DexError):
    """A section offset, index or length points outside the file."""


class MalformedUleb128Error(DexError):
    """A ULEB128 value is truncated or longer than five bytes."""


class MisalignedCodeItemError(DexError):
    """A code_item does not start on the 4-byte boundary the format requires."""


# ---------------------------------------------------------------------------
# Instruction format table. One entry per opcode byte; the format name keys
# into _FORMAT_UNITS for the instruction width in 16-bit code units.
# ---------------------------------------------------------------------------

_FORMAT_UNITS = {
    "10x": 1, "12x": 1, "11n": 1, "11x": 1, "10t": 1,
    "20t": 2, "20bc": 2, "22x": 2, "21t": 2, "21s": 2, "21h": 2, "21c": 2,
    "23x": 2, "22b": 2, "22t": 2, "22s": 2, "22c": 2, "22cs": 2,
    "30t": 3, "32x": 3, "31i": 3, "31t": 3, "31c": 3,
    "35c": 3, "35ms": 3, "35mi": 3, "3rc": 3, "3rms": 3, "3rmi": 3,
    "45cc": 4, "4rcc": 4,
    "51l": 5,
}


def _build_format_table() -> tuple[str, ...]:
    fmt = ["10x"] * 256  # unused opcodes default to a single code unit

    def put(ops, name):
        for op in ops:
            fmt[op] = name

    put([0x01, 0x04, 0x07], "12x")                  # move family
    put([0x02, 0x05, 0x08], "22x")
    put([0x03, 0x06, 0x09], "32x")
    put(range(0x0A, 0x0E), "11x")                   # move-result*/exception
    put([0x0F, 0x10, 0x11], "11x")                  # return*
    put([0x12], "11n")                              # const/4
    put([0x13, 0x16], "21s")                        # const/16, const-wide/16
    put([0x14, 0x17], "31i")                        # const, const-wide/32
    put([0x15, 0x19], "21h")                        # const/high16 variants
    put([0x18], "51l")                              # const-wide
    put([0x1A], "21c")                              # const-string
    put([0x1B], "31c")                              # const-string/jumbo
    put([0x1C], "21c")                              # const-class
    put([0x1D, 0x1E], "11x")                        # monitor-enter/exit
    put([0x1F], "21c")                              # check-cast
    put([0x20], "22c")                              # instance-of
    put([0x21], "12x")                              # array-length
    put([0x22], "21c")                              # new-instance
    put([0x23], "22c")                              # new-array
    put([0x24], "35c")                              # filled-new-array
    put([0x25], "3rc")
    put([0x26], "31t")                              # fill-array-data
    put([0x27], "11x")                              # throw
    put([0x28], "10t")                              # goto
    put([0x29], "20t")
    put([0x2A], "30t")
    put([0x2B, 0x2C], "31t")                        # packed/sparse-switch
    put(range(0x2D, 0x32), "23x")                   # cmp family
    put(range(0x32, 0x38), "22t")                   # if-test
    put(range(0x38, 0x3E), "21t")                   # if-testz
    put(range(0x44, 0x4B), "23x")                   # aget family
    put(range(0x4B, 0x52), "23x")                   # aput family
    put(range(0x52, 0x59), "22c")                   # iget family
    put(range(0x59, 0x60), "22c")                   # iput family
    put(range(0x60, 0x67), "21c")                   # sget family
    put(range(0x67, 0x6E), "21c")                   # sput family
    put(range(0x6E, 0x73), "35c")                   # invoke-kind
    put(range(0x74, 0x79), "3rc")                   # invoke-kind/range
    put(range(0x7B, 0x90), "12x")                   # unops
    put(range(0x90, 0xB0), "23x")                   # binops
    put(range(0xB0, 0xD0), "12x")                   # binop/2addr
    put(range(0xD0, 0xD8), "22s")                   # binop/lit16
    put(range(0xD8, 0xE3), "22b")                   # binop/lit8
    put([0xFA], "45cc")                             # invoke-polymorphic
    put([0xFB], "4rcc")
    put([0xFC], "35c")                              # invoke-custom
    put([0xFD], "3rc")
    put([0xFE, 0xFF], "21c")                        # const-method-handle/type
    return tuple(fmt)


OPCODE_FORMATS: tuple[str, ...] = _build_format_table()
# Width in code units per opcode byte, read once per instruction.
_OP_UNITS: tuple[int, ...] = tuple(_FORMAT_UNITS[f] for f in OPCODE_FORMATS)

# A nop (opcode 0x00) code unit starts a payload when its high byte is 1, 2 or
# 3 (packed-switch, sparse-switch or fill-array-data), so the walks test it as
# ``0 < high < 4``; ``_payload_units`` tells the three apart.
_PACKED_SWITCH_IDENT = 0x0100
_SPARSE_SWITCH_IDENT = 0x0200

# The walk's table: one byte per opcode, its width in code units, or a marker
# above every width for the two opcodes whose width alone does not settle the
# step. An invoke (width 3) needs its target checked and its site recorded; a
# nop (width 1) starts a payload when its high byte is 1, 2 or 3.
_MAX_UNITS = max(_OP_UNITS)
_INVOKE_MARK = _MAX_UNITS + 1
_NOP_MARK = _MAX_UNITS + 2
_WALK_WIDTHS = bytes(
    _INVOKE_MARK if op in INVOKE_OPS else _NOP_MARK if op == 0x00 else units
    for op, units in enumerate(_OP_UNITS)
)
# The back-scan's table: the width in bytes, plus _SCAN_MARK for the opcodes
# the scan looks at, the three consts and nop, which may start a payload.
_SCAN_MARK = 0x80
_SCAN_WIDTHS = bytes(
    2 * units + _SCAN_MARK if op in CONST_OPS or op == 0x00 else 2 * units for op, units in enumerate(_OP_UNITS)
)


class MethodRef(NamedTuple):
    owner: str   # defining type descriptor, e.g. Landroid/webkit/WebView;
    name: str
    shorty: str  # condensed signature, e.g. VL for (ref)void


class Instruction(NamedTuple):
    opcode: int
    offset: int        # byte offset inside the method's instruction stream
    units: int         # width in 16-bit code units
    literal: int | None = None       # const/4, const/16, const
    method_index: int | None = None  # invoke family


class MethodBody(NamedTuple):
    """One method's instruction stream, as ``DexImage.bodies()`` builds it from the rows."""

    owner: str
    name: str
    code: bytes  # instruction stream, validated by parse_dex

    @property
    def instructions(self) -> tuple[Instruction, ...]:
        """The decoded instruction stream, decoded anew on each read."""
        return _decode_instructions(self.code, self.owner, self.name)


class _Invokes(NamedTuple):
    """Every invoke of one DEX as columns, one row per invoke in body order, then stream order.

    ``methods`` and ``units`` hold one entry per invoke, ``firsts`` one per
    body, so row r's body is ``bisect_right(firsts, r) - 1``. No position is
    kept: a site's byte offset is twice its unit less its body's
    ``code_starts`` byte.
    """

    methods: str        # character r is chr(the method index row r names), for str.find
    firsts: list[int]   # per body: the row its invokes start at, which the next body shares if it has none
    units: list[int]    # per invoke: the code unit it starts at; unit u is bytes 2u and 2u + 1 of the DEX


_NO_INVOKES = _Invokes("", [], [])


class _Rows(NamedTuple):
    """A parsed DEX's method bodies as rows, in ``bodies()`` order, and its classes as rows, in class_def order."""

    data: bytes                   # the DEX file; a body's code is sliced from it
    refs: tuple[int, ...]         # per body: its method index
    code_starts: tuple[int, ...]  # per body: the byte its stream starts at, 0 for no code
    owners: tuple[str, ...]       # per class: its type
    class_ends: tuple[int, ...]   # per class: the ordinal after its last body


_NO_ROWS = _Rows(b"", (), (), (), ())


def _code_at(data: bytes, start: int) -> bytes:
    """The instruction stream at byte ``start`` of ``data`` (none at 0); its insns_size is the u32 before it."""
    return data[start : start + 2 * _U32.unpack_from(data, start - 4)[0]] if start else b""


# A method id's class_idx and proto_idx, the first 4 of its 8 bytes.
_CLASS_AND_PROTO = struct.Struct("<HH")


class _Methods(NamedTuple):
    """A parsed DEX's method ids as columns: no record is built per id.

    ``repr`` leaves out ``ids``, so it prints no DEX bytes.
    """

    names: tuple[str, ...]     # per method id: its name
    ids: bytes                 # the method_ids section, 8 bytes per id, every index checked
    shorties: tuple[str, ...]  # per proto id: its shorty

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(names={self.names!r}, shorties={self.shorties!r})"


class DexImage(NamedTuple):
    """One parsed DEX: its id tables, its method id columns, its method and class rows and its invoke columns.

    A ``MethodRef`` is not kept per method id; ``method_ref`` builds one on
    demand. ``repr`` leaves out the method ids' bytes, the rows and the
    invokes, so it prints no DEX bytes. The invoke columns are lists, so an
    image is not hashable.
    """

    string_ids: tuple[int, ...]  # per string id: its string_data offset, checked
    type_names: tuple[str, ...]
    methods: _Methods
    source_name: str = "classes.dex"
    rows: _Rows = _NO_ROWS
    invokes: _Invokes = _NO_INVOKES

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(string_ids={self.string_ids!r}, type_names={self.type_names!r}, "
            f"methods={self.methods!r}, source_name={self.source_name!r})"
        )

    def method_ref(self, i: int) -> MethodRef:
        """Method id ``i`` as a ``MethodRef``, built from the columns on each call."""
        names, ids, shorties = self.methods
        name = names[i]  # an IndexError past the last id, before its bytes are read
        class_idx, proto_idx = _CLASS_AND_PROTO.unpack_from(ids, 8 * i)
        return MethodRef(self.type_names[class_idx], name, shorties[proto_idx])

    def bodies(self) -> Iterator[MethodBody]:
        """Every method body, class by class, each built from the rows as it is read; none is kept."""
        data, refs, code_starts, owners, class_ends = self.rows
        names = self.methods.names
        begin = 0
        for owner, end in zip(owners, class_ends):
            for place in range(begin, end):
                yield MethodBody(owner, names[refs[place]], _code_at(data, code_starts[place]))
            begin = end


def _uleb128(data: bytes, pos: int, limit: int) -> tuple[int, int]:
    if pos < limit and data[pos] < 0x80:  # the usual one-byte value
        return data[pos], 1
    result = 0
    shift = 0
    for i in range(5):
        if pos + i >= limit:
            raise MalformedUleb128Error(f"uleb128 truncated at offset {pos + i:#x}")
        byte = data[pos + i]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, i + 1
        shift += 7
    raise MalformedUleb128Error(f"uleb128 longer than 5 bytes at offset {pos:#x}")


def _check_section(file_len: int, off: int, count: int, item_size: int, what: str) -> None:
    if count == 0:
        return
    if off > file_len or off + count * item_size > file_len:
        raise SectionOutOfBoundsError(
            f"{what} section ({count} items at {off:#x}) extends past end of file"
        )


def parse_dex(data: bytes, source_name: str = "classes.dex") -> DexImage:
    """Parse one DEX file into its queryable image."""
    if len(data) < HEADER_SIZE:
        raise SectionOutOfBoundsError(
            f"file is {len(data)} bytes, shorter than the {HEADER_SIZE}-byte header"
        )
    if data[0:4] != b"dex\n" or data[4:8] not in _MAGIC_VERSIONS:
        raise BadMagicError(f"unsupported dex magic {data[0:8]!r}")
    endian = struct.unpack_from("<I", data, 0x28)[0]
    if endian != ENDIAN_CONSTANT:
        raise BadEndianTagError(f"endian tag {endian:#010x}")

    (
        string_ids_size, string_ids_off,
        type_ids_size, type_ids_off,
        proto_ids_size, proto_ids_off,
        field_ids_size, field_ids_off,
        method_ids_size, method_ids_off,
        class_defs_size, class_defs_off,
    ) = struct.unpack_from("<12I", data, 0x38)

    n = len(data)
    _check_section(n, string_ids_off, string_ids_size, 4, "string_ids")
    _check_section(n, type_ids_off, type_ids_size, 4, "type_ids")
    _check_section(n, proto_ids_off, proto_ids_size, 12, "proto_ids")
    _check_section(n, field_ids_off, field_ids_size, 8, "field_ids")
    _check_section(n, method_ids_off, method_ids_size, 8, "method_ids")
    _check_section(n, class_defs_off, class_defs_size, 32, "class_defs")

    string_ids = _parse_strings(data, string_ids_off, string_ids_size)
    string_count = len(string_ids)
    # A string is decoded when an id below first names it, once per distinct
    # string_data offset, and ids that share an offset share its str;
    # find(0) seeks the NUL without the buffer that a b"\x00" needle costs.
    # ``chars`` holds each byte as one code point, so an ASCII slice of it is
    # already the string's text; only other strings are decoded from bytes.
    # MUTF-8 differs from UTF-8 only for embedded NULs and supplementary
    # characters; tolerant decoding is fine for matching purposes.
    text: dict[int, str] = {}
    chars = data.decode("latin-1")

    type_names = []
    type_ids = data[type_ids_off : type_ids_off + 4 * type_ids_size]
    for i, idx in enumerate(struct.unpack(f"<{type_ids_size}I", type_ids)):
        if idx >= string_count:
            raise SectionOutOfBoundsError(f"type_id {i} names string {idx}, pool has {string_count}")
        off = string_ids[idx]
        name = text.get(off)
        if name is None:
            start = off + 1 if data[off] < 0x80 else off + _uleb128(data, off, n)[1]
            end = data.find(0, start)
            name = chars[start:end]
            name = text[off] = name if name.isascii() else data[start:end].decode("utf-8", "replace")
        type_names.append(name)

    type_count = len(type_names)
    proto_shorties = _parse_protos(data, proto_ids_off, proto_ids_size, string_ids, text, chars, type_count)
    _validate_fields(data, field_ids_off, field_ids_size, type_count, string_count)

    names = []
    method_ids = data[method_ids_off : method_ids_off + 8 * method_ids_size]
    proto_count = len(proto_shorties)
    for i, (class_idx, proto_idx, name_idx) in enumerate(struct.iter_unpack("<HHI", method_ids)):
        if class_idx >= type_count or proto_idx >= proto_count or name_idx >= string_count:
            raise SectionOutOfBoundsError(f"method_id {i} has out-of-range indices")
        off = string_ids[name_idx]
        name = text.get(off)
        if name is None:
            start = off + 1 if data[off] < 0x80 else off + _uleb128(data, off, n)[1]
            end = data.find(0, start)
            name = chars[start:end]
            name = text[off] = name if name.isascii() else data[start:end].decode("utf-8", "replace")
        names.append(name)

    walk = _Walk(data)
    try:
        walk.classes(data[class_defs_off : class_defs_off + 32 * class_defs_size], type_names, names)
    except DexError:
        walk.methods(names)  # an undefined invoke recorded before the failure comes first
        raise

    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    methods = make(_Methods, (tuple(names), method_ids, tuple(proto_shorties)))
    rows = make(_Rows, (data, tuple(walk.refs), tuple(walk.code_starts), tuple(walk.owners), tuple(walk.class_ends)))
    invokes = make(_Invokes, (walk.methods(names), walk.firsts, walk.units))
    return make(DexImage, (string_ids, tuple(type_names), methods, source_name, rows, invokes))


def _parse_strings(data: bytes, off: int, count: int) -> tuple[int, ...]:
    """The string_data offset of every string id, each checked to start a ULEB128 length and NUL-ended content.

    Valid ids take C-level checks: every offset lies in the file, every
    length of more than one byte is a valid ULEB128, and a NUL ends the
    content that starts last. Only when one fails are the distinct offsets
    checked one by one, in first-use order, so that the error names the
    first id that uses the failing offset.
    """
    n = len(data)
    ids = struct.unpack(f"<{count}I", data[off : off + 4 * count])
    if not ids:
        return ids
    top = max(ids)
    valid = False
    if top < n:
        firsts = bytes(itemgetter(*ids)(data)) if count > 1 else data[top : top + 1]
        try:
            if firsts.isascii():  # the usual case: every length takes one byte
                last = top + 1
            else:
                for data_off, first in zip(ids, firsts):
                    if first >= 0x80:
                        _uleb128(data, data_off, n)
                last = top + _uleb128(data, top, n)[1]
            # A length ends at the first byte below 0x80 after its offset, so
            # the content at the last offset starts no earlier than any other.
            valid = data.find(0, last) >= 0
        except MalformedUleb128Error:
            pass
    if not valid:
        for data_off in dict.fromkeys(ids):
            if data_off >= n:
                raise SectionOutOfBoundsError(f"string_data of string {ids.index(data_off)} at {data_off:#x}")
            if data.find(0, data_off + _uleb128(data, data_off, n)[1]) < 0:
                raise SectionOutOfBoundsError(f"string {ids.index(data_off)} is not NUL terminated")
    return ids


# The entries of a type_list of each usual size, compiled once: a format
# built per proto cost small DEXes more than a loop over the entries did.
_TYPE_LISTS = tuple(struct.Struct(f"<{size}H") for size in range(8))


def _parse_protos(data, off, count, string_ids, text, chars, type_count) -> list[str]:
    """Each proto's shorty, decoded into ``text`` as ``parse_dex`` decodes type names; each type_list is checked once."""
    n = len(data)
    shorties = []
    checked = set()  # the type_list offsets already checked; many protos may share one list
    records = struct.iter_unpack("<3I", data[off : off + 12 * count])
    for i, (shorty_idx, return_idx, params_off) in enumerate(records):
        if shorty_idx >= len(string_ids) or return_idx >= type_count:
            raise SectionOutOfBoundsError(f"proto_id {i} has out-of-range indices")
        if params_off and params_off not in checked:
            if params_off + 4 > n:
                raise SectionOutOfBoundsError(f"proto_id {i} type_list at {params_off:#x}")
            size = struct.unpack_from("<I", data, params_off)[0]
            if params_off + 4 + 2 * size > n:
                raise SectionOutOfBoundsError(f"proto_id {i} type_list overruns file")
            entries = _TYPE_LISTS[size] if size < len(_TYPE_LISTS) else struct.Struct(f"<{size}H")
            params = entries.unpack_from(data, params_off + 4)
            if size and max(params) >= type_count:
                j = next(j for j, t in enumerate(params) if t >= type_count)
                raise SectionOutOfBoundsError(f"proto_id {i} parameter {j} names type {params[j]}")
            checked.add(params_off)
        off = string_ids[shorty_idx]
        shorty = text.get(off)
        if shorty is None:
            start = off + 1 if data[off] < 0x80 else off + _uleb128(data, off, n)[1]
            end = data.find(0, start)
            shorty = chars[start:end]
            shorty = text[off] = shorty if shorty.isascii() else data[start:end].decode("utf-8", "replace")
        shorties.append(shorty)
    return shorties


def _validate_fields(data, off, count, type_count, string_count) -> None:
    records = struct.iter_unpack("<HHI", data[off : off + 8 * count])
    for i, (class_idx, type_idx, name_idx) in enumerate(records):
        if class_idx >= type_count or type_idx >= type_count or name_idx >= string_count:
            raise SectionOutOfBoundsError(f"field_id {i} has out-of-range indices")


def _payload_units(code: bytes, pos: int, end: int, owner: str, name: str) -> int:
    def halfword(at):
        if at + 2 > end:
            raise SectionOutOfBoundsError(
                f"switch/array payload truncated in {owner}->{name}"
            )
        return struct.unpack_from("<H", code, at)[0]

    ident = code[pos + 1] << 8
    size = halfword(pos + 2)
    if ident == _PACKED_SWITCH_IDENT:
        return size * 2 + 4
    if ident == _SPARSE_SWITCH_IDENT:
        return size * 4 + 2
    width = size  # element_width for fill-array-data
    count_lo = halfword(pos + 4)
    count_hi = halfword(pos + 6)
    count = (count_hi << 16) | count_lo
    return (width * count + 1) // 2 + 4


_LITTLE_ENDIAN = sys.byteorder == "little"  # memoryview.cast reads native order
_U32 = struct.Struct("<I")


class _Walk:
    """The walk over one DEX's class data and code: its method and class rows and its invoke columns.

    Code units are numbered across the whole file, unit u being bytes 2u and
    2u + 1. A code_item must start on a 4-byte boundary, so every stream
    starts on a whole unit, and one numbering serves every body; a
    code_item off that boundary raises ``MisalignedCodeItemError``.

    ``classes`` reads every class_data, method entry and instruction stream
    in one loop, the only one that steps instructions. It builds no
    ``MethodBody``: a method is one row of ``refs`` and ``code_starts``, and
    a class one row of ``owners`` and ``class_ends``, which ``DexImage``
    keeps as its rows. An invoke costs one append, its unit, and a method
    entry one more, to ``firsts``, the invoke row its body starts at; no
    position is counted. ``methods`` then reads every invoke's method index
    in one pass and checks them all at once.
    """

    __slots__ = ("data", "units", "firsts", "refs", "code_starts", "owners", "class_ends")

    def __init__(self, data: bytes):
        self.data = data
        self.units: list[int] = []
        self.firsts: list[int] = []
        self.refs: list[int] = []
        self.code_starts: list[int] = []
        self.owners: list[str] = []
        self.class_ends: list[int] = []

    def classes(self, class_defs: bytes, type_names: list[str], names: list[str]) -> None:
        """One class row per 32-byte class_def, and one method row per method entry, whose body is then walked.

        The usual method entry (one-byte ULEB128s and a code_off of up to
        three bytes) is read inline, and longer ones through ``_uleb128``.
        Every body takes one path: its code_item is checked against the file
        and the 4-byte boundary and its stream against the file, and the
        body is recorded, then walked. ``steps[u]`` is the ``_WALK_WIDTHS``
        entry of unit u's low byte, built with one ``bytes.translate`` per
        DEX. Every width and payload is checked here, so decoding the same
        bytes later cannot fail; the invoke targets are checked by
        ``methods``.
        """
        data = self.data
        n = len(data)
        steps = data[: n & ~1 : 2].translate(_WALK_WIDTHS)
        units = self.units
        refs = self.refs
        append_unit = units.append
        append_first = self.firsts.append
        append_ref = refs.append
        append_code_start = self.code_starts.append
        class_ends = self.class_ends
        u32 = _U32.unpack_from
        method_count = len(names)
        # class_idx and class_data_off of each 32-byte class_def
        for i, (class_idx, class_data_off) in enumerate(struct.iter_unpack("<I20xI4x", class_defs)):
            if class_idx >= len(type_names):
                raise SectionOutOfBoundsError(f"class_def {i} names type {class_idx}")
            owner = type_names[class_idx]
            self.owners.append(owner)  # before the walk, so a failure can name an earlier invoke's owner
            if not class_data_off:
                class_ends.append(len(refs))
                continue
            if class_data_off >= n:
                raise SectionOutOfBoundsError(f"class_data of {owner} at {class_data_off:#x}")
            pos = class_data_off
            static_fields, c = _uleb128(data, pos, n); pos += c
            instance_fields, c = _uleb128(data, pos, n); pos += c
            direct_methods, c = _uleb128(data, pos, n); pos += c
            virtual_methods, c = _uleb128(data, pos, n); pos += c
            for _ in range(static_fields + instance_fields):
                _, c = _uleb128(data, pos, n); pos += c  # field_idx_diff
                _, c = _uleb128(data, pos, n); pos += c  # access_flags

            for group_size in (direct_methods, virtual_methods):
                method_idx = 0  # the first diff of each group is the index itself
                for _ in range(group_size):
                    try:
                        diff = data[pos]
                        if diff < 0x80:
                            pos += 1
                        else:
                            diff, c = _uleb128(data, pos, n); pos += c
                        if data[pos] < 0x80:  # access_flags
                            pos += 1
                        else:
                            pos += _uleb128(data, pos, n)[1]
                        code_off = data[pos]
                        if code_off < 0x80:
                            pos += 1
                        elif pos + 2 < n and data[pos + 1] < 0x80:  # offsets below 16 KB
                            code_off = code_off & 0x7F | data[pos + 1] << 7
                            pos += 2
                        elif pos + 2 < n and data[pos + 2] < 0x80:  # offsets below 2 MB
                            code_off = code_off & 0x7F | (data[pos + 1] & 0x7F) << 7 | data[pos + 2] << 14
                            pos += 3
                        else:
                            code_off, c = _uleb128(data, pos, n); pos += c
                    except IndexError:  # a ULEB128 that starts past the end of the file
                        raise MalformedUleb128Error(f"uleb128 truncated at offset {pos:#x}") from None
                    method_idx += diff
                    if method_idx >= method_count:
                        raise SectionOutOfBoundsError(f"class_data of {owner} references method {method_idx}")
                    if code_off:
                        if code_off + 16 > n:
                            raise SectionOutOfBoundsError(f"code_item of {owner}->{names[method_idx]} at {code_off:#x}")
                        if code_off & 3:
                            raise MisalignedCodeItemError(
                                f"code_item of {owner}->{names[method_idx]} at {code_off:#x} is not 4-byte aligned"
                            )
                        start = code_off + 16
                        stop = start + 2 * u32(data, code_off + 12)[0]
                        if stop > n:
                            raise SectionOutOfBoundsError(
                                f"instruction stream of {owner}->{names[method_idx]} overruns file"
                            )
                    else:
                        start = stop = 0  # no code
                    # recorded before the walk, so a failure can name an earlier invoke's body
                    append_ref(method_idx)
                    append_code_start(start)
                    append_first(len(units))
                    end = stop >> 1
                    unit = start >> 1
                    while unit < end:
                        step = steps[unit]
                        if step > _MAX_UNITS:
                            if step == _INVOKE_MARK:
                                step = 3  # formats 35c and 3rc alike
                                append_unit(unit)
                            elif 0 < data[2 * unit + 1] < 4:
                                step = _payload_units(data, 2 * unit, stop, owner, names[method_idx])
                            else:
                                step = 1  # a plain nop
                        unit += step
                    if unit > end:  # only the last instruction reached can run past the stream
                        unit -= step
                        if steps[unit] == _INVOKE_MARK:  # an overrunning invoke names nothing to check
                            units.pop()
                        raise SectionOutOfBoundsError(
                            f"instruction 0x{data[2 * unit]:02x} at +{2 * unit - start:#x} "
                            f"overruns {owner}->{names[method_idx]}"
                        )
            class_ends.append(len(refs))

    def methods(self, names: list[str]) -> str:
        """``_Invokes.methods``: the method index each recorded invoke names, all checked at once.

        The first invoke that names a method past ``names`` raises,
        with the owner and name of its body, read from the rows.
        """
        data = self.data
        if _LITTLE_ENDIAN:
            words = memoryview(data)[2 : len(data) & ~1].cast("H")  # words[u]: code unit u + 1
        else:
            words = struct.unpack(f"<{max(0, len(data) // 2 - 1)}H", data[2 : len(data) & ~1])
        units = self.units
        # itemgetter gathers in one call, but returns a bare item for a single unit.
        methods = itemgetter(*units)(words) if len(units) > 1 else [words[u] for u in units]
        method_count = len(names)
        if methods and max(methods) >= method_count:
            row = next(row for row, index in enumerate(methods) if index >= method_count)
            place = bisect_right(self.firsts, row) - 1
            owner = self.owners[bisect_right(self.class_ends, place)]
            raise SectionOutOfBoundsError(
                f"invoke in {owner}->{names[self.refs[place]]} names method {methods[row]}, "
                f"only {method_count} defined"
            )
        if len(methods) < 16:  # a few chr calls cost less than packing
            return "".join(map(chr, methods))
        # UTF-32 keeps one character per index; surrogatepass lets 0xD800-0xDFFF through.
        return struct.pack(f"<{len(methods)}I", *methods).decode("utf-32-le", "surrogatepass")


def _decode_instructions(code: bytes, owner: str, name: str) -> tuple[Instruction, ...]:
    """Decode a stream that ``parse_dex`` has already checked."""
    out = []
    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    pos = 0
    n = len(code)
    while pos < n:
        op = code[pos]
        if op == 0x00 and 0 < code[pos + 1] < 4:
            units = _payload_units(code, pos, n, owner, name)
        else:
            units = _OP_UNITS[op]
        literal = _literal_at(code, pos) if op in CONST_OPS else None
        method = code[pos + 2] | code[pos + 3] << 8 if op in INVOKE_OPS else None
        out.append(make(Instruction, (op, pos, units, literal, method)))
        pos += units * 2
    return tuple(out)


# ---------------------------------------------------------------------------
# Rule-facing queries
# ---------------------------------------------------------------------------


_Site = tuple[str, str, MethodRef, int, int]  # see _sites_of


def _sites_of(dex: DexImage, targets: list[int]) -> list[_Site]:
    """Call sites of the given method indices from the invoke columns: body order, then offset.

    A site is ``(owner, name, callee, offset, place)``: its calling method's
    class and name, the method it calls, the invoke's byte offset in the
    caller's code and the caller's ordinal in ``bodies()`` order. The caller
    is read from the method and class rows, and nothing is built for a site
    but its tuple; the callee is one ``MethodRef`` per target.
    """
    methods, firsts, units = dex.invokes
    names = dex.methods.names
    _, body_refs, code_starts, owners, class_ends = dex.rows
    sites = []
    for i in targets:
        callee = dex.method_ref(i)
        char = chr(i)
        row = methods.find(char)
        while row >= 0:
            place = bisect_right(firsts, row) - 1
            owner, name = owners[bisect_right(class_ends, place)], names[body_refs[place]]
            sites.append((owner, name, callee, 2 * units[row] - code_starts[place], place))
            row = methods.find(char, row + 1)
    if len(targets) > 1:
        sites.sort(key=_BODY_ORDER)  # merge the per-target runs
    return sites


_BODY_ORDER = itemgetter(4, 3)  # a site's body ordinal, then offset


def _string_marker(dex: DexImage, exact: tuple[bytes, ...], contained: tuple[bytes, ...]) -> bytes | None:
    """The first of ``exact`` that is a whole string of ``dex``, else the first of ``contained`` inside one.

    The needles are ASCII without NUL, and decoding with ``"replace"`` maps
    each ASCII byte to itself and no other byte to ASCII, so a needle is in
    a string's text exactly when its bytes lie in the string's content:
    after its ULEB128 length, before its NUL. The search starts at the
    smallest string_data offset and runs to the end of the file: a bound at
    the end of the last string would cost a pass over the ids, and a hit
    past it fails the check below like any other hit outside a string. A
    hit outside every content moves the search on to the next content
    start, so the next hit that fails lies behind a NUL after that start,
    and the backward NUL searches of two failing hits never overlap: the
    cost stays linear whatever lies between the strings.
    """
    data, ids = dex.rows.data, dex.string_ids
    if not ids:
        return None
    n = len(data)
    lo = min(ids)
    offsets = None  # the set of ids, built on the first hit
    for needle in exact:
        pattern = needle + b"\x00"
        hit = data.find(pattern, lo + 1)
        while hit >= 0:
            if offsets is None:
                offsets = set(ids)
            # an id 1 to 5 bytes back whose ULEB128 length ends right before the hit
            off = hit - 1
            if data[off] < 0x80:
                while off not in offsets:
                    off -= 1
                    if off < hit - 5 or off < lo or data[off] < 0x80:
                        break
                else:
                    return needle
            hit = data.find(pattern, hit + 1)
    starts = None  # every content start, sorted, built at most once
    for needle in contained:
        hit = data.find(needle, lo)
        while hit >= 0:
            nul = max(data.rfind(0, lo, hit), lo - 1)  # the last NUL before the hit, or lo - 1 for none since lo
            if offsets is None:
                offsets = set(ids)
            if nul + 1 in offsets:  # the usual case: a string starts right after the NUL
                start = nul + 2 if data[nul + 1] < 0x80 else nul + 1 + _uleb128(data, nul + 1, n)[1]
                if start <= hit:
                    return needle
            if starts is None:
                starts = sorted({off + _uleb128(data, off, n)[1] for off in offsets})
            # The content starting nearest before the hit holds it if no NUL lies between.
            k = bisect_right(starts, hit)
            if k and starts[k - 1] > nul:
                return needle
            if k == len(starts):
                break
            hit = data.find(needle, starts[k])
    return None


def _scan_steps(code: bytes) -> bytes:
    """The back-scan's step table of one body: the ``_SCAN_WIDTHS`` entry of each byte of ``code``."""
    return code.translate(_SCAN_WIDTHS)


def _literal_at(code: bytes, pos: int) -> int:
    """The sign-extended literal of the const/4, const/16 or const at byte ``pos`` of ``code``."""
    op = code[pos]
    if op == OP_CONST_4:
        return ((code[pos + 1] >> 4) ^ 8) - 8  # the high nibble, sign-extended
    width = 2 if op == OP_CONST_16 else 4
    return int.from_bytes(code[pos + 2 : pos + 2 + width], "little", signed=True)


def _literals_reaching(dex: DexImage, sites: Iterable[_Site], max_lookback: int = DEFAULT_LOOKBACK) -> list[int | None]:
    """Per site of ``dex`` (in ``_sites_of`` order), the literal of the last const/4, const/16 or const before it.

    None when that const lies more than ``max_lookback`` instructions back
    or there is none. Each body's code is read by its ordinal and stepped
    forward once per call: a site resumes the walk where the previous site
    in the same body left it, so the cost is linear in instructions plus
    sites. The walk keeps the position and offset of the last const it
    passes and reads the literal from the bytes. A site out of that order
    restarts its body.
    """
    data, code_starts = dex.rows.data, dex.rows.code_starts
    literals = []
    body = -1
    pos = 0
    for owner, name, _, at, place in sites:
        if place != body or at < pos:
            body = place
            code = _code_at(data, code_starts[place])
            steps = _scan_steps(code)
            pos = index = 0
            last = last_pos = -1  # the position and offset of the last const passed
        # parse_dex checked the stream, so every step lands inside it.
        while pos < at:
            step = steps[pos]
            if step > _SCAN_MARK:
                step -= _SCAN_MARK
                if code[pos]:
                    last = index
                    last_pos = pos
                elif 0 < code[pos + 1] < 4:
                    step = 2 * _payload_units(code, pos, len(code), owner, name)
            pos += step
            index += 1
        literals.append(_literal_at(code, last_pos) if last >= 0 and index - last <= max_lookback else None)
    return literals
