"""DEX parser tests.

The emitter records its invocation targets and pooled strings at emission
time, so it doubles as the oracle; independent struct reads of the header
cross-check section counts.
"""

import copy
import functools
from bisect import bisect_right
import gc
import hashlib
import json
import pickle
import struct
import time
import tracemalloc
import zlib
from collections import defaultdict
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bankscan import dex as dex_module
from bankscan import scanner
from bankscan.apk import dex_entry_names, load_apk, read_entry
from bankscan.cli import main
from bankscan.report import render_report, serialize
from bankscan.dex import (
    BadEndianTagError,
    BadMagicError,
    DexError,
    Instruction,
    MalformedUleb128Error,
    MethodBody,
    MisalignedCodeItemError,
    SectionOutOfBoundsError,
    _sites_of,
    parse_dex,
)
from bankscan.fixtures import (
    MethodSketch,
    build_dex,
    build_fixture,
    build_manifest_bytes,
    clean_profile,
    emit_dex,
    fleet_profiles,
    pack_apk,
    rule_oracle_corpus,
)
from bankscan.fixtures.profiles import (
    JFILE,
    STRING,
    WEBVIEW,
    CodeKnobs,
    method_sketches,
)

OBJECT = "Ljava/lang/Object;"


# --- call-site queries over the invoke columns ----------------------------------
# The generic queries the scan no longer calls, kept as the tests' way in to
# the invoke columns: the rules resolve their targets in rules._dex_facts.


def _owner_matches(pattern: str, owner: str) -> bool:
    if pattern.endswith("*"):
        return owner.startswith(pattern[:-1])
    return owner == pattern


class Site(NamedTuple):
    """A call site as ``_sites_of`` gives it, its fields named; it equals the plain tuple."""

    owner: str  # the calling method's class
    name: str  # the calling method's name
    callee: dex_module.MethodRef
    offset: int  # the invoke's byte offset in the caller's code
    place: int  # the caller's ordinal in bodies() order


def sites_of(dex, targets):
    return [Site(*site) for site in _sites_of(dex, targets)]


def invocations_where(dex, matches):
    """Every invoke whose target satisfies ``matches``: body order, then position."""
    return sites_of(dex, [i for i, ref in enumerate(method_refs(dex)) if matches(ref)])


def invocations_of(dex, owner_pattern, method_name):
    """Every invoke whose target has the name and an owner matching the pattern (a ``*`` suffix is a prefix)."""
    return invocations_where(dex, lambda ref: ref.name == method_name and _owner_matches(owner_pattern, ref.owner))


def body_at(image, place):
    """The body ``image.bodies()`` yields at ordinal ``place``."""
    return list(image.bodies())[place]


def position(image, site):
    """The index among its caller's decoded instructions of the instruction that starts at the site's offset.

    Builds every body of ``image`` and decodes the caller's; fails unless
    exactly one instruction starts there.
    """
    _, _, _, offset, place = site
    [index] = [i for i, ins in enumerate(body_at(image, place).instructions) if ins.offset == offset]
    return index


def literal_reaching(image, site, max_lookback=dex_module.DEFAULT_LOOKBACK):
    """The const back-scan for one site."""
    return dex_module._literals_reaching(image, [site], max_lookback)[0]


def row_places(image):
    """The body ordinal of every invoke row, found in ``invokes.firsts`` by bisection."""
    firsts = image.invokes.firsts
    return [bisect_right(firsts, row) - 1 for row in range(len(image.invokes.units))]


def call_sites(image):
    """Each invoked method index, in first-call order, with its sites in body order.

    A site is (body ordinal, position in body.instructions, byte offset in
    body.code): the ordinal is read from the invoke columns, and the position
    and offset are what ``_sites_of`` derives from them.
    """
    methods, places = image.invokes.methods, row_places(image)
    sites = {}
    every = sites_of(image, sorted(set(map(ord, methods))))  # one site per row, in row order
    for char, ordinal, site in zip(methods, places, every, strict=True):
        assert site.place == ordinal and site.callee == image.method_ref(ord(char))
        sites.setdefault(ord(char), []).append((ordinal, position(image, site), site.offset))
    return sites


def method_refs(image):
    """Every method id of ``image`` as a ``MethodRef``, each built by ``image.method_ref``."""
    return tuple(map(image.method_ref, range(len(image.methods.names))))


def string_pool(image):
    """The text of every string id of ``image``, decoded in full: the reference for what ``parse_dex`` decodes."""
    data = image.rows.data
    pool = []
    for off in image.string_ids:
        start = off + dex_module._uleb128(data, off, len(data))[1]
        pool.append(data[start : data.index(b"\x00", start)].decode("utf-8", "replace"))
    return tuple(pool)


@pytest.fixture(scope="module")
def addjs_artifact():
    return emit_dex(
        "Lfixture/addjs/Markers;",
        method_sketches(CodeKnobs(add_javascript_interface=True)),
    )


@pytest.fixture(scope="module")
def clean_artifact():
    return emit_dex("Lfixture/clean/Markers;", method_sketches(CodeKnobs()))


def test_parse_exposes_method_refs(addjs_artifact):
    image = parse_dex(addjs_artifact.data)
    triples = {(m.owner, m.name, m.shorty) for m in method_refs(image)}
    assert (WEBVIEW, "addJavascriptInterface", "VLL") in triples


def test_invocation_targets_match_emitter_record(addjs_artifact, clean_artifact):
    for artifact in (addjs_artifact, clean_artifact):
        image = parse_dex(artifact.data)
        seen = set()
        for body in image.bodies():
            for ins in body.instructions:
                if ins.method_index is not None:
                    ref = image.method_ref(ins.method_index)
                    seen.add((ref.owner, ref.name))
        assert seen == set(artifact.invocation_targets)


def test_const_strings_pooled(addjs_artifact):
    image = parse_dex(addjs_artifact.data)
    pool = string_pool(image)
    for s in addjs_artifact.const_strings:
        assert s in pool


def test_header_counts_match_raw_struct(addjs_artifact):
    image = parse_dex(addjs_artifact.data)
    string_count = struct.unpack_from("<I", addjs_artifact.data, 0x38)[0]
    type_count = struct.unpack_from("<I", addjs_artifact.data, 0x40)[0]
    method_count = struct.unpack_from("<I", addjs_artifact.data, 0x58)[0]
    assert len(image.string_ids) == string_count
    assert len(image.type_names) == type_count
    assert len(image.methods.names) == method_count


def test_emitted_checksums_verify(addjs_artifact):
    data = addjs_artifact.data
    assert data[0:8] == b"dex\n035\x00"
    checksum = struct.unpack_from("<I", data, 8)[0]
    assert checksum == zlib.adler32(data[12:]) & 0xFFFFFFFF
    assert data[12:32] == hashlib.sha1(data[32:]).digest()
    assert struct.unpack_from("<I", data, 0x20)[0] == len(data)


def test_parse_deterministic(addjs_artifact):
    assert parse_dex(addjs_artifact.data) == parse_dex(addjs_artifact.data)


@pytest.mark.parametrize(
    "magic, message",
    [
        (b"\x00" * 8, "unsupported dex magic b'\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00'"),
        (b"dex\n040\x00", "unsupported dex magic b'dex\\n040\\x00'"),  # 039 is the last version read
    ],
    ids=["zero", "dex-040"],
)
def test_bad_magic_on_zero_header(magic, message):
    with pytest.raises(BadMagicError) as info:
        parse_dex(magic + b"\x00" * 0x68)
    assert str(info.value) == message


def test_short_file_rejected():
    with pytest.raises(SectionOutOfBoundsError):
        parse_dex(b"dex\n035\x00" + b"\x00" * 8)


def test_bad_endian_tag(clean_artifact):
    data = bytearray(clean_artifact.data)
    struct.pack_into("<I", data, 0x28, 0x78563412)
    with pytest.raises(BadEndianTagError):
        parse_dex(bytes(data))


def test_string_ids_offset_out_of_bounds(clean_artifact):
    data = bytearray(clean_artifact.data)
    struct.pack_into("<I", data, 0x3C, len(data) + 0x1000)
    with pytest.raises(SectionOutOfBoundsError):
        parse_dex(bytes(data))


def test_uleb128_overlong_rejected(clean_artifact):
    from bankscan.dex import _uleb128

    with pytest.raises(MalformedUleb128Error):
        _uleb128(b"\xff\xff\xff\xff\xff\xff", 0, 6)
    with pytest.raises(MalformedUleb128Error):
        _uleb128(b"\xff", 0, 1)
    assert _uleb128(b"\xe5\x8e\x26", 0, 3) == (624485, 3)


def test_invocations_exact_and_wildcard(addjs_artifact):
    image = parse_dex(addjs_artifact.data)
    exact = invocations_of(image, WEBVIEW, "addJavascriptInterface")
    assert len(exact) == 1
    assert (exact[0].owner, exact[0].name) == ("Lfixture/addjs/Markers;", "bindJsBridge")
    assert invocations_of(image, "Landroid/webkit/*", "addJavascriptInterface") == exact
    assert invocations_of(image, "Lcom/nothing/*", "addJavascriptInterface") == []


def test_invocations_absent_on_clean(clean_artifact):
    image = parse_dex(clean_artifact.data)
    assert invocations_of(image, WEBVIEW, "addJavascriptInterface") == []


def test_two_call_sites_have_distinct_offsets():
    delete = (JFILE, "delete", ("Z", ()))
    art = emit_dex(
        "Lfixture/twodeletes/App;",
        [
            MethodSketch(
                "cleanup",
                [
                    ("invoke-virtual", [0], delete),
                    ("invoke-virtual", [1], delete),
                    ("return-void",),
                ],
            )
        ],
    )
    image = parse_dex(art.data)
    sites = invocations_of(image, JFILE, "delete")
    assert len(sites) == 2
    assert sites[0].offset != sites[1].offset


def _walked_sites(image, owner_pattern, method_name):
    """Reference for invocations_of: a walk over every instruction of every body."""
    sites = []
    for ordinal, body in enumerate(image.bodies()):
        for i, ins in enumerate(body.instructions):
            if ins.method_index is None:
                continue
            ref = image.method_ref(ins.method_index)
            owner_hit = (
                ref.owner.startswith(owner_pattern[:-1])
                if owner_pattern.endswith("*")
                else ref.owner == owner_pattern
            )
            if ref.name == method_name and owner_hit:
                sites.append((ordinal, body.owner, body.name, i, ref, ins.offset))
    return sites


def _indexed_sites(image, owner_pattern, method_name):
    return [
        (site.place, site.owner, site.name, position(image, site), site.callee, site.offset)
        for site in invocations_of(image, owner_pattern, method_name)
    ]


def _assert_index_matches_walk(image):
    names = set(image.methods.names)
    queries = {(ref.owner, ref.name) for ref in method_refs(image)}
    queries |= {(pattern, name) for pattern in ("*", "Landroid/webkit/*") for name in names}
    for owner_pattern, name in sorted(queries):
        assert _indexed_sites(image, owner_pattern, name) == _walked_sites(image, owner_pattern, name), (
            image.source_name, owner_pattern, name,
        )


def _multidex_images():
    second = emit_dex(
        "Lfixture/multidex/Second;",
        method_sketches(CodeKnobs(set_javascript_enabled=True, set_allow_file_access=False, file_delete=True)),
    )
    profile = fleet_profiles()[0]
    apk = pack_apk(
        [
            ("AndroidManifest.xml", build_manifest_bytes(profile)),
            ("classes.dex", build_dex(profile).data),
            ("classes2.dex", second.data),
        ]
    )
    archive = load_apk(apk)
    return [parse_dex(read_entry(archive, name), source_name=name) for name in dex_entry_names(archive)]


def test_call_site_index_matches_instruction_walk():
    images = [parse_dex(build_dex(p).data) for p in rule_oracle_corpus() + fleet_profiles()]
    multidex = _multidex_images()
    assert [image.source_name for image in multidex] == ["classes.dex", "classes2.dex"]
    for image in images + multidex:
        _assert_index_matches_walk(image)


def test_sites_of_several_targets_keep_body_then_position_order():
    # Two refs share a name; their method indices sort opposite to the order
    # their calls take in the code, so the merge must order by body, then
    # position, not by target.
    first = ("Lz/Late;", "run", ("V", ()))
    second = ("La/Early;", "run", ("V", ()))
    art = emit_dex(
        "Lfixture/interleave/App;",
        [
            MethodSketch(
                "alpha",
                [
                    ("invoke-virtual", [0], first),
                    ("invoke-virtual", [0], second),
                    ("nop",),
                    ("invoke-virtual", [0], first),
                    ("invoke-virtual", [0], second),
                    ("return-void",),
                ],
            ),
            MethodSketch("beta", [("invoke-virtual", [0], second), ("invoke-virtual", [0], first), ("return-void",)]),
        ],
    )
    image = parse_dex(art.data)
    sites = invocations_of(image, "*", "run")
    assert [(s.name, position(image, s), s.callee.owner) for s in sites] == [
        ("alpha", 0, "Lz/Late;"),
        ("alpha", 1, "La/Early;"),
        ("alpha", 3, "Lz/Late;"),
        ("alpha", 4, "La/Early;"),
        ("beta", 0, "La/Early;"),
        ("beta", 1, "Lz/Late;"),
    ]
    _assert_index_matches_walk(image)


def test_invoke_naming_undefined_method_rejected():
    delete = (JFILE, "delete", ("Z", ()))
    art = emit_dex(
        "Lfixture/badinvoke/App;",
        [MethodSketch("go", [("invoke-virtual", [0], delete), ("return-void",)])],
    )
    image = parse_dex(art.data)
    index = next(i for i, ref in enumerate(method_refs(image)) if (ref.owner, ref.name) == (JFILE, "delete"))
    invoke = struct.pack("<BBHBB", 0x6E, 1 << 4, index, 0, 0)
    assert art.data.count(invoke) == 1
    method_ids_size = struct.unpack_from("<I", art.data, 0x58)[0]
    data = bytearray(art.data)
    struct.pack_into("<H", data, art.data.index(invoke) + 2, method_ids_size)
    with pytest.raises(SectionOutOfBoundsError, match="names method"):
        parse_dex(bytes(data))


def test_call_site_index_agrees_with_decoded_records():
    images = [parse_dex(build_dex(p).data) for p in rule_oracle_corpus() + fleet_profiles()]
    for image in images + _multidex_images():
        assert call_sites(image)
        bodies = list(image.bodies())
        for method_index, sites in call_sites(image).items():
            for ordinal, at, offset in sites:
                ins = bodies[ordinal].instructions[at]
                assert (ins.offset, ins.method_index) == (offset, method_index), (image.source_name, ordinal)


def _patched_stream(instructions, patch):
    """A one-method DEX whose instruction stream ``patch(data, start, size_at)`` edits in place."""
    art = emit_dex("Lfixture/stream/App;", [MethodSketch("go", instructions)])
    [body] = parse_dex(art.data).bodies()
    data = bytearray(art.data)
    start = art.data.index(body.code)  # the code_item's insns_size sits in the 4 bytes before
    patch(data, start, start - 4)
    return bytes(data)


def test_malformed_streams_raise_from_parse_dex(monkeypatch):
    # Every stream check runs in parse_dex's walk, never in a later decode.
    def refuse(*args):
        raise AssertionError("parse_dex decoded an instruction record")

    monkeypatch.setattr(dex_module, "_decode_instructions", refuse)
    where = "Lfixture/stream/App;->go"
    const = ("const", 5, 0x7A7B7C7D)

    def cut_to_two_units(data, start, size_at):
        struct.pack_into("<I", data, size_at, 2)

    overrun = _patched_stream([const, ("return-void",)], cut_to_two_units)
    with pytest.raises(SectionOutOfBoundsError, match=rf"^instruction 0x14 at \+0x0 overruns {where}$"):
        parse_dex(overrun)

    def nop_to_switch_ident(data, start, size_at):
        data[start + 7] = 0x01  # the trailing nop becomes a packed-switch payload with no size

    truncated = _patched_stream([const, ("nop",)], nop_to_switch_ident)
    with pytest.raises(SectionOutOfBoundsError, match=rf"^switch/array payload truncated in {where}$"):
        parse_dex(truncated)

    def undefined_target(data, start, size_at):
        struct.pack_into("<H", data, start + 2, struct.unpack_from("<I", data, 0x58)[0])

    delete = (JFILE, "delete", ("Z", ()))
    bad_invoke = _patched_stream([("invoke-virtual", [0], delete), ("return-void",)], undefined_target)
    undefined = rf"^invoke in {where} names method \d+, only \d+ defined$"
    with pytest.raises(SectionOutOfBoundsError, match=undefined):
        parse_dex(bad_invoke)


# --- error precedence and misaligned code_items ------------------------------
# The walk records invokes and checks their targets after the class_data
# loop, or when another error stops it; either way the first invoke that
# names an undefined method must win over every error found after it.

_DELETE = (JFILE, "delete", ("Z", ()))
_ORDER_OWNER = "Lfixture/order/App;"
# a: invoke at unit 0, const at 3, nop at 6, return-void at 7.
# b: const at unit 0, invoke at 3, return-void at 6.
_ORDER_METHODS = [
    MethodSketch("a", [("invoke-virtual", [0], _DELETE), ("const", 5, 0x7A7B7C7D), ("nop",), ("return-void",)]),
    MethodSketch("b", [("const", 5, 0x71727374), ("invoke-virtual", [1], _DELETE), ("return-void",)]),
]


def _second_method_diff_at(data):
    """Offset of the method_idx_diff of the second direct method in the first class_data."""
    pos = _u32(data, _u32(data, 0x64) + 24)
    for _ in range(4 + 3):  # four counts, then diff, access_flags and code_off of the first method
        pos += dex_module._uleb128(data, pos, len(data))[1]
    return pos


def _bad_invoke_in_a(data, starts):
    struct.pack_into("<H", data, starts["a"] + 2, _u32(data, 0x58))


def _overrun_in_a(data, starts):
    struct.pack_into("<I", data, starts["a"] - 4, 5)  # the const at unit 3 now runs past unit 5


def _truncated_payload_in_a(data, starts):
    struct.pack_into("<I", data, starts["a"] - 4, 7)  # drop return-void: the nop is the last unit
    data[starts["a"] + 13] = 0x01  # and starts a packed-switch payload with no size


def _bad_class_data_after_a(data, starts):
    data[_second_method_diff_at(data)] = 0x7F


def _second_bad_invoke_in_b(data, starts):
    struct.pack_into("<H", data, starts["b"] + 8, _u32(data, 0x58) + 1)


_ORDER_CODE = {body.name: body.code for body in parse_dex(emit_dex(_ORDER_OWNER, _ORDER_METHODS).data).bodies()}


def _order_dex(*patches, misaligned=()):
    """The two-method DEX of ``_ORDER_METHODS``, the code_items of ``misaligned`` moved to odd offsets, each ``patch(data, code starts)`` applied.

    ``_moved_code_items`` appends a moved code_item after the original, so
    the stream a body reads is the last copy in the file.
    """
    data = emit_dex(_ORDER_OWNER, _ORDER_METHODS).data
    if misaligned:
        data = _moved_code_items(data, set(misaligned), 1)
    starts = {name: data.rindex(code) for name, code in _ORDER_CODE.items()}
    assert all(start % 2 == (name in misaligned) for name, start in starts.items())
    data = bytearray(data)
    for patch in patches:
        patch(data, starts)
    return bytes(data)


def test_first_bad_invoke_outranks_every_later_error():
    methods = _u32(_order_dex(), 0x58)
    a_index = next(i for i, ref in enumerate(method_refs(parse_dex(_order_dex()))) if ref.name == "a")
    later = {
        _overrun_in_a: f"instruction 0x14 at +0x6 overruns {_ORDER_OWNER}->a",
        _truncated_payload_in_a: f"switch/array payload truncated in {_ORDER_OWNER}->a",
        _bad_class_data_after_a: f"class_data of {_ORDER_OWNER} references method {a_index + 0x7F}",
        _second_bad_invoke_in_b: f"invoke in {_ORDER_OWNER}->b names method {methods + 1}, only {methods} defined",
    }
    first = f"invoke in {_ORDER_OWNER}->a names method {methods}, only {methods} defined"
    _dex_raises(_order_dex(_bad_invoke_in_a), SectionOutOfBoundsError, first)
    for patch, message in later.items():
        _dex_raises(_order_dex(patch), SectionOutOfBoundsError, message)  # each error is real on its own
        _dex_raises(_order_dex(_bad_invoke_in_a, patch), SectionOutOfBoundsError, first)
    # b's code_item at an odd offset: a misaligned code_item after a's invoke
    b_code_off = _order_dex(misaligned=("b",)).rindex(_ORDER_CODE["b"]) - 16
    misaligned = f"code_item of {_ORDER_OWNER}->b at {b_code_off:#x} is not 4-byte aligned"
    _dex_raises(_order_dex(misaligned=("b",)), MisalignedCodeItemError, misaligned)
    _dex_raises(_order_dex(_bad_invoke_in_a, misaligned=("b",)), SectionOutOfBoundsError, first)


def _uleb(value):
    out = bytearray()
    while True:
        byte, value = value & 0x7F, value >> 7
        out.append(byte | (0x80 if value else 0))
        if not value:
            return bytes(out)


def _moved_code_items(data, names, rest):
    """``data`` with the code_items of the methods ``names`` copied to its end, each at an offset of ``rest`` mod 4.

    A new class_data pointing at the copies is appended too, and the
    class_def is pointed at it; nothing else changes.
    """
    refs = method_refs(parse_dex(data))
    class_def = _u32(data, 0x64)
    pos = _u32(data, class_def + 24)
    counts = []
    for _ in range(4):
        value, size = dex_module._uleb128(data, pos, len(data))
        counts.append(value)
        pos += size
    assert counts[0] == counts[1] == counts[3] == 0  # direct methods only, as emit_dex writes them
    out = bytearray(data)
    entries = []
    method_idx = 0
    for _ in range(counts[2]):
        fields = []
        for _ in range(3):
            value, size = dex_module._uleb128(data, pos, len(data))
            fields.append(value)
            pos += size
        diff, access, code_off = fields
        method_idx += diff
        if refs[method_idx].name in names:
            out += bytes((rest - len(out)) % 4)
            insns_size = _u32(data, code_off + 12)
            out, code_off = out + data[code_off : code_off + 16 + 2 * insns_size], len(out)
        entries.append(_uleb(diff) + _uleb(access) + _uleb(code_off))
    class_data = len(out)
    out += _uleb(0) + _uleb(0) + _uleb(counts[2]) + _uleb(0) + b"".join(entries)
    struct.pack_into("<I", out, class_def + 24, class_data)
    return bytes(out)


def test_misaligned_code_items_raise():
    data = emit_dex(_ORDER_OWNER, _ORDER_METHODS).data
    image = parse_dex(data)
    sites = invocations_of(image, JFILE, "delete")
    assert [(site.name, position(image, site), site.offset) for site in sites] == [("a", 0, 0), ("b", 1, 6)]
    assert issubclass(MisalignedCodeItemError, DexError)
    for names in ({"a"}, {"b"}, {"a", "b"}):
        first = min(names)  # a's method index is below b's, so a's entry is read first
        for rest in (1, 2, 3):  # odd offsets, and an even one off the 4-byte boundary
            moved = _moved_code_items(data, names, rest)
            code_off = moved.rindex(_ORDER_CODE[first]) - 16
            assert code_off % 4 == rest
            message = f"code_item of {_ORDER_OWNER}->{first} at {code_off:#x} is not 4-byte aligned"
            _dex_raises(moved, MisalignedCodeItemError, message)
        # copies moved to a 4-byte boundary read as the originals
        aligned = parse_dex(_moved_code_items(data, names, 0))
        assert list(aligned.bodies()) == list(image.bodies())
        assert list(call_sites(aligned).items()) == list(call_sites(image).items())
        assert invocations_of(aligned, JFILE, "delete") == sites


def test_misaligned_code_item_fails_the_scan(tmp_path, capsys):
    dex = _moved_code_items(emit_dex(_ORDER_OWNER, _ORDER_METHODS).data, {"b"}, 2)
    path = tmp_path / "misaligned.apk"
    path.write_bytes(pack_apk([("AndroidManifest.xml", build_manifest_bytes(clean_profile())), ("classes.dex", dex)]))
    assert main(["-f", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    code_off = dex.rindex(_ORDER_CODE["b"]) - 16
    assert err == (
        f"bankscan: {path}: MisalignedCodeItemError: code_item of {_ORDER_OWNER}->b at {code_off:#x} is not 4-byte aligned\n"
    )


def _live_instructions():
    return sum(1 for o in gc.get_objects() if isinstance(o, Instruction))


def test_parse_builds_no_instruction_records():
    sketches = [
        MethodSketch(f"configure{k:03d}", _padded_invoke_sketch(k % 9).instructions) for k in range(200)
    ]
    data = emit_dex("Lfixture/lazy/App;", sketches).data
    before = _live_instructions()
    image = parse_dex(data)
    assert _live_instructions() == before
    decoded = [body.instructions for body in image.bodies()]
    total = sum(map(len, decoded))
    assert total == sum(len(s.instructions) for s in sketches)
    assert _live_instructions() == before + total


def _live_tuples():
    return sum(1 for o in gc.get_objects() if type(o) is tuple)


def test_parse_builds_no_record_per_invoke():
    # 60 methods of 90 invokes: the call sites live in int columns, not tuples.
    calls = [("invoke-virtual", [k % 6], _DELETE) for k in range(90)]
    sketches = [MethodSketch(f"purge{k:02d}", calls + [("return-void",)]) for k in range(60)]
    data = emit_dex("Lfixture/columns/App;", sketches).data
    gc.collect()
    gc.disable()  # a collection would untrack tuples of ints and hide them
    try:
        before = _live_tuples()
        image = parse_dex(data)
        grown = _live_tuples() - before
    finally:
        gc.enable()
    invokes = len(image.invokes.methods)
    assert invokes == 60 * 90
    assert grown < invokes // 20, grown
    assert sum(map(len, call_sites(image).values())) == invokes


def test_invoke_columns_after_a_scan_match_the_oracle_walk(monkeypatch):
    images = []

    def recording_parse(data, source_name="classes.dex"):
        images.append(parse_dex(data, source_name=source_name))
        return images[-1]

    monkeypatch.setattr(scanner, "parse_dex", recording_parse)
    for profile in rule_oracle_corpus() + fleet_profiles():
        scanner.scan_bytes(build_fixture(profile), profile.name)
    assert len(images) == 34
    for image in images:
        walked = defaultdict(list)
        for ordinal, body in enumerate(image.bodies()):
            _oracle_walk_instructions(body.code, body.owner, body.name, len(image.methods.names), walked, ordinal)
        assert list(call_sites(image).items()) == list(walked.items())


_JS_ENABLED = ("Landroid/webkit/WebSettings;", "setJavaScriptEnabled", ("V", ("Z",)))  # R08
_FILE_ACCESS = ("Landroid/webkit/WebSettings;", "setAllowFileAccess", ("V", ("Z",)))  # R07
_ADD_FLAGS = ("Landroid/view/Window;", "addFlags", ("V", ("I",)))  # R13


def _webview_apk(methods: int) -> bytes:
    """An app shaped like a WebView-heavy one: each method has a back-scanned site, some after a switch payload."""
    calls = [(_JS_ENABLED, ("const4", 1, 1)), (_FILE_ACCESS, ("const4", 1, 0)), (_ADD_FLAGS, ("const16", 1, 0x400))]
    sketches = []
    for k in range(methods):
        target, const = calls[k % 3]
        lead = [("nop",)] * (6 if k % 4 == 3 else k % 4) + [const] + [("nop",)] * (k % 3)
        tail = [("invoke-virtual", [0], _DELETE), ("return-void",)]
        sketches.append(MethodSketch(f"screen{k:03d}", lead + [("invoke-virtual", [0, 1], target)] + tail))
    data = bytearray(emit_dex("Lfixture/webview/Screens;", sketches).data)
    # Turn the six lead-in nops of every fourth method into a packed-switch payload of
    # one target, so the back-scan steps a payload on its way to the site.
    starts = parse_dex(bytes(data)).rows.code_starts
    for k in range(3, methods, 4):
        struct.pack_into("<6H", data, starts[k], 0x0100, 1, 0, 0, 0, 0)
    manifest = build_manifest_bytes(clean_profile())
    return pack_apk([("AndroidManifest.xml", manifest), ("classes.dex", bytes(data))])


def test_scan_decodes_no_body(monkeypatch):
    images = []

    def recording_parse(data, source_name="classes.dex"):
        images.append(parse_dex(data, source_name=source_name))
        return images[-1]

    def refuse(*args):
        raise AssertionError("the scan decoded an instruction record")

    monkeypatch.setattr(scanner, "parse_dex", recording_parse)
    monkeypatch.setattr(dex_module, "_decode_instructions", refuse)
    apps = [(profile.name, build_fixture(profile)) for profile in rule_oracle_corpus() + fleet_profiles()]
    apps.append(("webview.apk", _webview_apk(60)))
    backscanned = 0
    for name, apk in apps:
        images.clear()
        result = scanner.scan_bytes(apk, name)
        for image in images:
            backscanned += any(
                (ref.owner, ref.name) in {_JS_ENABLED[:2], _FILE_ACCESS[:2], _ADD_FLAGS[:2]} for ref in method_refs(image)
            )
    assert backscanned >= 10
    assert sum(len(f.evidence) for f in result.findings if f.rule.value == "R08") == 20  # the webview app's
    assert sum(len(f.evidence) for f in result.findings if f.rule.value == "R11") == 60


def _with_every_body(image):
    list(image.bodies())  # as perfbench's traced counts do after each parse
    return image


def test_scan_reads_alike_from_rows_built_bodies_and_a_pickled_image(monkeypatch):
    # bodies() builds each body from the rows and keeps none, so reading it
    # first cannot change what a scan reads; a copied or unpickled image
    # carries the same rows.
    prepares = {
        "fresh": lambda image: image,
        "bodies": _with_every_body,
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickled": lambda image: pickle.loads(pickle.dumps(image)),
    }
    apps = [(profile.name, build_fixture(profile)) for profile in rule_oracle_corpus() + fleet_profiles()]
    apps.append(("webview.apk", _webview_apk(300)))
    results, images = {}, {}
    for way, prepare in prepares.items():
        seen = images[way] = []

        def prepared_parse(data, source_name="classes.dex", prepare=prepare, seen=seen):
            seen.append(prepare(parse_dex(data, source_name=source_name)))
            return seen[-1]

        monkeypatch.setattr(scanner, "parse_dex", prepared_parse)
        results[way] = [scanner.scan_bytes(apk, name) for name, apk in apps]
        assert results[way] == results["fresh"], way
    assert len(images["fresh"]) == 35
    for fresh, *others in zip(*images.values(), strict=True):
        for other in others:
            assert other is not fresh and other == fresh and repr(other) == repr(fresh)
            assert list(other.bodies()) == list(fresh.bodies())
    webview = results["fresh"][-1]
    assert sum(len(f.evidence) for f in webview.findings if f.rule.value == "R11") == 300
    assert sum(len(f.evidence) for f in webview.findings if f.rule.value == "R08") == 100


def _bulk_sketches(count: int) -> list[MethodSketch]:
    """Filler methods shaped like the bulk benchmark's: 40 instructions, invokes no rule asks about."""
    neutral = [
        ("nop",),
        ("const-string", 1, "k.0a1"),
        ("new-instance", 2, "Ljava/lang/StringBuilder;"),
        ("invoke-virtual", [0], (JFILE, "exists", ("Z", ()))),
        ("invoke-static", [1, 2], ("Ljava/lang/Math;", "max", ("I", ("I", "I")))),
        ("const4", 3, -5),
        ("const16", 4, 0x1234),
        ("const", 5, 0x12345678),
    ]
    return [
        MethodSketch(f"bulk{m:03d}", [neutral[(m + k) % len(neutral)] for k in range(39)] + [("return-void",)])
        for m in range(count)
    ]


def test_parsed_counts_match_bulk_sketch():
    # perfbench counts len(body.instructions) and ins.method_index per body and
    # checks them against its plan; a change to the records must keep both.
    sketches = _bulk_sketches(120)
    image = parse_dex(emit_dex("Lfixture/bulk/Part;", sketches).data)
    bodies = list(image.bodies())
    assert len(bodies) == len(sketches)
    assert sum(len(b.instructions) for b in bodies) == sum(len(s.instructions) for s in sketches)
    invokes = sum(1 for s in sketches for ins in s.instructions if ins[0].startswith("invoke-"))
    assert sum(1 for b in bodies for ins in b.instructions if ins.method_index is not None) == invokes


# --- bodies built from the rows ------------------------------------------------
# parse_dex builds no MethodBody: each method is a row, and bodies() builds
# each body from the rows as it is read and keeps none. The site query and
# the const back-scan read the rows and build no body.


def _live_method_bodies() -> int:
    gc.collect()
    return sum(type(o) is MethodBody for o in gc.get_objects())


def test_scan_render_and_serialize_build_no_method_body(monkeypatch):
    images = []

    def recording_parse(data, source_name="classes.dex"):
        images.append(parse_dex(data, source_name=source_name))  # kept, so any body it built would stay alive
        return images[-1]

    monkeypatch.setattr(scanner, "parse_dex", recording_parse)
    core = next(p for p in fleet_profiles() if p.name == "revolut-like")
    data = emit_dex("Lfixture/bulk/App;", method_sketches(core.code_knobs) + _bulk_sketches(300)).data
    apps = [(profile.name, build_fixture(profile)) for profile in rule_oracle_corpus() + fleet_profiles()]
    apps.append(("bulk.apk", pack_apk([("AndroidManifest.xml", build_manifest_bytes(core)), ("classes.dex", data)])))
    apps.append(("webview.apk", _webview_apk(60)))
    before = _live_method_bodies()
    evidence = defaultdict(int)
    for name, apk in apps:
        report = render_report(scanner.scan_bytes(apk, name), generated_at="t0")
        assert json.loads(serialize(report, "json"))["apk_name"] == name
        for section in report.sections:
            evidence[section.rule.value] += len(section.evidence)
    assert _live_method_bodies() == before
    assert len(images) == 36
    # every call-site rule and the FLAG_SECURE back-scan gave sites
    assert all(evidence[rule] for rule in ("R01", "R04", "R05", "R07", "R08", "R11"))
    assert evidence["R11"] >= 60 and evidence["R13"] < len(apps)


def _three_class_dex(artifact):
    """``artifact.data`` with a new class_defs table at its end: its one class after an empty class, then again.

    Returns the class's type, the types the empty class and the copy name,
    and the file. The copy's class_data is the original's, so its methods
    are walked a second time under the third type.
    """
    data = artifact.data
    defs = _u32(data, 0x64)
    first = data[defs : defs + 32]
    types = parse_dex(data).type_names
    owner = types[_u32(first, 0)]
    others = [t for t in types if t.startswith("L") and t != owner]
    empty = struct.pack("<I", types.index(others[0])) + first[4:24] + struct.pack("<I", 0) + first[28:]
    copy_ = struct.pack("<I", types.index(others[1])) + first[4:]
    tail = empty + first + copy_
    return owner, others[:2], _with_tail(artifact, tail, ("<I", 0x60, 3), ("<I", 0x64, len(data)))


@pytest.fixture(scope="module")
def rows_artifact():
    calls = [("const4", 1, 1), ("invoke-virtual", [0, 1], _JS_ENABLED), ("invoke-virtual", [0], _DELETE)]
    sketches = [MethodSketch(f"m{k}", calls[: 1 + k % 3] + [("return-void",)]) for k in range(6)]
    return emit_dex("Lfixture/rows/Screens;", sketches)


def test_bodies_of_every_class_are_built_from_their_rows(rows_artifact):
    owner, (empty, other), data = _three_class_dex(rows_artifact)
    image = parse_dex(bytes(data))
    assert (image.rows.owners, image.rows.class_ends) == ((empty, owner, other), (0, 6, 12))
    bodies = list(image.bodies())
    assert [(b.owner, b.name) for b in bodies] == [(t, f"m{k}") for t in (owner, other) for k in range(6)]
    plain = parse_dex(rows_artifact.data)
    assert [b.code for b in bodies] == [b.code for b in plain.bodies()] * 2
    targets = sorted(set(map(ord, image.invokes.methods)))
    sites = sites_of(image, targets)  # callers read from the rows
    assert [site.owner for site in sites] == [owner] * (len(sites) // 2) + [other] * (len(sites) // 2)
    assert [site.place for site in sites] == row_places(image)
    assert [(site.owner, site.name) for site in sites] == [(bodies[p].owner, bodies[p].name) for p in row_places(image)]
    assert list(image.bodies()) == bodies and sites_of(image, targets) == sites  # reading the bodies kept nothing


@pytest.mark.parametrize("first", ["sites", "body_table", "classes", "bodies"])
def test_a_method_gives_one_body_whichever_read_comes_first(rows_artifact, first):
    # Each read is a view over the same rows: the sites, the bodies by place,
    # the bodies grouped by class, and bodies() itself. None stores anything
    # on the image, so the order of the reads changes nothing.
    image = parse_dex(bytes(_three_class_dex(rows_artifact)[2]))
    methods, places = image.invokes.methods, row_places(image)
    begins = (0, *image.rows.class_ends)
    reads = {
        "sites": lambda: sites_of(image, sorted(set(map(ord, methods)))),
        "body_table": lambda: dict(enumerate(image.bodies())),
        "classes": lambda: [list(image.bodies())[b:e] for b, e in zip(begins, image.rows.class_ends)],
        "bodies": lambda: list(image.bodies()),
    }
    seen = {first: reads.pop(first)()}
    seen.update((name, read()) for name, read in reads.items())
    table = seen["body_table"]
    assert len(table) == 12 and list(table.values()) == seen["bodies"] == [b for cls in seen["classes"] for b in cls]
    assert [len(cls) for cls in seen["classes"]] == [0, 6, 6]
    assert all(body.owner == owner for owner, cls in zip(image.rows.owners, seen["classes"]) for body in cls)
    assert [site.place for site in seen["sites"]] == places
    assert all((site.owner, site.name) == (table[site.place].owner, table[site.place].name) for site in seen["sites"])


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda image: pickle.loads(pickle.dumps(image))])
def test_a_parsed_image_copies_and_pickles_like_one_built_by_hand(rows_artifact, clone):
    data = bytes(_three_class_dex(rows_artifact)[2])
    image = parse_dex(data, source_name="classes2.dex")
    clone = clone(image)
    fields = parse_dex(data, source_name="classes2.dex")
    by_hand = type(fields)(
        fields.string_ids, fields.type_names, fields.methods, fields.source_name, fields.rows, fields.invokes
    )
    assert clone == image == by_hand
    assert repr(clone) == repr(image) == repr(by_hand)
    assert list(clone.bodies()) == list(image.bodies()) == list(by_hand.bodies())
    targets = sorted(set(map(ord, image.invokes.methods)))
    assert sites_of(clone, targets) == sites_of(image, targets) == sites_of(by_hand, targets)


def test_undefined_invoke_names_its_owner_past_an_empty_class(rows_artifact):
    owner, _, data = _three_class_dex(rows_artifact)
    units = parse_dex(bytes(data)).invokes.units
    method_count = _u32(data, 0x58)
    struct.pack_into("<H", data, 2 * units[0] + 2, method_count)  # the first invoke, in m1
    _dex_raises(
        data, SectionOutOfBoundsError, f"invoke in {owner}->m1 names method {method_count}, only {method_count} defined"
    )


def test_invoke_columns_hold_a_row_per_invoke_and_a_first_row_per_body(rows_artifact):
    # methods and units hold one entry per invoke and firsts one per body; the
    # body that bisection finds for a row is the one whose decoded
    # instructions hold that invoke, at that offset, naming that method.
    dexes = [build_dex(p).data for p in rule_oracle_corpus() + fleet_profiles()]
    dexes.append(emit_dex("Lfixture/bulk/Part;", _bulk_sketches(300)).data)
    dexes.append(bytes(_three_class_dex(rows_artifact)[2]))  # an empty class and bodies with no invoke
    for data in dexes:
        image = parse_dex(data)
        methods, firsts, units = image.invokes
        bodies = list(image.bodies())
        held = [
            (place, ins.offset, ins.method_index)
            for place, body in enumerate(bodies)
            for ins in body.instructions
            if ins.method_index is not None
        ]
        assert len(methods) == len(units) == len(held)
        assert len(firsts) == len(bodies) == len(image.rows.refs)
        assert firsts[:1] in ([], [0]) and all(a <= b for a, b in zip(firsts, firsts[1:]))
        code_starts = image.rows.code_starts
        found = [bisect_right(firsts, row) - 1 for row in range(len(units))]
        assert [(p, 2 * u - code_starts[p], ord(c)) for p, u, c in zip(found, units, methods)] == held


def test_big_endian_index_read_gives_the_same_images_and_errors(monkeypatch, rows_artifact):
    # memoryview.cast reads native order, so a big-endian host reads the
    # invoke indices through struct.unpack instead; x86 hosts never take it.
    good = [build_dex(p).data for p in rule_oracle_corpus() + fleet_profiles()]
    _, _, empty_class = _three_class_dex(rows_artifact)
    first_invoke = parse_dex(bytes(empty_class)).invokes.units[0]
    struct.pack_into("<H", empty_class, 2 * first_invoke + 2, _u32(empty_class, 0x58))
    bad = [
        bytes(empty_class),
        _order_dex(_bad_invoke_in_a),
        _order_dex(_bad_invoke_in_a, _overrun_in_a),  # one invoke recorded when the walk stops
        _order_dex(_second_bad_invoke_in_b),
    ]

    def outcomes():
        errors = []
        for data in bad:
            with pytest.raises(DexError) as info:
                parse_dex(data)
            errors.append((type(info.value), str(info.value)))
        return [parse_dex(data) for data in good], errors

    native = outcomes()
    assert all(cls is SectionOutOfBoundsError and " names method " in message for cls, message in native[1])
    monkeypatch.setattr(dex_module, "_LITTLE_ENDIAN", False)
    assert outcomes() == native


def _padded_invoke_sketch(pad_count: int, literal: int = 1):
    target = ("Landroid/webkit/WebSettings;", "setJavaScriptEnabled", ("V", ("Z",)))
    instructions = [("const4", 1, literal)]
    instructions += [("nop",)] * pad_count
    instructions += [("invoke-virtual", [0, 1], target), ("return-void",)]
    return MethodSketch("configure", instructions)


def _single_site(image):
    [site] = invocations_of(image, "Landroid/webkit/WebSettings;", "setJavaScriptEnabled")
    return site


def test_literal_reaching_adjacent():
    image = parse_dex(emit_dex("La/A;", [_padded_invoke_sketch(0)]).data)
    site = _single_site(image)
    assert literal_reaching(image, site) == 1


def test_literal_reaching_window_boundary():
    # const + 7 nops: const is the 8th instruction back, still inside the window
    image = parse_dex(emit_dex("La/A;", [_padded_invoke_sketch(7)]).data)
    site = _single_site(image)
    assert literal_reaching(image, site) == 1
    # const + 8 nops: one past the default window
    image = parse_dex(emit_dex("La/A;", [_padded_invoke_sketch(8)]).data)
    site = _single_site(image)
    assert literal_reaching(image, site) is None
    assert literal_reaching(image, site, max_lookback=9) == 1


def test_literal_reaching_const16_and_const32():
    target = ("Landroid/view/Window;", "addFlags", ("V", ("I",)))
    for const in (("const16", 1, 0x2000), ("const", 1, 0x2000)):
        art = emit_dex(
            "La/B;",
            [MethodSketch("lock", [const, ("invoke-virtual", [0, 1], target), ("return-void",)])],
        )
        image = parse_dex(art.data)
        [site] = invocations_of(image, "Landroid/view/Window;", "addFlags")
        assert literal_reaching(image, site) == 0x2000


def test_literal_reaching_none_without_const():
    target = (JFILE, "delete", ("Z", ()))
    art = emit_dex(
        "La/C;",
        [MethodSketch("go", [("invoke-virtual", [0], target), ("return-void",)])],
    )
    image = parse_dex(art.data)
    [site] = invocations_of(image, JFILE, "delete")
    assert literal_reaching(image, site) is None


def test_negative_const4_literal_sign_extends():
    art = emit_dex(
        "La/D;",
        [MethodSketch("neg", [("const4", 0, -1), ("invoke-virtual", [0], (JFILE, "delete", ("Z", ()))), ("return-void",)])],
    )
    image = parse_dex(art.data)
    [site] = invocations_of(image, JFILE, "delete")
    assert literal_reaching(image, site) == -1


def test_instruction_offsets_strictly_increase(addjs_artifact):
    image = parse_dex(addjs_artifact.data)
    for body in image.bodies():
        offsets = [i.offset for i in body.instructions]
        assert offsets == sorted(set(offsets))
        if body.instructions:
            last = body.instructions[-1]
            assert last.offset + last.units * 2 == sum(i.units * 2 for i in body.instructions)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutations_never_crash(clean_artifact, data):
    buf = bytearray(clean_artifact.data)
    if data.draw(st.booleans()):
        buf = buf[: data.draw(st.integers(0, len(buf)))]
    for _ in range(data.draw(st.integers(1, 4))):
        if not buf:
            break
        i = data.draw(st.integers(0, len(buf) - 1))
        buf[i] ^= data.draw(st.integers(1, 255))
    try:
        parse_dex(bytes(buf))
    except DexError:
        pass


# --- pinned id-section errors -------------------------------------------------
# Exact messages for every id-section check, so a change in how the parser
# reads those sections cannot change what a caller sees. Offsets come from
# independent reads of the header: string_ids_size/off at 0x38, type_ids at
# 0x40, proto_ids at 0x48, field_ids at 0x50, method_ids at 0x58, class_defs
# at 0x60.


def _u32(data, offset):
    return struct.unpack_from("<I", data, offset)[0]


def _dex_raises(data, exc, message):
    with pytest.raises(exc) as info:
        parse_dex(bytes(data))
    assert type(info.value) is exc
    assert str(info.value) == message


def _with_tail(artifact, tail: bytes, *patches):
    """``artifact.data`` plus ``tail``, with (format, offset, value) patches applied."""
    data = bytearray(artifact.data + tail)
    for fmt, offset, value in patches:
        struct.pack_into(fmt, data, offset, value)
    return data


def test_string_section_messages(clean_artifact):
    n = len(clean_artifact.data)
    ids = _u32(clean_artifact.data, 0x3C)
    count = _u32(clean_artifact.data, 0x38)
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", 0x3C, n)),
        SectionOutOfBoundsError,
        f"string_ids section ({count} items at {n:#x}) extends past end of file",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", ids + 8, n)),
        SectionOutOfBoundsError,
        f"string_data of string 2 at {n:#x}",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x03abc", ("<I", ids + 4, n)),
        SectionOutOfBoundsError,
        "string 1 is not NUL terminated",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\xff" * 5 + b"\x00", ("<I", ids, n)),
        MalformedUleb128Error,
        f"uleb128 longer than 5 bytes at offset {n:#x}",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x80", ("<I", ids, n)),
        MalformedUleb128Error,
        f"uleb128 truncated at offset {n + 1:#x}",
    )


def test_empty_id_sections_may_point_past_the_file(clean_artifact):
    # A section of no items is not range-checked, so its offset is never read.
    data = bytearray(clean_artifact.data)
    struct.pack_into("<12I", data, 0x38, *(0, 0xFFFFFFF0) * 6)
    image = parse_dex(bytes(data))
    assert (image.string_ids, image.type_names, image.methods) == ((), (), ((), b"", ()))


def test_string_checks_name_the_first_id_whose_offset_fails(clean_artifact):
    # The ids are checked in bulk and, when that fails, offset by offset in
    # first-use order, so the message names the first failing id.
    n = len(clean_artifact.data)
    ids = _u32(clean_artifact.data, 0x3C)
    _dex_raises(
        _with_tail(clean_artifact, b"\x00", ("<I", ids + 4, n)),  # a zero length at the file's last byte
        SectionOutOfBoundsError,
        "string 1 is not NUL terminated",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x03abc", ("<I", ids, n), ("<I", ids + 4, n + 100), ("<I", ids + 8, n)),
        SectionOutOfBoundsError,
        "string 0 is not NUL terminated",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\xff" * 5 + b"\x00\x01a\x00", ("<I", ids + 4, n), ("<I", ids, n + 6)),
        MalformedUleb128Error,
        f"uleb128 longer than 5 bytes at offset {n:#x}",
    )


def test_type_and_proto_messages(clean_artifact):
    data = clean_artifact.data
    n = len(data)
    strings = _u32(data, 0x38)
    types = _u32(data, 0x40)
    protos = _u32(data, 0x4C)
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", _u32(data, 0x44), strings)),
        SectionOutOfBoundsError,
        f"type_id 0 names string {strings}, pool has {strings}",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", protos, strings)),
        SectionOutOfBoundsError,
        "proto_id 0 has out-of-range indices",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", protos + 4, types)),
        SectionOutOfBoundsError,
        "proto_id 0 has out-of-range indices",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x00\x00", ("<I", protos + 8, n)),
        SectionOutOfBoundsError,
        f"proto_id 0 type_list at {n:#x}",
    )
    _dex_raises(
        _with_tail(clean_artifact, struct.pack("<I", 100), ("<I", protos + 8, n)),
        SectionOutOfBoundsError,
        "proto_id 0 type_list overruns file",
    )
    _dex_raises(
        _with_tail(clean_artifact, struct.pack("<IHH", 2, 0, types), ("<I", protos + 8, n)),
        SectionOutOfBoundsError,
        f"proto_id 0 parameter 1 names type {types}",
    )


def _shared_type_list_dex(artifact, protos: int, params: list[int]) -> bytes:
    """``artifact`` with a new proto_ids table of ``protos`` protos, the first without parameters and the rest sharing one type_list."""
    data = bytearray(artifact.data)
    while len(data) % 4:
        data += b"\x00"
    list_off = len(data)
    data += struct.pack(f"<I{len(params)}H", len(params), *params)
    while len(data) % 4:
        data += b"\x00"
    struct.pack_into("<II", data, 0x48, protos, len(data))
    data += struct.pack("<3I", 0, 0, 0) + struct.pack("<3I", 0, 0, list_off) * (protos - 1)
    return bytes(data)


def test_protos_sharing_one_type_list_check_it_once(clean_artifact):
    # 1,000 protos naming one 10,000-entry list: checking the list per proto
    # reads ten million entries.
    data = _shared_type_list_dex(clean_artifact, 1000, [0] * 10_000)
    assert 32_000 < len(data) < 33_000
    started = time.perf_counter()
    image = parse_dex(data)
    assert time.perf_counter() - started < 0.25
    assert [ref[:2] for ref in method_refs(image)] == [ref[:2] for ref in method_refs(parse_dex(clean_artifact.data))]
    types = _u32(data, 0x40)
    bad = _shared_type_list_dex(clean_artifact, 3, [0, 0, types, types + 1])
    _dex_raises(bad, SectionOutOfBoundsError, f"proto_id 1 parameter 2 names type {types}")


def test_field_method_and_class_def_messages(clean_artifact):
    data = clean_artifact.data
    n = len(data)
    strings = _u32(data, 0x38)
    types = _u32(data, 0x40)
    methods = _u32(data, 0x5C)
    class_defs = _u32(data, 0x64)
    # One field_id read from the header's first bytes: "de" is type 0x6564.
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", 0x50, 1), ("<I", 0x54, 0)),
        SectionOutOfBoundsError,
        "field_id 0 has out-of-range indices",
    )
    for fmt, offset, value in (("<H", 0, types), ("<H", 2, 0xFFFF), ("<I", 4, strings)):
        _dex_raises(
            _with_tail(clean_artifact, b"", (fmt, methods + offset, value)),
            SectionOutOfBoundsError,
            "method_id 0 has out-of-range indices",
        )
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", class_defs, types)),
        SectionOutOfBoundsError,
        f"class_def 0 names type {types}",
    )
    owner = "Lfixture/clean/Markers;"
    _dex_raises(
        _with_tail(clean_artifact, b"", ("<I", class_defs + 24, n)),
        SectionOutOfBoundsError,
        f"class_data of {owner} at {n:#x}",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x00\x00\x01\x00" + b"\xff" * 5, ("<I", class_defs + 24, n)),
        MalformedUleb128Error,
        f"uleb128 longer than 5 bytes at offset {n + 4:#x}",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x00\x00\x01", ("<I", class_defs + 24, n)),
        MalformedUleb128Error,
        f"uleb128 truncated at offset {n + 3:#x}",
    )
    _dex_raises(
        _with_tail(clean_artifact, b"\x00\x00\x01\x00\x80\x01\x00\x00", ("<I", class_defs + 24, n)),
        SectionOutOfBoundsError,
        f"class_data of {owner} references method 128",
    )


def test_method_entry_and_code_item_messages(clean_artifact):
    # One direct method in a class_data appended at the end of the file: its
    # three ULEB128s (method_idx_diff, access_flags, code_off) cut or overlong,
    # then a code_off whose code_item or instruction stream does not fit.
    data = clean_artifact.data
    n = len(data)
    class_defs = _u32(data, 0x64)
    where = f"Lfixture/clean/Markers;->{parse_dex(data).methods.names[0]}"
    one_method = b"\x00\x00\x01\x00"
    uleb_cases = [
        (b"", f"uleb128 truncated at offset {n + 4:#x}"),  # no method_idx_diff
        (b"\x00", f"uleb128 truncated at offset {n + 5:#x}"),  # no access_flags
        (b"\x00\x81", f"uleb128 truncated at offset {n + 6:#x}"),
        (b"\x00" + b"\xff" * 5, f"uleb128 longer than 5 bytes at offset {n + 5:#x}"),
        (b"\x00\x09", f"uleb128 truncated at offset {n + 6:#x}"),  # no code_off
        (b"\x00\x09\x80", f"uleb128 truncated at offset {n + 7:#x}"),
        (b"\x00\x09\x80\x80", f"uleb128 truncated at offset {n + 8:#x}"),
        (b"\x00\x09\x80\x80\x80", f"uleb128 truncated at offset {n + 9:#x}"),
        (b"\x00\x09" + b"\x80" * 5, f"uleb128 longer than 5 bytes at offset {n + 6:#x}"),
    ]
    for entry, message in uleb_cases:
        _dex_raises(
            _with_tail(clean_artifact, one_method + entry, ("<I", class_defs + 24, n)),
            MalformedUleb128Error,
            message,
        )
    # A code_off 15 or 14 bytes before the end of the file: its 16-byte
    # code_item header does not fit, at an odd offset and at an even one off
    # the 4-byte boundary, and that is reported before the misalignment.
    assert n % 4 == 0
    for short in (15, 14):
        code_off = n + 8 - short
        entry = b"\x00\x09" + _uleb(code_off)
        assert len(entry) == 4
        _dex_raises(
            _with_tail(clean_artifact, one_method + entry, ("<I", class_defs + 24, n)),
            SectionOutOfBoundsError,
            f"code_item of {where} at {code_off:#x}",
        )
    # A code_off of three and of four ULEB128 bytes past the end of the file.
    for code_off, size in (((1 << 14) + n, 3), ((1 << 21) + n, 4)):
        entry = b"\x00\x09" + _uleb(code_off)
        assert len(entry) == 2 + size
        _dex_raises(
            _with_tail(clean_artifact, one_method + entry, ("<I", class_defs + 24, n)),
            SectionOutOfBoundsError,
            f"code_item of {where} at {code_off:#x}",
        )
    # A whole code_item header at the end of the file, whose insns_size of
    # 100 units runs past the file: on the 4-byte boundary that overrun is
    # the error; one or two bytes past it, the misalignment is found first.
    for pad in (b"", b"\x00", b"\x00\x00"):
        code_item = pad + struct.pack("<4H2I", 1, 0, 0, 0, 0, 100)
        tail = code_item + one_method + b"\x00\x09" + _uleb(n + len(pad))
        patched = _with_tail(clean_artifact, tail, ("<I", class_defs + 24, n + len(code_item)))
        if pad:
            _dex_raises(patched, MisalignedCodeItemError, f"code_item of {where} at {n + len(pad):#x} is not 4-byte aligned")
        else:
            _dex_raises(patched, SectionOutOfBoundsError, f"instruction stream of {where} overruns file")


def test_instruction_stream_may_end_at_the_last_byte_of_the_file(clean_artifact):
    # A one-method class_data, then a code_item on the 4-byte boundary whose
    # stream ends at the file's last byte, or one unit past it.
    data = clean_artifact.data
    n = len(data)
    class_defs = _u32(data, 0x64)
    where = f"Lfixture/clean/Markers;->{parse_dex(data).methods.names[0]}"
    class_data = b"\x00\x00\x01\x00" + b"\x00\x09"
    code_off = n + len(class_data) + 2
    assert len(_uleb(code_off)) == 2 and code_off % 4 == 0
    for insns_size in (1, 2):
        code_item = struct.pack("<4H2I", 1, 0, 0, 0, 0, insns_size) + b"\x0e\x00"  # return-void
        tail = class_data + _uleb(code_off) + code_item
        patched = _with_tail(clean_artifact, tail, ("<I", class_defs + 24, n))
        assert code_off + len(code_item) == len(patched)
        if insns_size == 1:
            [body] = parse_dex(bytes(patched)).bodies()
            assert (f"{body.owner}->{body.name}", body.code) == (where, b"\x0e\x00")
        else:
            _dex_raises(patched, SectionOutOfBoundsError, f"instruction stream of {where} overruns file")


def test_multibyte_uleb128_method_diff_and_string_length():
    # 130 methods of La/A; sort before Lz/Z;->go, so go's method-index diff
    # is 130 and takes two ULEB128 bytes, as does the UTF-16 length of the
    # 200-character string. The 100-character string keeps a one-byte
    # length over 200 bytes of UTF-8.
    void = ("V", ())
    calls = [("invoke-static", [], ("La/A;", f"m{i:03d}", void)) for i in range(130)]
    long_text, wide_text = "s" * 200, "é" * 100
    consts = [("const-string", 0, long_text), ("const-string", 1, wide_text)]
    art = emit_dex("Lz/Z;", [MethodSketch("go", consts + calls + [("return-void",)])])
    class_data = _u32(art.data, _u32(art.data, 0x64) + 24)
    assert art.data[class_data + 4 : class_data + 6] == b"\x82\x01"  # diff 130
    image = parse_dex(art.data)
    assert len(image.methods.names) == 131
    assert image.method_ref(130) == dex_module.MethodRef("Lz/Z;", "go", "V")
    pool = string_pool(image)
    assert {long_text, wide_text} <= set(pool)
    assert pool == tuple(sorted(pool))
    [body] = image.bodies()
    assert body.name == "go"
    for i in (0, 127, 128, 129):
        [site] = invocations_of(image, "La/A;", f"m{i:03d}")
        assert position(image, site) == 2 + i


# --- the instruction walk against its oracle ---------------------------------
# The byte-at-a-time walker as it stood before the width-table walk, kept
# verbatim as the reference: same call_sites, or the same exception class
# and message, on every stream. Its width table is rebuilt here from the
# parser's format names, so the oracle never reads the walk's own table.
# The walk it is compared with is the one parse_dex runs, through
# _parse_dex_walk, which reads its columns back through call_sites: each
# position is the decoded instruction at the offset _sites_of derives.

_OP_UNITS = tuple(dex_module._FORMAT_UNITS[f] for f in dex_module.OPCODE_FORMATS)
INVOKE_OPS = frozenset(range(0x6E, 0x73)) | frozenset(range(0x74, 0x79))
_PACKED_SWITCH_IDENT = 0x0100
_SPARSE_SWITCH_IDENT = 0x0200
_FILL_ARRAY_IDENT = 0x0300
_PAYLOAD_HIGH_BYTES = (
    _PACKED_SWITCH_IDENT >> 8, _SPARSE_SWITCH_IDENT >> 8, _FILL_ARRAY_IDENT >> 8
)


def _payload_units(code: bytes, pos: int, ident: int, owner: str, name: str) -> int:
    def halfword(at):
        if at + 2 > len(code):
            raise SectionOutOfBoundsError(
                f"switch/array payload truncated in {owner}->{name}"
            )
        return struct.unpack_from("<H", code, at)[0]

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


def _oracle_walk_instructions(
    code: bytes, owner: str, name: str, method_count: int, call_sites, ordinal: int
) -> None:
    pos = 0
    position = 0
    n = len(code)
    while pos < n:
        if pos + 2 > n:
            raise SectionOutOfBoundsError(f"dangling byte in {owner}->{name}")
        op = code[pos]
        if op == 0x00 and code[pos + 1] in _PAYLOAD_HIGH_BYTES:
            units = _payload_units(code, pos, code[pos + 1] << 8, owner, name)
        else:
            units = _OP_UNITS[op]
        end = pos + units * 2
        if end > n:
            raise SectionOutOfBoundsError(
                f"instruction 0x{op:02x} at +{pos:#x} overruns {owner}->{name}"
            )
        if op in INVOKE_OPS:
            method_index = code[pos + 2] | code[pos + 3] << 8
            if method_index >= method_count:
                raise SectionOutOfBoundsError(
                    f"invoke in {owner}->{name} names method {method_index}, "
                    f"only {method_count} defined"
                )
            call_sites[method_index].append((ordinal, position, pos))
        pos = end
        position += 1


@functools.cache
def _stream_dex(owner, name, method_count, units):
    """A DEX of ``method_count`` methods of ``owner``, the first ``name`` with ``units`` nops, and where they start.

    The others are ``name0000``, ``name0001``, ..., each a bare return-void,
    so ``name`` is method 0 and body 0.
    """
    others = [MethodSketch(f"{name}{k:04d}", [("return-void",)]) for k in range(method_count - 1)]
    data = emit_dex(owner, [MethodSketch(name, [("nop",)] * units)] + others).data
    image = parse_dex(data)
    assert len(image.methods.names) == method_count and next(image.bodies()).name == name
    return data, image.rows.code_starts[0]


def _parse_dex_walk(code, owner, name, method_count, found, ordinal):
    """The walk ``parse_dex`` runs, over one stream a DEX can hold, with the oracle's signature.

    The stream is put in a DEX of ``method_count`` methods as body 0 and
    parsed. ``parse_dex`` slices whole code units, and a stream needs a
    method to hold it, so an odd length or no method is not such a stream.
    The sites are read back through ``call_sites``, so each position is the
    one the decoder gives the offset ``_sites_of`` derives.
    """
    assert not len(code) & 1 and method_count >= 1, (code.hex(), method_count)
    data, start = _stream_dex(owner, name, method_count, len(code) // 2)
    image = parse_dex(data[:start] + code + data[start + len(code) :])
    for method_index, sites in call_sites(image).items():
        found[method_index] += [(ordinal, at, offset) for _, at, offset in sites]


def _walk_outcome(walk, code, method_count):
    sites = defaultdict(list)
    try:
        walk(code, "Lw/W;", "m", method_count, sites, 7)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return type(exc), str(exc)
    return dict(sites)


def _assert_walk_matches_oracle(code, method_count):
    expected = _walk_outcome(_oracle_walk_instructions, code, method_count)
    assert _walk_outcome(_parse_dex_walk, code, method_count) == expected, (code.hex(), method_count)
    return expected


def _units(values):
    return struct.pack(f"<{len(values)}H", *values)


def test_walk_matches_oracle_on_every_opcode_byte():
    # Each opcode byte with a payload-starting and a plain high byte, a full
    # instruction plus return-void, then every cut of it at a code unit.
    outcomes = set()
    for op in range(256):
        for high in (0x00, 0x01, 0x02, 0x03, 0x7F):
            code = _units([op | high << 8, 1, 2, 3, 4, 0x000E])
            for cut in range(0, len(code) + 1, 2):
                outcome = _assert_walk_matches_oracle(code[:cut], 2)
                outcomes.add(outcome[0].__name__ if isinstance(outcome, tuple) else "ok")
    assert outcomes == {"ok", "SectionOutOfBoundsError"}


@st.composite
def _instruction_streams(draw):
    method_count = draw(st.integers(1, 40))
    units = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("op", "op", "invoke", "payload")))
        if kind == "op":
            op = draw(st.integers(0, 255))
            high = draw(st.sampled_from((0, 1, 2, 3, draw(st.integers(0, 255)))))
            units.append(op | high << 8)
            units += draw(st.lists(st.integers(0, 0xFFFF), min_size=_OP_UNITS[op] - 1, max_size=_OP_UNITS[op] - 1))
        elif kind == "invoke":
            op = draw(st.sampled_from(sorted(INVOKE_OPS)))
            target = draw(st.integers(0, method_count + 3))  # in range, or just past it
            units += [op | draw(st.integers(0, 255)) << 8, target, draw(st.integers(0, 0xFFFF))]
        else:
            ident = draw(st.sampled_from((_PACKED_SWITCH_IDENT, _SPARSE_SWITCH_IDENT, _FILL_ARRAY_IDENT)))
            size = draw(st.integers(0, 6))
            if ident == _FILL_ARRAY_IDENT:
                count = draw(st.sampled_from((0, 1, 5, draw(st.integers(0, 0xFFFFFFFF)))))
                header = [ident, size, count & 0xFFFF, count >> 16]
                total = (size * count + 1) // 2 + 4
            else:
                header = [ident, size]
                total = size * 2 + 4 if ident == _PACKED_SWITCH_IDENT else size * 4 + 2
            # Emit the declared length, or fewer units so that the payload
            # runs into what follows or past the end of the stream.
            body = max(0, min(total, 64) - len(header) - draw(st.integers(0, 3)))
            units += header + draw(st.lists(st.integers(0, 0xFFFF), min_size=body, max_size=body))
    cut = draw(st.one_of(st.none(), st.integers(0, len(units))))
    return _units(units if cut is None else units[:cut]), method_count


@settings(max_examples=400, deadline=None)
@given(_instruction_streams())
@example((_units([0x6E, 3, 0, 0x000E]), 4))  # an in-range invoke
@example((_units([0x6E, 4, 0, 0x000E]), 4))  # a target one past the last method
@example((_units([0x0012, 0x0100, 2, 0, 0, 0, 0, 0, 0])[:-2], 1))  # a packed switch cut a unit short
def test_walk_matches_oracle(stream):
    code, method_count = stream
    _assert_walk_matches_oracle(code, method_count)


_WORD = st.integers(0, 0xFFFF)
_PLAIN_OPS = [op for op in range(256) if op not in INVOKE_OPS]


@st.composite
def _payload(draw):
    """A switch or array payload of its full declared length, as code units."""
    ident = draw(st.sampled_from((_PACKED_SWITCH_IDENT, _SPARSE_SWITCH_IDENT, _FILL_ARRAY_IDENT)))
    size = draw(st.integers(0, 5))
    if ident == _FILL_ARRAY_IDENT:
        width, elements = draw(st.sampled_from((1, 2, 4, 8))), draw(st.integers(0, 5))
        header = [ident, width, elements, 0]
        total = (width * elements + 1) // 2 + 4
    else:
        header = [ident, size]
        total = size * 2 + 4 if ident == _PACKED_SWITCH_IDENT else size * 4 + 2
    return header + draw(st.lists(_WORD, min_size=total - len(header), max_size=total - len(header)))


@st.composite
def _plain_op(draw, ops=_PLAIN_OPS):
    """One instruction of an opcode in ``ops``, with random operands; a nop never starts a payload."""
    op = draw(st.sampled_from(ops))
    high = draw(st.integers(0, 255).filter(lambda high: op or high not in _PAYLOAD_HIGH_BYTES))
    return [op | high << 8] + draw(st.lists(_WORD, min_size=_OP_UNITS[op] - 1, max_size=_OP_UNITS[op] - 1))


@st.composite
def _invoke(draw, method_count):
    """A 35c or 3rc invoke of one of ``method_count`` methods."""
    op = draw(st.sampled_from(sorted(INVOKE_OPS)))
    return [op | draw(st.integers(0, 255)) << 8, draw(st.integers(0, method_count - 1)), draw(_WORD)]


@st.composite
def _whole_streams(draw):
    """Streams of 1-4 methods that parse.

    Each stream is code units: plain instructions (nops that start no
    payload included), 35c and 3rc invokes of one of the methods, and
    switch and array payloads of their full declared length.
    """
    count = draw(st.integers(1, 4))
    streams = []
    for _ in range(count):
        units = []
        for _ in range(draw(st.integers(0, 8))):
            kind = draw(st.sampled_from(("op", "invoke", "invoke", "payload")))
            if kind == "op":
                units += draw(_plain_op())
            elif kind == "invoke":
                units += draw(_invoke(count))
            else:
                units += draw(_payload())
        streams.append(_units(units))
    return streams


def _streams_image(streams):
    """A parsed DEX whose method ``b<k>`` has stream ``streams[k]``."""
    names = [f"b{k}" for k in range(len(streams))]
    template = emit_dex("Lp/P;", [MethodSketch(name, [("nop",)] * (len(code) // 2)) for name, code in zip(names, streams)])
    data = bytearray(template.data)
    for start, code in zip(parse_dex(template.data).rows.code_starts, streams):
        data[start : start + len(code)] = code
    image = parse_dex(bytes(data))
    assert [body.code for body in image.bodies()] == streams
    return image


_INVOKE_THEN_PAYLOAD = _units([0x6E, 0, 0, 0x0100, 1, 0, 0, 0, 0, 0x000E])
_RANGE_INVOKE = _units([0x0312, 0x2074, 1, 3, 0x000E])


@settings(max_examples=150, deadline=None)
@given(_whole_streams())
@example([_INVOKE_THEN_PAYLOAD, _RANGE_INVOKE])  # an invoke the loop records before a payload
def test_site_positions_match_the_oracle_walk(streams):
    names = [f"b{k}" for k in range(len(streams))]
    image = _streams_image(streams)
    walked = defaultdict(list)
    for ordinal, body in enumerate(image.bodies()):
        _oracle_walk_instructions(body.code, body.owner, body.name, len(image.methods.names), walked, ordinal)
    assert list(call_sites(image).items()) == list(walked.items())
    for index in range(len(image.methods.names)):
        sites = [(site.name, position(image, site), site.offset) for site in sites_of(image, [index])]
        assert sites == [(names[ordinal], at, offset) for ordinal, at, offset in walked.get(index, [])]


# --- the const back-scan against its oracle ------------------------------------
# literal_reaching as it stood when it read the decoded Instruction window,
# kept verbatim as the reference for the back-scan over a body's bytes.

CONST_OPS = (0x12, 0x13, 0x14)  # const/4, const/16, const
# const/high16, const-wide/16, const-wide/32 and const-wide: never a reaching literal.
_LOOKALIKE_OPS = [0x15, 0x16, 0x17, 0x18]


def _oracle_literal_reaching(image, site, max_lookback=dex_module.DEFAULT_LOOKBACK):
    """Literal of the nearest const/4, const/16 or const before the site.

    Scans at most ``max_lookback`` instructions backwards in the site's own
    body; returns None when no const is found in the window. Register
    targets are ignored on purpose.
    """
    instructions = body_at(image, site.place).instructions
    index = position(image, site)
    for j in range(index - 1, max(-1, index - 1 - max_lookback), -1):
        if instructions[j].opcode in CONST_OPS:
            return instructions[j].literal
    return None


@st.composite
def _backscan_streams(draw):
    """Streams of 1-3 methods with invokes among consts, look-alikes and payloads.

    Each stream mixes const/4, const/16 and const with every operand, the
    const look-alikes, other plain instructions, 35c and 3rc invokes of one
    of the methods (several per stream, so several sites share a body) and
    switch and array payloads.
    """
    count = draw(st.integers(1, 3))
    kinds = ("const", "const", "lookalike", "op", "invoke", "invoke", "payload")
    streams = []
    for _ in range(count):
        units = []
        for _ in range(draw(st.integers(0, 16))):
            kind = draw(st.sampled_from(kinds))
            if kind == "const":
                units += draw(_plain_op(list(CONST_OPS)))
            elif kind == "lookalike":
                units += draw(_plain_op(_LOOKALIKE_OPS))
            elif kind == "op":
                units += draw(_plain_op())
            elif kind == "invoke":
                units += draw(_invoke(count))
            else:
                units += draw(_payload())
        streams.append(_units(units))
    return streams


_CONST_PAYLOAD_INVOKE = _units([0xF012, 0x0100, 1, 0, 0, 0, 0, 0x006E, 0, 0, 0x6E, 0, 0])
_LOOKALIKES_THEN_RANGE_INVOKE = _units([0x7013, 0xFFFE, 0x0115, 1, 0x0218, 1, 2, 3, 4, 0x2074, 1, 3, 0x000E])


@settings(max_examples=200, deadline=None)
@given(_backscan_streams())
@example([_CONST_PAYLOAD_INVOKE, _LOOKALIKES_THEN_RANGE_INVOKE])  # a payload and look-alikes in the window
def test_backscan_matches_the_instruction_window_oracle(streams):
    image = _streams_image(streams)
    sites = sites_of(image, list(range(len(image.methods.names))))
    from_rows = [dex_module._literals_reaching(image, sites, max_lookback) for max_lookback in range(13)]
    for site in sites:
        assert body_at(image, site.place).instructions[position(image, site)].opcode in INVOKE_OPS
    for max_lookback in range(13):
        expected = [_oracle_literal_reaching(image, site, max_lookback) for site in sites]
        assert [literal_reaching(image, site, max_lookback) for site in sites] == expected, max_lookback
        assert dex_module._literals_reaching(image, sites, max_lookback) == expected, max_lookback
        assert from_rows[max_lookback] == expected, max_lookback


# --- shared string data --------------------------------------------------------


def _shared_string_dex(artifact, repeats: int, length: int) -> bytes:
    """``artifact`` with ``repeats`` extra string_ids all naming one ``length``-byte string, and a type_id naming each.

    The string's data and new string_ids and type_ids tables (the old ids,
    then the repeats) are appended, and the header is pointed at the new
    tables.
    """
    data = bytearray(artifact.data)
    count, ids_off = _u32(data, 0x38), _u32(data, 0x3C)
    type_count, types_off = _u32(data, 0x40), _u32(data, 0x44)
    old_ids = data[ids_off : ids_off + 4 * count]
    old_types = data[types_off : types_off + 4 * type_count]
    shared_off = len(data)
    data += bytes([0x80 | length & 0x7F, 0x80 | length >> 7 & 0x7F, length >> 14]) + b"s" * length + b"\x00"
    while len(data) % 4:
        data += b"\x00"
    struct.pack_into("<II", data, 0x38, count + repeats, len(data))
    data += old_ids + struct.pack("<I", shared_off) * repeats
    struct.pack_into("<II", data, 0x40, type_count + repeats, len(data))
    data += old_types + struct.pack(f"<{repeats}I", *range(count, count + repeats))
    return bytes(data)


def test_repeated_string_ids_share_one_decoded_string(clean_artifact):
    data = _shared_string_dex(clean_artifact, 1000, 50_000)
    assert 50_000 < len(data) < 60_000
    tracemalloc.start()
    try:
        image = parse_dex(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(image.string_ids[-1000:])) == 1
    shared = image.type_names[-1000:]
    assert shared[0] == "s" * 50_000
    assert all(s is shared[0] for s in shared)
    # 1,000 separately decoded copies would take 50 MB.
    assert peak < 2 * 1024 * 1024
    clean = parse_dex(clean_artifact.data)
    assert image.string_ids[:-1000] == clean.string_ids
    assert image.type_names[:-1000] == clean.type_names
    assert string_pool(image)[:-1000] == string_pool(clean)


def test_repeated_string_ids_do_not_multiply_scan_memory(clean_artifact):
    # R09's marker search and the type queries must not repeat the string per id.
    manifest = build_manifest_bytes(clean_profile())
    apk = pack_apk([("AndroidManifest.xml", manifest), ("classes.dex", _shared_string_dex(clean_artifact, 1000, 50_000))])
    tracemalloc.start()
    try:
        result = scanner.scan_bytes(apk, "shared.apk")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plain = pack_apk([("AndroidManifest.xml", manifest), ("classes.dex", clean_artifact.data)])
    assert result.findings == scanner.scan_bytes(plain, "shared.apk").findings
    # The file holds 50 KB of distinct strings; a copy per id would take 50 MB.
    assert peak < 2 * 1024 * 1024


# --- method ids as columns -----------------------------------------------------
# parse_dex keeps each method id as its name and its 8 raw bytes, and
# method_ref builds a MethodRef from them. The reference decodes each id
# from the file's own records and the full string pool.


def _dex_files(apk: bytes) -> list[bytes]:
    archive = load_apk(apk)
    return [read_entry(archive, name) for name in dex_entry_names(archive)]


def _method_ids_by_struct(image, data: bytes) -> tuple[tuple[str, str, str], ...]:
    """Each method id of ``data`` as (owner, name, shorty), read with ``struct`` from its type, proto and method ids."""
    pool = string_pool(image)
    _, types_off, _, protos_off, _, _, method_count, methods_off = struct.unpack_from("<8I", data, 0x40)
    triples = []
    for i in range(method_count):
        class_idx, proto_idx, name_idx = struct.unpack_from("<HHI", data, methods_off + 8 * i)
        owner = pool[_u32(data, types_off + 4 * class_idx)]
        shorty = pool[_u32(data, protos_off + 12 * proto_idx)]  # a proto_id starts with its shorty_idx
        triples.append((owner, pool[name_idx], shorty))
    return tuple(triples)


_ACCENTED = "grüße"


def _accented_name_dex() -> bytes:
    """A DEX with a method whose name is not ASCII, invoked by another."""
    owner = "Lfixture/names/Accents;"
    call = ("invoke-static", [], (owner, _ACCENTED, ("V", ())))
    return emit_dex(owner, [MethodSketch(_ACCENTED, [("return-void",)]), MethodSketch("caller", [call, ("return-void",)])]).data


def _shared_name_dex() -> bytes:
    """A DEX whose method ids 0 and 1 name two string ids that share one string_data offset, that of id 0's name."""
    data = bytearray(emit_dex("Lfixture/names/Twin;", [MethodSketch(n, [("return-void",)]) for n in ("left", "right")]).data)
    ids_off, methods_off = _u32(data, 0x3C), _u32(data, 0x5C)
    first, second = (_u32(data, methods_off + 8 * i + 4) for i in (0, 1))
    assert first != second
    struct.pack_into("<I", data, ids_off + 4 * second, _u32(data, ids_off + 4 * first))
    return bytes(data)


def _bulk_dex() -> bytes:
    return emit_dex("Lfixture/bulk/Part;", _bulk_sketches(120)).data


def test_method_ref_matches_the_method_ids_read_with_struct(corpus, fleet):
    dexes = [dex for _, apk in corpus + fleet for dex in _dex_files(apk)]
    dexes += [_bulk_dex(), _accented_name_dex(), _shared_name_dex()]
    for data in dexes:
        image = parse_dex(data)
        expected = _method_ids_by_struct(image, data)
        assert method_refs(image) == expected
        assert image.methods.names == tuple(name for _, name, _ in expected)
    with pytest.raises(IndexError):
        image.method_ref(len(expected))
    accented, shared = map(parse_dex, dexes[-2:])
    [site] = invocations_of(accented, "Lfixture/names/Accents;", _ACCENTED)
    assert site.callee == ("Lfixture/names/Accents;", _ACCENTED, "V") and site.name == "caller"
    names = shared.methods.names
    assert names[0] == names[1] == "left" and names[0] is names[1]  # one str per shared offset


def _method_refs_held(value) -> int:
    """The ``MethodRef`` records in ``value``, counted through every tuple and list inside it."""
    if isinstance(value, dex_module.MethodRef):
        return 1
    if isinstance(value, (tuple, list)):
        return sum(map(_method_refs_held, value))
    return 0


def test_a_parsed_image_holds_no_method_ref(corpus):
    for data in [_bulk_dex(), _accented_name_dex()] + [dex for _, apk in corpus for dex in _dex_files(apk)]:
        image = parse_dex(data)
        assert [_method_refs_held(field) for field in image] == [0] * len(image)
        assert [_method_refs_held(field) for field in image.methods] == [0, 0, 0]
    assert _method_refs_held([image, (image.method_ref(0),)]) == 1


# --- record types --------------------------------------------------------------


def test_method_ref_and_invocation_site_records():
    ref = dex_module.MethodRef(owner="Landroid/webkit/WebView;", name="loadUrl", shorty="VL")
    assert repr(ref) == "MethodRef(owner='Landroid/webkit/WebView;', name='loadUrl', shorty='VL')"
    assert ref == ("Landroid/webkit/WebView;", "loadUrl", "VL")
    images = _multidex_images()
    assert len(images) == 2
    for image in images:
        raw = _sites_of(image, range(len(image.methods.names)))  # read from the rows: a plain 5-tuple per site
        assert all(type(site) is tuple and len(site) == 5 for site in raw)
        sites = invocations_where(image, lambda ref: True)
        assert sites == raw
        assert len(sites) == sum(len(v) for v in call_sites(image).values())
        refs = method_refs(image)
        names = sorted({ref.name for ref in refs})
        for found in [sites] + [invocations_of(image, "*", name) for name in names]:
            keys = [(site.place, position(image, site)) for site in found]
            assert keys == sorted(set(keys)), image.source_name
        for site in sites:
            body = body_at(image, site.place)
            assert (site.owner, site.name) == (body.owner, body.name)
            assert site.callee in refs
            assert body.instructions[position(image, site)].opcode in INVOKE_OPS
            assert repr(site.callee) == (
                f"MethodRef(owner={site.callee.owner!r}, name={site.callee.name!r}, shorty={site.callee.shorty!r})"
            )
