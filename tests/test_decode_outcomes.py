"""Seeded mutation-outcome pins for the AXML decoder and the DEX parser.

Each test mutates one fleet input 2,000 times from a fixed seed, records the
outcome of every decode (exception class and message, or the repr of what was
decoded) and compares the sha256 of that record with a pinned digest. A change
in any exception class, message or decoded value changes the digest, so a
rewrite of either reader must leave it as it is.

Run as a script, ``PYTHONPATH=src python tests/test_decode_outcomes.py dex``
(or ``axml``) prints the outcomes that the digest hashes, one per line, so
two trees' outcomes can be compared with ``diff``.
"""

import hashlib
import random
import struct
import sys
from typing import NamedTuple

from test_dex import call_sites, method_refs, string_pool

from bankscan.axml import decode_axml
from bankscan.dex import parse_dex
from bankscan.fixtures import build_dex, build_manifest_bytes, fleet_profiles

MUTATIONS = 2000


def _mutants(data: bytes, seed: int, size_at: int | None):
    """Truncations, byte flips and overwritten 16/32-bit fields of ``data``.

    A truncated copy gets its new length written at ``size_at``, when given,
    so that the cut reaches the inner chunks.
    """
    rng = random.Random(seed)
    for _ in range(MUTATIONS):
        buf = bytearray(data)
        if rng.random() < 0.3:
            buf = buf[: rng.randrange(len(buf) + 1)]
            if size_at is not None and len(buf) >= size_at + 4:
                struct.pack_into("<I", buf, size_at, len(buf))
        for _ in range(rng.randint(1, 4)):
            if len(buf) < 4:
                break
            i = rng.randrange(len(buf) - 3)
            kind = rng.random()
            if kind < 0.6:
                buf[i] ^= rng.randint(1, 255)
            elif kind < 0.8:
                struct.pack_into("<H", buf, i & ~1, rng.choice((0, 1, 0x7F, 0x80, 0xFFFF, rng.randrange(0x10000))))
            else:
                struct.pack_into("<I", buf, i & ~3, rng.choice((0, 1, 0x80, len(buf), 0xFFFFFFFF, rng.randrange(1 << 32))))
        yield bytes(buf)


def _outcomes(data: bytes, seed: int, size_at: int | None, decode) -> list[str]:
    """The outcome of decoding each mutant: what ``decode`` returned, or the exception's class and message."""
    outcomes = []
    for mutant in _mutants(data, seed, size_at):
        try:
            outcomes.append(decode(mutant))
        except Exception as exc:  # noqa: BLE001 - any class is part of the record
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def _digest(outcomes: list[str]) -> str:
    return hashlib.sha256("\n".join(outcomes).encode("utf-8", "surrogatepass")).hexdigest()


def _decoded_manifest(data: bytes) -> str:
    doc = decode_axml(data)
    return repr((doc.root, doc.warnings))


class ClassDef(NamedTuple):
    """A class as the digest records it: its type and its bodies, in class_def order."""

    type_name: str
    methods: tuple


class _Named(NamedTuple):
    """A body as the digest records it: its owner and name, the code left out."""

    owner: str
    name: str

    def __repr__(self) -> str:
        return f"MethodBody(owner={self.owner!r}, name={self.name!r})"


def _classes(image) -> tuple[ClassDef, ...]:
    """Every class of ``image`` with its bodies, built from its rows and ``bodies()``."""
    bodies = [_Named(body.owner, body.name) for body in image.bodies()]
    begins = (0, *image.rows.class_ends)
    return tuple(ClassDef(owner, tuple(bodies[b:e])) for owner, b, e in zip(image.rows.owners, begins, image.rows.class_ends))


def _parsed_dex(data: bytes) -> str:
    image = parse_dex(data)
    return repr((method_refs(image), string_pool(image), _classes(image), call_sites(image)))


def _axml_outcomes() -> list[str]:
    return _outcomes(build_manifest_bytes(fleet_profiles()[-1]), 6, 4, _decoded_manifest)


def _dex_outcomes() -> list[str]:
    return _outcomes(build_dex(fleet_profiles()[-1]).data, 6, None, _parsed_dex)


def test_axml_mutation_outcomes_pinned():
    assert _digest(_axml_outcomes()) == "17c297a6cb5adce7df76d6271f61f3cf42a61b930d71599fc4cf2abd1bf57d43"


def test_dex_mutation_outcomes_pinned():
    assert _digest(_dex_outcomes()) == "3885a5cde650c9a195627acd63839a4713a7240f61858b4ca549652bf9a377b7"


if __name__ == "__main__":
    outcomes = {"axml": _axml_outcomes, "dex": _dex_outcomes}
    if sys.argv[1:] not in ([name] for name in outcomes):
        sys.exit(f"usage: {sys.argv[0]} axml|dex")
    sys.stdout.reconfigure(errors="surrogatepass")  # as the digest encodes them
    for line in outcomes[sys.argv[1]]():
        print(line)
