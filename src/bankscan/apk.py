"""APK container access.

An APK is a ZIP archive (PKWARE APPNOTE layout, everything little-endian).
Parsing starts from the end-of-central-directory record -- the same strategy
the Android platform uses -- so archives with bytes prepended before the
first local header still open fine. Only the ``stored`` and ``deflate``
compression methods are accepted; anything else raises instead of being
silently skipped.

The archive is never changed once built and is safe to share between
threads; every ``read_entry`` call decompresses independently.
"""

from __future__ import annotations

import re
import struct
import zlib
from pathlib import Path
from typing import NamedTuple

EOCD_SIG = b"PK\x05\x06"
CENTRAL_SIG = b"PK\x01\x02"
LOCAL_SIG = b"PK\x03\x04"

METHOD_STORED = 0
METHOD_DEFLATED = 8

# EOCD comment is at most 64 KiB, so the signature lives in the last
# 64 KiB + 22 bytes of the file.
_EOCD_TAIL = 0x10000 + 22

MANIFEST_NAME = "AndroidManifest.xml"
_DEX_NAME_RE = re.compile(r"classes([0-9]*)\.dex")  # with fullmatch: ASCII digits only, no "\n" after it


class ApkError(Exception):
    """Base class for APK container failures."""


class NotAZipError(ApkError):
    """No end-of-central-directory signature found."""


class TruncatedArchiveError(ApkError):
    """Central directory or entry data extends past the file."""


class MissingManifestError(ApkError):
    """Archive has no AndroidManifest.xml entry."""


class NoDexEntriesError(ApkError):
    """Archive has no classes.dex / classesN.dex entries."""


class EntryNotFoundError(ApkError):
    """Named entry does not exist in the archive."""


class CrcMismatchError(ApkError):
    """Entry payload failed its integrity check (CRC-32, size or stream)."""


class UnsupportedCompressionError(ApkError):
    """Entry uses a compression method other than stored/deflate."""


class LocalNameMismatchError(ApkError):
    """An entry's local header names another entry than its central directory record."""


class ApkEntry(NamedTuple):
    name: str
    method: int
    crc32: int
    compressed_size: int
    uncompressed_size: int
    local_header_offset: int
    flags: int


class ApkArchive(NamedTuple):
    data: bytes
    entries: dict[str, ApkEntry]  # by name, in central-directory order

    def entry(self, name: str) -> ApkEntry:
        found = self.entries.get(name)
        if found is None:
            raise EntryNotFoundError(f"no entry named {name!r}")
        return found


def _find_eocd(data: bytes) -> int:
    if len(data) < 22:
        raise NotAZipError("file too small to hold an end-of-central-directory record")
    start = max(0, len(data) - _EOCD_TAIL)
    pos = data.rfind(EOCD_SIG, start)
    if pos < 0:
        raise NotAZipError("no end-of-central-directory signature")
    return pos


def load_apk(data: bytes) -> ApkArchive:
    """Parse APK bytes into an archive with its central-directory entry list.

    No payload is decompressed here; use :func:`read_entry` for that.
    """
    eocd_pos = _find_eocd(data)
    if eocd_pos + 22 > len(data):
        raise TruncatedArchiveError("end-of-central-directory record truncated")
    (entry_count, cd_size, cd_offset) = struct.unpack_from("<10xHII", data, eocd_pos)

    # Data prepended to the archive (how APK self-extractors and padded files
    # look) shifts every stored offset; the gap between where the central
    # directory claims to end and where the EOCD actually sits is the shift.
    shift = eocd_pos - (cd_offset + cd_size)
    if shift < 0:
        raise TruncatedArchiveError("central directory extends past its record")
    cd_offset += shift

    entries: dict[str, ApkEntry] = {}
    make = tuple.__new__  # skips NamedTuple.__new__'s per-field argument binding
    pos = cd_offset
    for _ in range(entry_count):
        if pos + 46 > eocd_pos:
            raise TruncatedArchiveError("central directory entry truncated")
        if data[pos : pos + 4] != CENTRAL_SIG:
            raise TruncatedArchiveError(
                f"bad central directory signature at offset {pos:#x}"
            )
        (
            flags,
            method,
            crc,
            csize,
            usize,
            name_len,
            extra_len,
            comment_len,
            local_off,
        ) = struct.unpack_from("<8xHH4xIIIHHH8xI", data, pos)
        name_end = pos + 46 + name_len
        if name_end > eocd_pos:
            raise TruncatedArchiveError("central directory name truncated")
        name = data[pos + 46 : name_end].decode("utf-8", "replace")
        if name in entries:
            raise TruncatedArchiveError(f"duplicate entry name {name!r}")
        entries[name] = make(ApkEntry, (name, method, crc, csize, usize, local_off + shift, flags))
        pos = name_end + extra_len + comment_len

    if MANIFEST_NAME not in entries:
        raise MissingManifestError("archive has no AndroidManifest.xml")
    if not any(_DEX_NAME_RE.fullmatch(n) for n in entries):
        raise NoDexEntriesError("archive has no classes.dex entries")

    return ApkArchive(data=data, entries=entries)


def open_apk(path: str | Path) -> ApkArchive:
    """Open an APK file from disk. See :func:`load_apk` for the parse rules."""
    return load_apk(Path(path).read_bytes())


def read_entry(archive: ApkArchive, name: str) -> bytes:
    """Return the fully decompressed, CRC-verified payload of one entry."""
    entry = archive.entry(name)
    data = archive.data

    pos = entry.local_header_offset
    if pos + 30 > len(data):
        raise TruncatedArchiveError(f"local header of {name!r} past end of file")
    if data[pos : pos + 4] != LOCAL_SIG:
        raise TruncatedArchiveError(f"bad local header signature for {name!r}")
    # Sizes in the local header may be zero (data-descriptor entries); the
    # central directory values are authoritative. The extra field can
    # legitimately differ from the central record, but the name must not, as
    # libziparchive and zipfile also require.
    name_len, extra_len = struct.unpack_from("<26xHH", data, pos)
    data_start = pos + 30 + name_len + extra_len
    data_end = data_start + entry.compressed_size
    if data_end > len(data):
        raise TruncatedArchiveError(f"payload of {name!r} past end of file")
    local_name = data[pos + 30 : pos + 30 + name_len].decode("utf-8", "replace")
    if local_name != name:
        raise LocalNameMismatchError(f"local header of {name!r} names {local_name!r}")

    if entry.flags & 0x1:
        raise UnsupportedCompressionError(f"entry {name!r} is encrypted")

    raw = data[data_start:data_end]
    if entry.method == METHOD_STORED:
        payload = raw
    elif entry.method == METHOD_DEFLATED:
        # At most one byte past the declared size: an entry that lies about it fails before it fills memory.
        inflater = zlib.decompressobj(-15)
        try:
            payload = inflater.decompress(raw, entry.uncompressed_size + 1)
            if not inflater.eof and len(payload) <= entry.uncompressed_size:  # all input read, stream unfinished
                raise zlib.error("Error -5 while decompressing data: incomplete or truncated stream")
        except zlib.error as exc:  # the messages are zlib.decompress's
            raise CrcMismatchError(f"entry {name!r}: corrupt deflate stream: {exc}") from exc
        if len(payload) > entry.uncompressed_size:
            raise CrcMismatchError(f"entry {name!r}: inflates past its declared size {entry.uncompressed_size}")
    else:
        raise UnsupportedCompressionError(
            f"entry {name!r} uses unsupported compression method {entry.method}"
        )

    if len(payload) != entry.uncompressed_size:
        raise CrcMismatchError(
            f"entry {name!r}: size {len(payload)} != declared {entry.uncompressed_size}"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != entry.crc32:
        raise CrcMismatchError(f"entry {name!r}: CRC-32 mismatch")
    return payload


def dex_entry_names(archive: ApkArchive) -> list[str]:
    """All DEX entry names: classes.dex first, then classes2.dex, ... in numeric order."""

    def key(name: str) -> int:
        suffix = _DEX_NAME_RE.fullmatch(name).group(1)  # type: ignore[union-attr]
        return 1 if suffix == "" else int(suffix)

    names = [name for name in archive.entries if _DEX_NAME_RE.fullmatch(name)]
    return sorted(names, key=key)
