"""Binary encoding primitives shared by the snapshot and the changelog.

Both durable artifacts are built from the same three layers:

* **varints** — unsigned LEB128, so small ids (the overwhelmingly common
  case for dictionary-encoded triples) cost one byte;
* **terms** — a one-byte kind tag followed by length-prefixed UTF-8
  payloads, covering every concrete :mod:`repro.rdf.terms` shape (IRI,
  blank node, plain / language-tagged / datatyped literal);
* **framed records** — ``u32 length | u32 crc32(payload) | payload``,
  the unit of the write-ahead changelog.  The CRC makes torn or
  bit-rotted tails detectable: a reader stops at the first frame whose
  length runs past the file or whose checksum disagrees, and everything
  before that point is known-good.

Beside them sits :func:`atomic_write`, the one tmp → fsync → rename →
directory-fsync file replacement every durable whole-file artifact
(snapshot image, a sharded cluster's ``cluster.json`` checkpoint,
``tenants.json``) goes through.  None of them is rewritten per commit:
a commit's durability is one appended, fsynced log record.

Everything here is pure byte manipulation — no engine types beyond the
term classes — so the on-disk format is testable in isolation and the
higher layers (:mod:`repro.persist.snapshot`,
:mod:`repro.persist.journal`) stay small.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from ..rdf.terms import BNode, IRI, Literal, Term, Triple

__all__ = [
    "FormatError",
    "write_varint",
    "read_varint",
    "write_string",
    "read_string",
    "write_term",
    "read_term",
    "write_triple",
    "read_triple",
    "frame_record",
    "read_frames",
    "fsync_dir",
    "atomic_write",
    "FRAME_HEADER",
]

# Term kind tags (disjoint from the dictionary's KIND_* — these describe
# the serialized shape, which distinguishes the three literal forms).
_TERM_IRI = 0x00
_TERM_BNODE = 0x01
_TERM_LITERAL_PLAIN = 0x02
_TERM_LITERAL_LANG = 0x03
_TERM_LITERAL_TYPED = 0x04

#: Frame header layout: payload length + CRC32 of the payload.
FRAME_HEADER = struct.Struct("<II")


class FormatError(ValueError):
    """The bytes do not parse as the expected structure."""


# --- varints -----------------------------------------------------------------
def write_varint(out: bytearray, value: int) -> None:
    """Append ``value`` as an unsigned LEB128 varint."""
    if value < 0:
        raise FormatError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Parse a varint at ``offset``; returns (value, next offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise FormatError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise FormatError("varint too long")


# --- strings -----------------------------------------------------------------
def write_string(out: bytearray, text: str) -> None:
    """Append a length-prefixed UTF-8 string."""
    payload = text.encode("utf-8")
    write_varint(out, len(payload))
    out.extend(payload)


def read_string(data: bytes, offset: int) -> tuple[str, int]:
    """Parse a length-prefixed UTF-8 string; returns (text, next offset).

    ``data`` may be ``bytes`` or a ``memoryview``; only the string's own
    payload is ever materialized (``bytes()`` of a bytes object is a
    no-op, of a memoryview slice a copy of exactly ``length`` bytes).
    """
    length, offset = read_varint(data, offset)
    end = offset + length
    if end > len(data):
        raise FormatError("truncated string")
    try:
        return bytes(data[offset:end]).decode("utf-8"), end
    except UnicodeDecodeError as error:
        raise FormatError(f"invalid UTF-8 in string: {error}") from None


# --- terms -------------------------------------------------------------------
def write_term(out: bytearray, term: Term) -> None:
    """Append one concrete RDF term (kind tag + payload strings)."""
    if isinstance(term, IRI):
        out.append(_TERM_IRI)
        write_string(out, term.value)
    elif isinstance(term, BNode):
        out.append(_TERM_BNODE)
        write_string(out, term.label)
    elif isinstance(term, Literal):
        if term.language is not None:
            out.append(_TERM_LITERAL_LANG)
            write_string(out, term.lexical)
            write_string(out, term.language)
        elif term.datatype is not None:
            out.append(_TERM_LITERAL_TYPED)
            write_string(out, term.lexical)
            write_string(out, term.datatype.value)
        else:
            out.append(_TERM_LITERAL_PLAIN)
            write_string(out, term.lexical)
    else:
        raise FormatError(f"not a serializable RDF term: {term!r}")


def read_term(data: bytes, offset: int) -> tuple[Term, int]:
    """Parse one term; returns (term, next offset)."""
    if offset >= len(data):
        raise FormatError("truncated term")
    kind = data[offset]
    offset += 1
    try:
        if kind == _TERM_IRI:
            value, offset = read_string(data, offset)
            return IRI(value), offset
        if kind == _TERM_BNODE:
            label, offset = read_string(data, offset)
            return BNode(label), offset
        if kind == _TERM_LITERAL_PLAIN:
            lexical, offset = read_string(data, offset)
            return Literal(lexical), offset
        if kind == _TERM_LITERAL_LANG:
            lexical, offset = read_string(data, offset)
            language, offset = read_string(data, offset)
            return Literal(lexical, language=language), offset
        if kind == _TERM_LITERAL_TYPED:
            lexical, offset = read_string(data, offset)
            datatype, offset = read_string(data, offset)
            return Literal(lexical, datatype=IRI(datatype)), offset
    except (TypeError, ValueError) as error:
        # Term constructors validate their input; a CRC-passing payload
        # that still fails construction is a format error all the same.
        raise FormatError(f"invalid term payload: {error}") from None
    raise FormatError(f"unknown term kind tag 0x{kind:02x}")


def write_triple(out: bytearray, triple: Triple) -> None:
    """Append one term-level triple (three terms, no separator)."""
    write_term(out, triple.subject)
    write_term(out, triple.predicate)
    write_term(out, triple.object)


def read_triple(data: bytes, offset: int) -> tuple[Triple, int]:
    """Parse one term-level triple; returns (triple, next offset)."""
    subject, offset = read_term(data, offset)
    predicate, offset = read_term(data, offset)
    obj, offset = read_term(data, offset)
    try:
        return Triple(subject, predicate, obj), offset
    except TypeError as error:
        raise FormatError(f"invalid triple: {error}") from None


# --- framed records ----------------------------------------------------------
def frame_record(payload: bytes) -> bytes:
    """Wrap a payload in the ``length | crc32 | payload`` frame."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_frames(
    data: bytes, offset: int = 0
) -> tuple[list[bytes], int]:
    """Parse consecutive frames starting at ``offset``.

    Returns the list of verified payloads and the offset just past the
    last *intact* frame — the durable prefix.  A frame whose header is
    incomplete, whose declared length overruns the data, or whose CRC
    disagrees ends the scan; such a tail is *torn*, not fatal.

    The scan runs over a single ``memoryview`` cursor, so each payload
    is a zero-copy window into ``data`` rather than a per-record slice —
    O(n) over the whole log instead of O(n²) in payload bytes.  The
    record decoders (:func:`read_varint` / :func:`read_string` /
    :func:`read_term`) all accept these views directly.
    """
    payloads: list[bytes] = []
    view = memoryview(data)
    size = len(view)
    while True:
        header_end = offset + FRAME_HEADER.size
        if header_end > size:
            return payloads, offset
        length, crc = FRAME_HEADER.unpack_from(view, offset)
        payload_end = header_end + length
        if payload_end > size:
            return payloads, offset
        payload = view[header_end:payload_end]
        if zlib.crc32(payload) != crc:
            return payloads, offset
        payloads.append(payload)
        offset = payload_end


def fsync_dir(directory) -> None:
    """Flush a directory entry to disk (after create/rename).

    An fsynced *file* is not durable until the directory entry naming it
    is too; without this, a power loss can surface the old name.  Best
    effort: platforms/filesystems that cannot fsync a directory are
    silently skipped (they provide no stronger primitive anyway).
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, data: bytes, fsync: bool = True) -> None:
    """Replace ``path`` with ``data`` all-or-nothing.

    The bytes land in ``path + ".tmp"`` first, then :func:`os.replace`
    swaps them in, so a reader (or a crash) sees the old file or the new
    one, never a prefix.  With ``fsync`` the temporary file is flushed
    before the rename and the directory entry after it: the rename must
    itself survive power loss before a caller acts on it (the snapshot
    writer truncates the changelog next).
    """
    path = Path(path)
    temp_path = path.with_name(path.name + ".tmp")
    with open(temp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(temp_path, path)
    if fsync:
        fsync_dir(path.parent)
