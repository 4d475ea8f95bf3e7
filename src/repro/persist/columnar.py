"""The snapshot image: columnar, mmap-able, zero-copy.

This is the one format the system writes — :func:`encode_columnar_snapshot`
is the only encoder in the tree, behind the durable seal
(:meth:`PersistenceManager.write_snapshot
<repro.persist.manager.PersistenceManager.write_snapshot>`) and the
replica bootstrap image (``GET /snapshot``) alike.  The image is
fixed-width sorted id columns, so a reader *maps* the file and serves
lookups straight off the mapped bytes; the sort is paid once at write
time and every later load is O(header):

::

    SLSNAP02                                   magic (8 bytes)
    header     varints: revision, axiom_count, fragment, store_spec,
               term_count, explicit_count, inferred_count, id_width
    ----8-byte aligned sections follow----
    term index (term_count + 1) u64 cumulative offsets into the blob
    term blob  concatenated term encodings (term i occupies
               bytes index[i]:index[i+1])
    SPO cols   3 arrays of triple_count ids (s, p, o columns),
               rows sorted by (s, p, o)
    POS cols   3 arrays of triple_count ids (p, o, s columns),
               rows sorted by (p, o, s)
    explicit   explicit_count ascending row indexes into the SPO
               ordering marking the explicit partition
    crc        u32 crc32 of everything after the magic

Ids are little-endian ``id_width``-byte integers (4 unless the term
table overflows u32); columns are exposed as ``memoryview.cast``
windows, so a lookup is a pair of bisects over the mapped file — no
per-triple object construction, no heap-resident copy of the store.
Term payloads use :func:`~repro.persist.format.write_term`, decoded
lazily per id through the offset index.  An image that carries a
named-graph column is ``SLSNAP03`` (see :data:`COLUMNAR_MAGIC_V3`).

:class:`ColumnarSnapshot` is duck-compatible with the legacy
:class:`~repro.persist.snapshot.Snapshot` (same metadata attributes,
same ``restore`` contract), so engine recovery, follower bootstrap and
the CLI inspector accept whatever :func:`~repro.persist.snapshot.load_snapshot`
finds on disk.  Integrity is the trailing whole-image CRC.
"""

from __future__ import annotations

import mmap
import struct
import zlib
from array import array
from typing import Iterable, Sequence

from ..dictionary.encoder import EncodedTriple, TermDictionary
from ..rdf.terms import Term
from .format import (
    FormatError,
    read_string,
    read_term,
    read_varint,
    write_string,
    write_term,
    write_varint,
)
from .snapshot import SnapshotError, restore_image

__all__ = [
    "COLUMNAR_MAGIC",
    "COLUMNAR_MAGIC_V3",
    "COLUMNAR_MAGICS",
    "ColumnarSnapshot",
    "encode_columnar_snapshot",
    "parse_columnar_snapshot",
    "load_columnar_snapshot",
]

COLUMNAR_MAGIC = b"SLSNAP02"
#: Format v3: v2 plus a sparse named-graph column (row index + graph
#: term id pairs).  Written only when the image actually carries graph
#: data, so default-graph images stay byte-identical v2; the reader
#: accepts both, loading a v2 image as "everything in the default
#: graph" — that *is* the migration.
COLUMNAR_MAGIC_V3 = b"SLSNAP03"
COLUMNAR_MAGICS = (COLUMNAR_MAGIC, COLUMNAR_MAGIC_V3)

_CRC = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def _pad8(out: bytearray) -> None:
    out.extend(b"\x00" * (_align8(len(out)) - len(out)))


def _typecode(id_width: int) -> str:
    return "I" if id_width == 4 else "Q"


# --- writer ------------------------------------------------------------------
def encode_columnar_snapshot(
    *,
    revision: int,
    fragment: str,
    store_spec: str = "hashdict",
    axiom_count: int,
    terms: Sequence[Term],
    explicit: Iterable[EncodedTriple],
    inferred: Iterable[EncodedTriple],
    graphs: Iterable[tuple[int, int, int, int]] = (),
) -> bytes:
    """The complete image as bytes: the one encode entry point.

    ``graphs`` is the sparse named-graph column as ``(s, p, o, graph)``
    id rows; a non-empty column switches the image to format v3 (the v2
    layout plus a ``graph_count`` header field and two trailing id
    arrays: SPO row indexes and their graph term ids).
    """
    explicit = list(explicit)
    inferred = list(inferred)
    graphs = sorted(graphs)
    explicit_set = set(explicit)
    rows = sorted(explicit_set.union(inferred))
    term_count = len(terms)
    id_width = 4 if term_count <= 0xFFFFFFFF and len(rows) <= 0xFFFFFFFF else 8
    code = _typecode(id_width)

    out = bytearray(COLUMNAR_MAGIC_V3 if graphs else COLUMNAR_MAGIC)
    write_varint(out, revision)
    write_varint(out, axiom_count)
    write_string(out, fragment)
    write_string(out, store_spec)
    write_varint(out, term_count)
    write_varint(out, len(explicit))
    write_varint(out, len(rows) - len(explicit))
    write_varint(out, id_width)
    if graphs:
        write_varint(out, len(graphs))

    # Term blob + cumulative offset index (encoded in id order, so
    # restore reproduces dictionary ids bit for bit).
    blob = bytearray()
    offsets = array("Q", [0])
    for term in terms:
        write_term(blob, term)
        offsets.append(len(blob))
    _pad8(out)
    out.extend(offsets.tobytes())
    out.extend(blob)

    # Sorted column sections.
    _pad8(out)
    for column in range(3):
        out.extend(array(code, [row[column] for row in rows]).tobytes())
        _pad8(out)
    rows_pos = sorted(rows, key=lambda row: (row[1], row[2], row[0]))
    for column in (1, 2, 0):
        out.extend(array(code, [row[column] for row in rows_pos]).tobytes())
        _pad8(out)

    # Explicit partition: ascending row indexes into the SPO ordering.
    explicit_rows = array(
        code, (i for i, row in enumerate(rows) if row in explicit_set)
    )
    if len(explicit_rows) != len(explicit_set):
        raise FormatError("explicit partition is not a subset of the image")
    out.extend(explicit_rows.tobytes())

    if graphs:
        # Named-graph column: ascending SPO row indexes + graph term ids.
        row_index = {row: i for i, row in enumerate(rows)}
        try:
            tagged = sorted((row_index[(s, p, o)], g) for s, p, o, g in graphs)
        except KeyError:
            raise FormatError("graph column references a triple outside the image")
        _pad8(out)
        out.extend(array(code, (i for i, _ in tagged)).tobytes())
        _pad8(out)
        out.extend(array(code, (g for _, g in tagged)).tobytes())

    out.extend(_CRC.pack(zlib.crc32(memoryview(out)[len(COLUMNAR_MAGIC):])))
    return bytes(out)


# --- reader ------------------------------------------------------------------
class ColumnarSnapshot:
    """A mapped columnar snapshot: metadata eagerly, everything else lazily.

    Duck-compatible with :class:`~repro.persist.snapshot.Snapshot`:
    ``revision`` / ``fragment`` / ``store_spec`` / ``axiom_count`` /
    ``terms`` / ``explicit`` / ``inferred`` / ``triple_count`` /
    ``restore``.  The list-shaped attributes are materialized on first
    access; zero-copy consumers use the column accessors instead.
    """

    __slots__ = (
        "revision",
        "fragment",
        "store_spec",
        "axiom_count",
        "term_count",
        "explicit_count",
        "inferred_count",
        "id_width",
        "term_index",
        "term_blob",
        "spo",
        "pos",
        "explicit_rows",
        "graph_rows",
        "graph_ids",
        "_buffer",
        "_terms",
        "_explicit",
        "_inferred",
        "_graphs",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.get(name))

    @property
    def triple_count(self) -> int:
        """Stored triples in the image, explicit plus inferred."""
        return self.explicit_count + self.inferred_count

    # --- lazy v1-compatible views ----------------------------------------
    @property
    def terms(self) -> list[Term]:
        """Every term, indexed by its snapshot id (decoded on first access)."""
        if self._terms is None:
            self._terms = [self.term(i) for i in range(self.term_count)]
        return self._terms

    @property
    def explicit(self) -> list[EncodedTriple]:
        """The asserted partition as id triples, in (s, p, o) order."""
        if self._explicit is None:
            spo_s, spo_p, spo_o = self.spo
            self._explicit = [
                (spo_s[i], spo_p[i], spo_o[i]) for i in self.explicit_rows
            ]
        return self._explicit

    @property
    def inferred(self) -> list[EncodedTriple]:
        """The derived partition as id triples, in (s, p, o) order."""
        if self._inferred is None:
            explicit = set(self.explicit_rows)
            spo_s, spo_p, spo_o = self.spo
            self._inferred = [
                (spo_s[i], spo_p[i], spo_o[i])
                for i in range(self.triple_count)
                if i not in explicit
            ]
        return self._inferred

    @property
    def graphs(self) -> list[tuple[int, int, int, int]]:
        """The named-graph column as ``(s, p, o, graph)`` id rows."""
        if self._graphs is None:
            spo_s, spo_p, spo_o = self.spo
            self._graphs = [
                (spo_s[i], spo_p[i], spo_o[i], g)
                for i, g in zip(self.graph_rows or (), self.graph_ids or ())
            ]
        return self._graphs

    def term(self, term_id: int) -> Term:
        """Decode one term by id, straight from the mapped blob."""
        start = self.term_index[term_id]
        term, _ = read_term(self.term_blob[start:self.term_index[term_id + 1]], 0)
        return term

    def restore(self, dictionary: TermDictionary, store) -> set[EncodedTriple]:
        """Load the image into ``dictionary`` + ``store``; returns the
        restored explicit set (see
        :func:`~repro.persist.snapshot.restore_image`).  Rows are in
        (s, p, o) order, so a fresh dictionary + empty store end up
        bit-identical to a legacy v1 restore of the same closure."""
        return restore_image(self, dictionary, store)

    def close(self) -> None:
        """Release the underlying map (a no-op for in-memory images)."""
        buffer = self._buffer
        self._buffer = None
        self.term_index = self.term_blob = None
        self.spo = self.pos = self.explicit_rows = None
        self.graph_rows = self.graph_ids = None
        if isinstance(buffer, mmap.mmap):
            buffer.close()

    def __repr__(self):
        return (
            f"<ColumnarSnapshot rev={self.revision} fragment={self.fragment!r} "
            f"terms={self.term_count} explicit={self.explicit_count} "
            f"inferred={self.inferred_count}>"
        )


def parse_columnar_snapshot(data, source: str = "<bytes>") -> ColumnarSnapshot:
    """Verify and parse a columnar image over any buffer (bytes or mmap).

    The columns returned are zero-copy windows into ``data``; the
    snapshot keeps ``data`` alive for as long as it is open.
    """
    view = memoryview(data)
    # Every window and cast exports a pointer into ``data``; on a failed
    # parse they must all be released before the caller can close an
    # ``mmap`` buffer (the traceback would otherwise pin this frame and
    # its views alive, making the close a BufferError).
    held: list[memoryview] = [view]
    try:
        return _parse_columnar(view, held, data, source)
    except Exception:
        for window in reversed(held):
            window.release()
        raise


def _parse_columnar(view, held, data, source) -> ColumnarSnapshot:
    magic = len(COLUMNAR_MAGIC)
    file_magic = bytes(view[:magic])
    if file_magic not in COLUMNAR_MAGICS:
        raise SnapshotError(f"{source} is not a columnar Slider snapshot (bad magic)")
    has_graphs = file_magic == COLUMNAR_MAGIC_V3
    if len(view) < magic + _CRC.size:
        raise SnapshotError(f"snapshot {source} is truncated")
    (expected_crc,) = _CRC.unpack(view[-_CRC.size:])
    if zlib.crc32(view[magic:-_CRC.size]) != expected_crc:
        raise SnapshotError(f"snapshot {source} failed its checksum (corrupt)")
    try:
        offset = magic
        revision, offset = read_varint(view, offset)
        axiom_count, offset = read_varint(view, offset)
        fragment, offset = read_string(view, offset)
        store_spec, offset = read_string(view, offset)
        term_count, offset = read_varint(view, offset)
        explicit_count, offset = read_varint(view, offset)
        inferred_count, offset = read_varint(view, offset)
        id_width, offset = read_varint(view, offset)
        graph_count = 0
        if has_graphs:
            graph_count, offset = read_varint(view, offset)
    except FormatError as error:
        raise SnapshotError(f"snapshot {source} is malformed: {error}") from None
    if id_width not in (4, 8):
        raise SnapshotError(f"snapshot {source} has invalid id width {id_width}")
    code = _typecode(id_width)
    triple_count = explicit_count + inferred_count

    def section(start: int, size: int) -> tuple[memoryview, int]:
        start = _align8(start)
        end = start + size
        if end > len(view) - _CRC.size:
            raise SnapshotError(f"snapshot {source} is truncated mid-section")
        window = view[start:end]
        held.append(window)
        return window, end

    def cast(window: memoryview, typecode: str) -> memoryview:
        column = window.cast(typecode)
        held.append(column)
        return column

    index_bytes, offset = section(offset, 8 * (term_count + 1))
    term_index = cast(index_bytes, "Q")
    blob_len = term_index[term_count] if term_count else 0
    term_blob, offset = section(offset, blob_len)

    columns: list[memoryview] = []
    for _ in range(6):
        col_bytes, offset = section(offset, id_width * triple_count)
        columns.append(cast(col_bytes, code))
    explicit_bytes, offset = section(offset, id_width * explicit_count)
    graph_rows = graph_ids = None
    if has_graphs:
        graph_row_bytes, offset = section(offset, id_width * graph_count)
        graph_id_bytes, offset = section(offset, id_width * graph_count)
        graph_rows = cast(graph_row_bytes, code)
        graph_ids = cast(graph_id_bytes, code)

    return ColumnarSnapshot(
        revision=revision,
        fragment=fragment,
        store_spec=store_spec,
        axiom_count=axiom_count,
        term_count=term_count,
        explicit_count=explicit_count,
        inferred_count=inferred_count,
        id_width=id_width,
        term_index=term_index,
        term_blob=term_blob,
        spo=tuple(columns[:3]),
        pos=tuple(columns[3:]),
        explicit_rows=explicit_bytes.cast(code),
        graph_rows=graph_rows,
        graph_ids=graph_ids,
        _buffer=data,
    )


def load_columnar_snapshot(path) -> ColumnarSnapshot:
    """Map a columnar snapshot file read-only and parse it in place.

    The file is ``mmap``-ed, so "loading" is O(header) — column bytes
    fault in on first access.  Falls back to a plain read for empty
    files or filesystems that cannot map.
    """
    try:
        with open(path, "rb") as handle:
            try:
                buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError):
                buffer = handle.read()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    try:
        return parse_columnar_snapshot(buffer, source=str(path))
    except Exception:
        if isinstance(buffer, mmap.mmap):
            buffer.close()
        raise
