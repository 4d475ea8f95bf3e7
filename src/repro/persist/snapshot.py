"""Reading a snapshot: one durable image of a materialized closure.

A snapshot freezes everything the engine needs to resume without
re-materializing: the **term dictionary** in id order (a fresh
dictionary that re-encodes the terms in sequence reproduces every id
bit for bit), the **explicit** and **inferred** partitions as encoded
``(s, p, o)`` id tuples against that term table (store-independent:
the ids restore into any :class:`~repro.store.backends.base.TripleStore`),
the optional named-graph column, and the **revision id**, fragment
name, store spec and axiom count.  The store spec is informational: the
engine writes the constant ``"hashdict"`` and no reader acts on it, so
images written when other backend names existed (``"sharded:N"``, a
store class name) load unchanged.

Exactly one format is *written*: the columnar image of
:mod:`repro.persist.columnar` (``SLSNAP02``; ``SLSNAP03`` when it
carries a graph column).  This module is the reading side for every
format ever written — :func:`load_snapshot` / :func:`parse_snapshot`
dispatch on the magic — and holds the parser of the original varint
stream, ``SLSNAP01``: ``magic | payload | u32 crc32(payload)``.  No
code writes that format any more; a durable directory still holding one
recovers from it and is resealed columnar at its next compaction.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

from ..dictionary.encoder import EncodedTriple, TermDictionary
from ..rdf.terms import Term
from .format import FormatError, read_string, read_term, read_varint

__all__ = [
    "Snapshot",
    "SnapshotError",
    "parse_snapshot",
    "load_snapshot",
    "image_revision",
    "SNAPSHOT_MAGIC",
]

SNAPSHOT_MAGIC = b"SLSNAP01"


class SnapshotError(RuntimeError):
    """The snapshot file is missing structure, corrupt, or truncated."""


class Snapshot:
    """A loaded snapshot: term table + partitions + metadata.

    The encoded triples are expressed in the snapshot's own id space
    (``terms[i]`` is the term with id ``i``).  :meth:`restore` replays
    them into a live dictionary + store; on a *fresh* dictionary the ids
    are reproduced exactly, and on a pre-populated one the triples are
    transparently re-mapped through a translation table.
    """

    __slots__ = (
        "revision",
        "fragment",
        "store_spec",
        "axiom_count",
        "terms",
        "explicit",
        "inferred",
        "graphs",
    )

    def __init__(
        self,
        revision: int,
        fragment: str,
        store_spec: str,
        axiom_count: int,
        terms: list[Term],
        explicit: list[EncodedTriple],
        inferred: list[EncodedTriple],
        graphs: list[tuple[int, int, int, int]] | None = None,
    ):
        self.revision = revision
        self.fragment = fragment
        self.store_spec = store_spec
        self.axiom_count = axiom_count
        self.terms = terms
        self.explicit = explicit
        self.inferred = inferred
        #: Sparse named-graph column: ``(s, p, o, graph)`` id rows for
        #: the triples that live outside the default graph.
        self.graphs = list(graphs) if graphs else []

    @property
    def triple_count(self) -> int:
        """Stored triples in the image, explicit plus inferred."""
        return len(self.explicit) + len(self.inferred)

    def restore(self, dictionary: TermDictionary, store) -> set[EncodedTriple]:
        """Load the snapshot into ``dictionary`` + ``store``; returns
        the restored explicit set (see :func:`restore_image`)."""
        return restore_image(self, dictionary, store)

    def __repr__(self):
        return (
            f"<Snapshot rev={self.revision} fragment={self.fragment!r} "
            f"terms={len(self.terms)} explicit={len(self.explicit)} "
            f"inferred={len(self.inferred)}>"
        )


def restore_image(image, dictionary: TermDictionary, store) -> set[EncodedTriple]:
    """Load a parsed image of either class into ``dictionary`` + ``store``.

    Returns the restored *explicit* set in the live dictionary's id
    space.  Terms are encoded in snapshot-id order, so a fresh
    dictionary ends up with identical ids and the stored tuples can be
    inserted as-is; a shared (non-empty) dictionary gets an old-id →
    new-id translation instead.  Explicit rows land before inferred
    rows.  The named-graph column is re-tagged through the same
    translation; a backend without the quad protocol (no
    ``set_graphs``) keeps everything in the default graph — the
    documented degradation.
    """
    mapping = [dictionary.encode(term) for term in image.terms]
    explicit, inferred = image.explicit, image.inferred
    if any(new != old for old, new in enumerate(mapping)):
        explicit = [(mapping[s], mapping[p], mapping[o]) for s, p, o in explicit]
        inferred = [(mapping[s], mapping[p], mapping[o]) for s, p, o in inferred]
    store.add_all(explicit)
    store.add_all(inferred)
    set_graphs = getattr(store, "set_graphs", None)
    if image.graphs and set_graphs is not None:
        by_graph: dict[int, list[EncodedTriple]] = {}
        for s, p, o, g in image.graphs:
            by_graph.setdefault(mapping[g], []).append(
                (mapping[s], mapping[p], mapping[o])
            )
        for graph_id, triples in by_graph.items():
            set_graphs(triples, graph_id)
    return set(explicit)


def load_snapshot(path):
    """Read and verify a snapshot file of any format ever written.

    Returns a :class:`~repro.persist.columnar.ColumnarSnapshot` for the
    columnar images (mmap-ed: load cost is O(header), column bytes
    fault in on demand) and a duck-compatible :class:`Snapshot` for a
    legacy v1 file.  Raises :class:`SnapshotError` either way.
    """
    from .columnar import COLUMNAR_MAGIC, COLUMNAR_MAGICS, load_columnar_snapshot

    try:
        with open(path, "rb") as handle:
            head = handle.read(len(COLUMNAR_MAGIC))
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    if head in COLUMNAR_MAGICS:
        return load_columnar_snapshot(path)
    try:
        data = Path(path).read_bytes()
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {path}: {error}") from error
    return parse_snapshot(data, source=str(path))


def image_revision(data) -> int:
    """The revision an image seals, read from its header alone.

    Every format opens ``magic | varint revision``, so labelling an
    image (the ``ETag`` of ``GET /snapshot``) costs O(1) where
    :func:`parse_snapshot` makes a whole-image checksum pass.
    """
    from .columnar import COLUMNAR_MAGICS

    if bytes(data[:len(SNAPSHOT_MAGIC)]) not in (SNAPSHOT_MAGIC, *COLUMNAR_MAGICS):
        raise SnapshotError("not a Slider snapshot (bad magic)")
    try:
        revision, _ = read_varint(data, len(SNAPSHOT_MAGIC))
    except FormatError as error:
        raise SnapshotError(f"snapshot header is malformed: {error}") from None
    return revision


def parse_snapshot(data: bytes, source: str = "<bytes>"):
    """Verify and parse one snapshot image (file bytes or wire bytes).

    Dispatches on the magic: columnar images parse into a
    :class:`~repro.persist.columnar.ColumnarSnapshot` over the same
    buffer (zero-copy columns), a legacy v1 image into :class:`Snapshot`.
    """
    path = source
    from .columnar import COLUMNAR_MAGIC, COLUMNAR_MAGICS, parse_columnar_snapshot

    if bytes(data[:len(COLUMNAR_MAGIC)]) in COLUMNAR_MAGICS:
        return parse_columnar_snapshot(data, source=source)
    if not data.startswith(SNAPSHOT_MAGIC):
        raise SnapshotError(f"{path} is not a Slider snapshot (bad magic)")
    if len(data) < len(SNAPSHOT_MAGIC) + 4:
        raise SnapshotError(f"snapshot {path} is truncated")
    payload = memoryview(data)[len(SNAPSHOT_MAGIC):-4]
    (expected_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) != expected_crc:
        raise SnapshotError(f"snapshot {path} failed its checksum (corrupt)")
    try:
        offset = 0
        revision, offset = read_varint(payload, offset)
        axiom_count, offset = read_varint(payload, offset)
        fragment, offset = read_string(payload, offset)
        store_spec, offset = read_string(payload, offset)
        term_count, offset = read_varint(payload, offset)
        terms: list[Term] = []
        for _ in range(term_count):
            term, offset = read_term(payload, offset)
            terms.append(term)
        partitions: list[list[EncodedTriple]] = []
        for _ in range(2):
            count, offset = read_varint(payload, offset)
            triples: list[EncodedTriple] = []
            for _ in range(count):
                s, offset = read_varint(payload, offset)
                p, offset = read_varint(payload, offset)
                o, offset = read_varint(payload, offset)
                triples.append((s, p, o))
            partitions.append(triples)
        graphs: list[tuple[int, int, int, int]] = []
        if offset < len(payload):
            # The optional named-graph column (absent in older images).
            count, offset = read_varint(payload, offset)
            for _ in range(count):
                s, offset = read_varint(payload, offset)
                p, offset = read_varint(payload, offset)
                o, offset = read_varint(payload, offset)
                g, offset = read_varint(payload, offset)
                graphs.append((s, p, o, g))
        if offset != len(payload):
            raise FormatError(f"{len(payload) - offset} trailing bytes")
    except FormatError as error:
        raise SnapshotError(f"snapshot {path} is malformed: {error}") from None
    explicit, inferred = partitions
    for rows in (*partitions, graphs):
        for encoded in rows:
            if any(term_id >= term_count for term_id in encoded):
                raise SnapshotError(
                    f"snapshot {path} references a term id outside its dictionary"
                )
    return Snapshot(
        revision=revision,
        fragment=fragment,
        store_spec=store_spec,
        axiom_count=axiom_count,
        terms=terms,
        explicit=explicit,
        inferred=inferred,
        graphs=graphs,
    )
