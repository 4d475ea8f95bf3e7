"""The append-only changelog (write-ahead log) of committed deltas.

Every revision the engine commits is journaled as one CRC-framed record
*before* :meth:`~repro.reasoner.engine.Slider.apply` returns, so a
process death after the commit point loses nothing: recovery replays
the journal tail (everything newer than the last snapshot) through the
normal ``apply()`` pipeline and arrives at the identical closure, with
identical revision ids.

Records carry the *requested* explicit mutations at term level — the
net-normalized assertions and retractions of the revision's delta — not
the inferred consequences; inference is deterministic, so replay
recomputes it.  Term-level (rather than dictionary-id) encoding keeps
each record self-contained: the journal never depends on dictionary
state that only existed in the dead process.

A graph-scoped commit (``Delta(graph=...)``) journals its graph label
as an optional trailing term on the record — format v2
(``SLWAL002``).  The extension is self-describing at the record level:
a record either ends after its retractions (default graph, the v1
shape) or carries exactly one IRI/BNode graph term, so v1 journals
replay unchanged under the v2 reader and a v2 journal needs no
migration pass — recovery simply re-applies each record's graph scope.

Durability contract:

* ``fsync=True`` (the default) fsyncs after every record — commit
  means *on disk*;
* a record torn by a crash mid-write fails its length or CRC check;
  :func:`read_journal` returns the records before it plus the byte
  length of the intact prefix, and :func:`recover_journal` truncates
  the file there — the torn tail is dropped, never "repaired" into
  corruption.

The same writer and reader serve a second log: the sharded cluster's
``cluster.wal`` (:data:`CLUSTER_LOG`, magic ``SLCLOG01``), one
:class:`ClusterRecord` per global commit — revision, per-shard revision
vector and the net user-level delta.  A :class:`LogCodec` names what
differs between the two (magic and record type); header, framing,
torn-tail truncation, fsync and metrics are shared.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import NamedTuple, Sequence

from ..obs import instruments as _obs
from ..rdf.terms import BNode, IRI, Term, Triple
from .format import (
    FRAME_HEADER,
    FormatError,
    frame_record,
    fsync_dir,
    read_frames,
    read_string,
    read_term,
    read_triple,
    read_varint,
    write_string,
    write_term,
    write_triple,
    write_varint,
)

__all__ = [
    "JournalRecord",
    "ClusterRecord",
    "JournalError",
    "JournalWriter",
    "LogCodec",
    "read_journal",
    "recover_journal",
    "JOURNAL_MAGIC",
    "JOURNAL_MAGICS",
    "CLUSTER_LOG_MAGIC",
    "CHANGELOG",
    "CLUSTER_LOG",
]

#: The magic fresh journals are written under (format v2: records may
#: carry a trailing named-graph term).
JOURNAL_MAGIC = b"SLWAL002"
#: Every magic the reader accepts; record decoding is identical for
#: both — the graph extension is self-describing per record.
JOURNAL_MAGICS = (JOURNAL_MAGIC, b"SLWAL001")
#: The magic of a sharded cluster's log of global commits.
CLUSTER_LOG_MAGIC = b"SLCLOG01"


def _encode_header(magic: bytes, fragment: str) -> bytes:
    """File header: magic + the fragment the log was built under."""
    out = bytearray(magic)
    write_string(out, fragment)
    return bytes(out)


def _decode_header(data: bytes, codec: "LogCodec") -> tuple[str, int] | None:
    """Parse the header; ``None`` when it is torn (recoverable as empty).

    Raises :class:`JournalError` when the head is simply not a log of
    ``codec``'s kind — damage that truncation cannot explain.
    """
    width = len(codec.magic)
    if len(data) < width:
        if any(magic.startswith(data) for magic in codec.magics):
            return None  # torn mid-magic
        raise JournalError(f"not a Slider {codec.name} (bad magic)")
    if not any(data.startswith(magic) for magic in codec.magics):
        raise JournalError(f"not a Slider {codec.name} (bad magic)")
    try:
        fragment, offset = read_string(data, width)
    except FormatError:
        return None  # torn mid-header
    return fragment, offset


def _write_triples(out: bytearray, triples: Sequence[Triple]) -> None:
    write_varint(out, len(triples))
    for triple in triples:
        write_triple(out, triple)


def _read_triples(payload: bytes, offset: int) -> tuple[list[Triple], int]:
    count, offset = read_varint(payload, offset)
    triples: list[Triple] = []
    for _ in range(count):
        triple, offset = read_triple(payload, offset)
        triples.append(triple)
    return triples, offset


class JournalError(RuntimeError):
    """A log file's head is not the kind of Slider log expected."""


class JournalRecord:
    """One committed revision: its id, requested term-level delta, and —
    for graph-scoped commits — the named graph the delta targeted."""

    __slots__ = ("revision", "assertions", "retractions", "graph")

    def __init__(
        self,
        revision: int,
        assertions: Sequence[Triple] = (),
        retractions: Sequence[Triple] = (),
        graph: Term | None = None,
    ):
        if graph is not None and not isinstance(graph, (IRI, BNode)):
            raise FormatError(f"graph label must be an IRI or BNode, got {graph!r}")
        self.revision = revision
        self.assertions = tuple(assertions)
        self.retractions = tuple(retractions)
        self.graph = graph

    def encode(self) -> bytes:
        """Serialize to a framed, CRC-protected record.

        A default-graph record ends after its retractions — the exact v1
        byte shape — so only graph-scoped commits pay for (and signal)
        the extension.
        """
        out = bytearray()
        write_varint(out, self.revision)
        _write_triples(out, self.assertions)
        _write_triples(out, self.retractions)
        if self.graph is not None:
            write_term(out, self.graph)
        return frame_record(bytes(out))

    @classmethod
    def decode(cls, payload: bytes) -> "JournalRecord":
        """Parse one verified frame payload back into a record."""
        revision, offset = read_varint(payload, 0)
        assertions, offset = _read_triples(payload, offset)
        retractions, offset = _read_triples(payload, offset)
        graph: Term | None = None
        if offset != len(payload):
            graph, offset = read_term(payload, offset)
            if not isinstance(graph, (IRI, BNode)):
                raise FormatError(f"graph label must be an IRI or BNode, got {graph!r}")
        if offset != len(payload):
            raise FormatError(f"{len(payload) - offset} trailing bytes in record")
        return cls(revision, assertions, retractions, graph=graph)

    def __repr__(self):
        scope = f" graph={self.graph.n3()}" if self.graph is not None else ""
        return (
            f"<JournalRecord rev={self.revision} "
            f"+{len(self.assertions)} -{len(self.retractions)}{scope}>"
        )


class ClusterRecord:
    """One global commit of a sharded cluster: its revision, the
    per-shard revision vector it left behind, and the net user-level
    delta (what the cluster's explicit set gained and lost)."""

    __slots__ = ("revision", "vector", "assertions", "retractions")

    def __init__(
        self,
        revision: int,
        vector: Sequence[int],
        assertions: Sequence[Triple] = (),
        retractions: Sequence[Triple] = (),
    ):
        self.revision = revision
        self.vector = tuple(vector)
        self.assertions = tuple(assertions)
        self.retractions = tuple(retractions)

    def encode(self) -> bytes:
        """Serialize to a framed, CRC-protected record."""
        out = bytearray()
        write_varint(out, self.revision)
        write_varint(out, len(self.vector))
        for revision in self.vector:
            write_varint(out, revision)
        _write_triples(out, self.assertions)
        _write_triples(out, self.retractions)
        return frame_record(bytes(out))

    @classmethod
    def decode(cls, payload: bytes) -> "ClusterRecord":
        """Parse one verified frame payload back into a record."""
        revision, offset = read_varint(payload, 0)
        shards, offset = read_varint(payload, offset)
        vector = []
        for _ in range(shards):
            value, offset = read_varint(payload, offset)
            vector.append(value)
        assertions, offset = _read_triples(payload, offset)
        retractions, offset = _read_triples(payload, offset)
        if offset != len(payload):
            raise FormatError(f"{len(payload) - offset} trailing bytes in record")
        return cls(revision, vector, assertions, retractions)

    def __repr__(self):
        return (
            f"<ClusterRecord rev={self.revision} vector={list(self.vector)} "
            f"+{len(self.assertions)} -{len(self.retractions)}>"
        )


class LogCodec(NamedTuple):
    """One kind of framed log: the magic a fresh file is stamped with,
    every magic the reader accepts, and the record class (``encode()``
    to a framed record, ``decode(payload)`` back)."""

    name: str
    magic: bytes
    magics: tuple[bytes, ...]
    record: type


#: A durable engine's ``changelog.wal``.
CHANGELOG = LogCodec("changelog", JOURNAL_MAGIC, JOURNAL_MAGICS, JournalRecord)
#: A sharded cluster's ``cluster.wal``.
CLUSTER_LOG = LogCodec(
    "cluster log", CLUSTER_LOG_MAGIC, (CLUSTER_LOG_MAGIC,), ClusterRecord
)


class JournalWriter:
    """Appends framed records to a log file, fsyncing on commit.

    The writer owns the file handle for its lifetime; :meth:`append` is
    called under the owner's commit lock, so no internal locking is
    needed.  :meth:`reset` starts a fresh log epoch after a snapshot or
    checkpoint (truncate back to the file header).

    A fresh log's header stamps ``codec.magic`` and the ``fragment`` it
    is built under; engine recovery refuses to replay a changelog into
    an engine running different rules (the closure would silently
    diverge otherwise).
    """

    def __init__(
        self, path, fsync: bool = True, fragment: str = "", codec: LogCodec = CHANGELOG
    ):
        self.path = Path(path)
        self.fsync = fsync
        existing_size = self.path.stat().st_size if self.path.exists() else 0
        if existing_size:
            with open(self.path, "rb") as head:
                header = _decode_header(head.read(4096), codec)
            if header is None:
                raise JournalError(
                    f"{path} has a torn header (recover first to truncate it)"
                )
            self._header_end = header[1]
        self._handle = open(self.path, "ab")
        if not existing_size:
            blob = _encode_header(codec.magic, fragment)
            self._header_end = len(blob)
            self._handle.write(blob)
            self._flush()
            if self.fsync:
                fsync_dir(self.path.parent)  # the *creation* must be durable too

    def append(self, record: JournalRecord | ClusterRecord) -> int:
        """Durably append one record; returns its size in bytes."""
        started = time.perf_counter()
        blob = record.encode()
        self._handle.write(blob)
        self._flush()
        if _obs.REGISTRY.enabled:
            _obs.PERSIST_WAL_APPEND_SECONDS.observe(time.perf_counter() - started)
            _obs.PERSIST_WAL_BYTES.inc(len(blob))
        return len(blob)

    def _flush(self) -> None:
        self._handle.flush()
        if self.fsync:
            started = time.perf_counter()
            os.fsync(self._handle.fileno())
            _obs.PERSIST_FSYNC_SECONDS.observe(time.perf_counter() - started)

    def reset(self) -> None:
        """Truncate to an empty journal (post-snapshot compaction)."""
        self._handle.truncate(self._header_end)
        self._handle.seek(0, os.SEEK_END)
        self._flush()

    @property
    def size(self) -> int:
        """Current journal size in bytes (file header included)."""
        return self._handle.tell()

    def close(self) -> None:
        """Close the file handle (idempotent); appends after it fail."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self):
        return f"<JournalWriter {self.path} fsync={self.fsync}>"


def read_journal(path, codec: LogCodec = CHANGELOG) -> tuple[list, int, str | None]:
    """Read every intact record; returns ``(records, durable_bytes, fragment)``.

    ``durable_bytes`` is the length of the verified prefix (header +
    whole frames) and ``fragment`` is the rule fragment stamped into the
    header (``None`` when the header itself is torn).  A torn or
    corrupt tail simply ends the scan — the caller truncates the file
    to ``durable_bytes`` before appending again.  A file whose *head*
    is not a log of ``codec``'s kind raises :class:`JournalError` (that
    is damage truncation cannot explain).
    """
    data = Path(path).read_bytes()
    if not data:
        return [], 0, None
    try:
        header = _decode_header(data, codec)
    except JournalError as error:
        raise JournalError(f"{path}: {error}") from None
    if header is None:
        return [], 0, None  # torn mid-header: an empty, recoverable journal
    fragment, header_end = header
    payloads, durable = read_frames(data, header_end)
    records = []
    valid = header_end
    for payload in payloads:
        try:
            records.append(codec.record.decode(payload))
        except FormatError:
            # A CRC-passing but unparseable record: stop at the last
            # good one; everything after it is dropped as torn.
            return records, valid, fragment
        valid += FRAME_HEADER.size + len(payload)
    return records, durable, fragment


def recover_journal(path, codec: LogCodec = CHANGELOG) -> tuple[list, int, str | None]:
    """Read a log for recovery and cut its torn tail off the file.

    Returns ``(records, torn_bytes_dropped, fragment)``; a missing file
    is an empty log.  After this the file ends on a verified record (or
    is empty), so a :class:`JournalWriter` opened on it appends cleanly.
    """
    path = Path(path)
    if not path.exists():
        return [], 0, None
    records, durable, fragment = read_journal(path, codec)
    torn = path.stat().st_size - durable
    if torn:
        with open(path, "r+b") as handle:
            handle.truncate(durable)
    return records, torn, fragment
