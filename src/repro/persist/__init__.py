"""Durable snapshots + changelog persistence for the Slider engine.

The incremental closure only pays off at service scale if it survives
restarts; this package makes the engine a *restartable* system:

* :mod:`~repro.persist.columnar` — the snapshot image: an atomic,
  CRC-checked, mmap-able columnar file of the term dictionary, the
  explicit/inferred store partitions and the revision id — the only
  format written;
* :mod:`~repro.persist.snapshot` — the reading side:
  ``load_snapshot`` / ``parse_snapshot`` accept every format ever
  written (dispatch on the magic), including the legacy v1 varint
  stream no code writes any more;
* :mod:`~repro.persist.journal` — an append-only write-ahead changelog
  of committed deltas, fsynced before ``apply()`` returns, with a
  torn-tail-tolerant reader; the same writer keeps a sharded cluster's
  ``cluster.wal`` of global commits (:data:`CLUSTER_LOG`);
* :mod:`~repro.persist.manager` — the :class:`PersistenceManager`
  wiring both into the recovery / compaction lifecycle;
* :mod:`~repro.persist.format` — the shared byte-level encoding and
  the one atomic file writer (``atomic_write``).

Which bytes make an image is decided here and nowhere else: callers
hand :func:`encode_columnar_snapshot` their state and get bytes back.

Enable it with ``Slider(persist_dir="state/")``; see the README's
*Durability* section for the lifecycle and recovery semantics.
"""

from .columnar import ColumnarSnapshot, encode_columnar_snapshot
from .format import FormatError, atomic_write
from .journal import (
    CLUSTER_LOG,
    JOURNAL_MAGIC,
    ClusterRecord,
    JournalError,
    JournalRecord,
    JournalWriter,
    read_journal,
    recover_journal,
)
from .manager import (
    DEFAULT_COMPACT_BYTES,
    JOURNAL_FILENAME,
    LOCK_FILENAME,
    SNAPSHOT_FILENAME,
    PersistenceLockError,
    PersistenceManager,
)
from .snapshot import (
    SNAPSHOT_MAGIC,
    Snapshot,
    SnapshotError,
    image_revision,
    load_snapshot,
    parse_snapshot,
)

__all__ = [
    "PersistenceManager",
    "PersistenceLockError",
    "Snapshot",
    "ColumnarSnapshot",
    "SnapshotError",
    "encode_columnar_snapshot",
    "parse_snapshot",
    "load_snapshot",
    "image_revision",
    "atomic_write",
    "JournalRecord",
    "ClusterRecord",
    "JournalWriter",
    "JournalError",
    "read_journal",
    "recover_journal",
    "CLUSTER_LOG",
    "FormatError",
    "SNAPSHOT_FILENAME",
    "JOURNAL_FILENAME",
    "LOCK_FILENAME",
    "SNAPSHOT_MAGIC",
    "JOURNAL_MAGIC",
    "DEFAULT_COMPACT_BYTES",
]
