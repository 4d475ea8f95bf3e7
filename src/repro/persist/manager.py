"""The persistence manager: one directory, one snapshot, one changelog.

:class:`PersistenceManager` owns the on-disk layout of a durable engine
(``snapshot.slider`` + ``changelog.wal`` inside ``persist_dir``) and the
lifecycle around it:

* :meth:`load` — called once at engine start-up: loads the latest
  snapshot (if any), reads the changelog, truncates any torn tail, and
  hands back the records newer than the snapshot for replay;
* :meth:`journal_commit` — called under the engine's commit lock for
  every committed revision, before ``apply()`` returns;
* :meth:`write_snapshot` — seals the current state atomically and
  truncates the changelog (compaction); triggered explicitly via
  :meth:`Slider.snapshot` or automatically once the journal outgrows
  ``compact_bytes``.

The manager knows nothing about inference — it moves engine state to
bytes and back.  The engine decides *when*; the manager decides *how*.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Sequence

try:  # pragma: no cover - platform availability, not logic
    import fcntl
except ImportError:  # non-POSIX: no advisory locking primitive
    fcntl = None

from ..obs import instruments as _obs
from ..rdf.terms import Term, Triple
from .columnar import encode_columnar_snapshot
from .format import atomic_write
from .journal import JournalRecord, JournalWriter, recover_journal
from .snapshot import Snapshot, load_snapshot

__all__ = [
    "PersistenceManager",
    "PersistenceLockError",
    "SNAPSHOT_FILENAME",
    "JOURNAL_FILENAME",
    "LOCK_FILENAME",
    "DEFAULT_COMPACT_BYTES",
]

SNAPSHOT_FILENAME = "snapshot.slider"
JOURNAL_FILENAME = "changelog.wal"
LOCK_FILENAME = ".lock"

#: Journal size beyond which a commit triggers automatic compaction.
DEFAULT_COMPACT_BYTES = 8 * 1024 * 1024


class PersistenceLockError(RuntimeError):
    """Another live process owns this durable state directory."""


class PersistenceManager:
    """Filesystem side of a durable :class:`~repro.reasoner.engine.Slider`."""

    def __init__(
        self,
        directory,
        fsync: bool = True,
        compact_bytes: int | None = DEFAULT_COMPACT_BYTES,
        fragment: str = "",
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.compact_bytes = compact_bytes
        self.fragment = fragment
        self.snapshot_path = self.directory / SNAPSHOT_FILENAME
        self.journal_path = self.directory / JOURNAL_FILENAME
        self._writer: JournalWriter | None = None
        self._lock_handle = None
        self._acquire_lock()
        #: The fragment stamped in the changelog header (set by load()).
        self.journal_fragment: str | None = None
        #: Statistics surfaced through ``Slider.recovery`` / the CLI.
        self.torn_bytes_dropped = 0
        self.compactions = 0
        #: The revision the current snapshot seals — the changelog only
        #: covers revisions *after* this, so it is also the resumability
        #: floor of the replication change feed's WAL fallback (a
        #: follower asking for older revisions must re-bootstrap).
        self.last_snapshot_revision = 0

    def _acquire_lock(self) -> None:
        """Claim exclusive ownership of the directory (advisory flock).

        One writer per state directory: a concurrent opener — say, a
        ``slider-reason snapshot`` CLI pointed at a live service's
        directory — would commit duplicate revision ids and truncate
        the changelog underneath the live writer.  The lock dies with
        the process, so a kill -9 never leaves the directory wedged.
        Platforms without :mod:`fcntl` skip the guard (documented).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            return
        handle = open(self.directory / LOCK_FILENAME, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise PersistenceLockError(
                f"durable state directory {self.directory} is owned by a "
                "live engine (close it first, or point this one elsewhere)"
            ) from None
        handle.truncate(0)
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._lock_handle = handle

    # --- recovery ----------------------------------------------------------
    def load(self) -> tuple[Snapshot | None, list[JournalRecord]]:
        """Read durable state; returns (snapshot or None, replay records).

        The changelog's torn tail (if the last process died mid-append)
        is truncated away here, so the subsequently opened writer always
        appends after a verified record.  Records at or below the
        snapshot's revision are skipped — they are already part of the
        snapshot image (the snapshot is written after the journal entry
        of its own revision).
        """
        snapshot = None
        if self.snapshot_path.exists():
            snapshot = load_snapshot(self.snapshot_path)
            self.last_snapshot_revision = snapshot.revision
        records, self.torn_bytes_dropped, self.journal_fragment = recover_journal(
            self.journal_path
        )
        if snapshot is not None:
            records = [r for r in records if r.revision > snapshot.revision]
        return snapshot, records

    # --- journal -----------------------------------------------------------
    def _journal(self) -> JournalWriter:
        if self._writer is None:
            self._writer = JournalWriter(
                self.journal_path, fsync=self.fsync, fragment=self.fragment
            )
        return self._writer

    def journal_commit(
        self,
        revision: int,
        assertions: Sequence[Triple],
        retractions: Sequence[Triple],
        graph: Term | None = None,
    ) -> int:
        """Durably append one committed revision; returns bytes written.

        ``graph`` is the named graph a graph-scoped delta targeted
        (``None`` — the common case — journals the v1 record shape).
        """
        return self._journal().append(
            JournalRecord(revision, assertions, retractions, graph=graph)
        )

    def should_compact(self) -> bool:
        """Has the changelog outgrown the compaction threshold?"""
        if self.compact_bytes is None:
            return False
        return self._journal().size >= self.compact_bytes

    # --- snapshot ----------------------------------------------------------
    def write_snapshot(self, **state) -> int:
        """Seal ``state`` into the snapshot and truncate the changelog.

        ``state`` is the keyword surface of
        :func:`~repro.persist.columnar.encode_columnar_snapshot`
        (revision, fragment, store_spec, axiom_count, terms, explicit,
        inferred, graphs); whatever format the directory held before,
        it holds a columnar image afterwards.  Ordering matters for
        crash safety: the snapshot is atomically replaced *first*; only
        then is the journal reset.  A crash between the two steps leaves
        a snapshot plus a journal of already-applied records — harmless,
        because recovery skips records at or below the snapshot revision.
        """
        # Raise the feed floor *before* touching the files: a concurrent
        # feed reader that re-checks the floor after scanning the WAL
        # then can never miss records the truncation just dropped.
        self.last_snapshot_revision = state.get("revision", 0)
        started = time.perf_counter()
        blob = encode_columnar_snapshot(**state)
        atomic_write(self.snapshot_path, blob, fsync=self.fsync)
        self._journal().reset()
        self.compactions += 1
        if _obs.REGISTRY.enabled:
            _obs.PERSIST_SNAPSHOT_SECONDS.observe(time.perf_counter() - started)
            _obs.PERSIST_SNAPSHOT_BYTES.inc(len(blob))
            _obs.PERSIST_COMPACTIONS.inc()
        return len(blob)

    def close(self) -> None:
        """Close the changelog writer and release the directory lock
        (idempotent), so another engine can open the directory."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._lock_handle is not None:
            self._lock_handle.close()  # releases the flock
            self._lock_handle = None

    def __repr__(self):
        return f"<PersistenceManager {self.directory} fsync={self.fsync}>"
