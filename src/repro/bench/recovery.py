"""bench_recovery: what durability costs, and what recovery saves.

The durability subsystem's whole argument is that restarting a service
must not mean re-materializing the closure.  This harness quantifies it
with three timed phases over one dataset file (paper §3 protocol —
parse time included wherever parsing happens):

1. **cold**   — plain in-memory materialization (the restart cost
   *without* persistence; also the correctness reference);
2. **snapshot-load** — recover a directory holding a single compacted
   snapshot: the steady-state restart path.  The headline ratio is
   ``cold_seconds / snapshot_load_seconds``;
3. **replay** — recover a directory holding *only* a changelog (one
   journaled revision per stream chunk, no snapshot): the worst-case
   restart path, and the WAL-replay throughput measurement.

Every recovered closure is asserted identical to the cold one, so the
benchmark doubles as an end-to-end recovery correctness check.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path
from typing import Callable

from ..datasets.loader import DEFAULT_SCALE
from ..persist.journal import read_journal
from ..reasoner.engine import Slider
from ..reasoner.stream import FileSource, StreamPump
from .harness import dataset_file

__all__ = ["RecoveryResult", "run_recovery"]


class RecoveryResult:
    """Outcome of one recovery benchmark (see module docstring)."""

    __slots__ = (
        "dataset", "fragment", "scale",
        "input_count", "inferred_count",
        "cold_seconds", "durable_build_seconds",
        "snapshot_load_seconds", "snapshot_bytes",
        "replay_seconds", "replay_records", "journal_bytes",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def speedup(self) -> float:
        """How many times faster a snapshot load is than cold start."""
        if self.snapshot_load_seconds <= 0:
            return float("inf")
        return self.cold_seconds / self.snapshot_load_seconds

    @property
    def replay_throughput(self) -> float:
        """Input triples re-applied per second of pure-changelog replay."""
        if self.replay_seconds <= 0:
            return float("inf")
        return self.input_count / self.replay_seconds

    def as_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__}
        data["speedup"] = self.speedup
        data["replay_throughput"] = self.replay_throughput
        return data

    def __repr__(self):
        return (
            f"<RecoveryResult {self.dataset}/{self.fragment} "
            f"cold={self.cold_seconds:.3f}s "
            f"snapshot_load={self.snapshot_load_seconds:.3f}s "
            f"({self.speedup:.1f}x) replay={self.replay_seconds:.3f}s>"
        )


def _engine(fragment: str, workers: int, buffer_size: int, **extra) -> Slider:
    return Slider(
        fragment=fragment, workers=workers, buffer_size=buffer_size,
        timeout=0.05 if workers else None, **extra,
    )


def run_recovery(
    name: str,
    fragment: str = "rhodf",
    scale: float = DEFAULT_SCALE,
    workers: int = 0,
    buffer_size: int = 200,
    chunk_size: int = 512,
    fsync: bool = False,
    recovery_rounds: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> RecoveryResult:
    """Measure cold start vs snapshot load vs changelog replay.

    ``fsync=False`` by default: the build phase's fsyncs measure the
    disk, not the engine, and recovery (the thing under test) never
    fsyncs.  Pass ``fsync=True`` to time the real write-path tax.

    The recovery phases are milliseconds-fast, so a single scheduler
    hiccup can swamp them; they run ``recovery_rounds`` times and keep
    the best (each round is a full fresh recovery — nothing carries
    over between rounds but the OS page cache, which a restarting
    service would enjoy too).
    """
    path = dataset_file(name, scale)
    work_dir = Path(tempfile.mkdtemp(prefix="slider-recovery-"))
    snap_dir = work_dir / "snapshot-state"
    wal_dir = work_dir / "wal-state"
    try:
        # Phase 1 — cold in-memory materialization (the reference).
        start = clock()
        with _engine(fragment, workers, buffer_size) as cold:
            cold.load(path)
            cold.flush()
            cold_seconds = clock() - start
            # Term-level reference closure: robust to dictionary-id
            # assignment order differing between runs.
            reference = set(cold.graph)
            input_count = cold.input_count
            inferred_count = cold.inferred_count

        # Phase 2a — build the compacted durable state.
        start = clock()
        with _engine(
            fragment, workers, buffer_size,
            persist_dir=snap_dir, persist_fsync=fsync,
        ) as durable:
            durable.load(path)
            durable.flush()
            durable.snapshot()
            durable_build_seconds = clock() - start
        snapshot_bytes = (snap_dir / "snapshot.slider").stat().st_size

        # Phase 2b — recover from the snapshot (steady-state restart).
        snapshot_load_seconds = float("inf")
        for _ in range(max(1, recovery_rounds)):
            start = clock()
            recovered = _engine(
                fragment, workers, buffer_size,
                persist_dir=snap_dir, persist_fsync=fsync,
            )
            snapshot_load_seconds = min(snapshot_load_seconds, clock() - start)
            assert set(recovered.graph) == reference, "snapshot recovery diverged"
            recovered.close()

        # Phase 3a — build a journal-only state: one revision per chunk,
        # no snapshot (the worst-case restart: everything replays).
        with _engine(
            fragment, workers, buffer_size,
            persist_dir=wal_dir, persist_fsync=fsync,
            compact_journal_bytes=None,
        ) as streamer:
            pump = StreamPump(
                streamer, FileSource(path), chunk_size=chunk_size, transactional=True
            )
            pump.run()
        journal_path = wal_dir / "changelog.wal"
        journal_bytes = journal_path.stat().st_size
        replay_records = len(read_journal(journal_path)[0])

        # Phase 3b — recover by pure changelog replay.
        replay_seconds = float("inf")
        for _ in range(max(1, recovery_rounds)):
            start = clock()
            replayed = _engine(
                fragment, workers, buffer_size,
                persist_dir=wal_dir, persist_fsync=fsync,
                compact_journal_bytes=None,
            )
            replay_seconds = min(replay_seconds, clock() - start)
            assert set(replayed.graph) == reference, "changelog replay diverged"
            replayed.close()

        return RecoveryResult(
            dataset=name, fragment=fragment, scale=scale,
            input_count=input_count, inferred_count=inferred_count,
            cold_seconds=cold_seconds,
            durable_build_seconds=durable_build_seconds,
            snapshot_load_seconds=snapshot_load_seconds,
            snapshot_bytes=snapshot_bytes,
            replay_seconds=replay_seconds,
            replay_records=replay_records,
            journal_bytes=journal_bytes,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
