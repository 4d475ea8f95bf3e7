"""The cluster log: crash matrix and the O(delta) durable cost.

A durable :class:`ShardedReasoner` appends one fsynced ``cluster.wal``
record per global commit and writes ``cluster.json`` only as a
checkpoint (first commit of a process, a log past
``DEFAULT_COMPACT_BYTES``, ``close()``).  These tests kill a cluster at
every point of that protocol and require the revived cluster to stand
exactly at the last durable cluster record — and they count, rather
than time, what one commit writes.
"""

import json
import shutil

import pytest

from repro import Delta
from repro.obs import instruments as _obs
from repro.persist import CLUSTER_LOG, JournalWriter, parse_snapshot, read_journal
from repro.rdf import RDF, Triple
from repro.sharding import CLUSTER_LOG_FILENAME, CLUSTER_META_FILENAME, ShardedReasoner
from repro.sharding import cluster as cluster_module

from ..conftest import EX, small_ontology
from .test_cluster import kill_cluster

PET = Triple(EX.alice, EX.hasPet, EX.tom)


class Crash(Exception):
    """Stands in for the process dying at an injected point."""


def churn_script(rounds: int = 6) -> list[Delta]:
    """Retract-then-reassert: every record flips ``PET`` and types one
    more cat, so a record replayed twice or skipped changes the
    explicit set."""
    script = [Delta(assertions=small_ontology())]
    for i in range(rounds):
        cat = Triple(EX[f"cat{i}"], RDF.type, EX.Cat)
        if i % 2 == 0:
            script.append(Delta(assertions=[cat], retractions=[PET]))
        else:
            script.append(Delta(assertions=[cat, PET]))
    return script


def durable(path, **options) -> ShardedReasoner:
    options.setdefault("persist_fsync", False)
    return ShardedReasoner(fragment="rhodf", shards=2, persist_dir=path, **options)


def user_state(cluster: ShardedReasoner) -> tuple:
    """Revision, vector, closure, input count and the explicit set (read
    through the public snapshot image)."""
    snapshot = parse_snapshot(cluster.snapshot_bytes())
    try:
        terms = list(snapshot.terms)
        explicit = frozenset((terms[s], terms[p], terms[o]) for s, p, o in snapshot.explicit)
    finally:
        snapshot.close()
    return (
        cluster.revision,
        cluster.revision_vector,
        frozenset(cluster.graph),
        cluster.input_count,
        explicit,
    )


def log_records(state) -> list:
    return read_journal(state / CLUSTER_LOG_FILENAME, CLUSTER_LOG)[0]


def manifest_revision(state) -> int:
    return json.loads((state / CLUSTER_META_FILENAME).read_text("utf-8"))["revision"]


def state_files(directory) -> dict:
    """Every file under ``directory``: relative path → bytes."""
    return {
        path.relative_to(directory): path.read_bytes()
        for path in directory.rglob("*")
        if path.is_file()
    }


def restore(directory, files: dict) -> None:
    """Put ``directory`` back to ``files`` (see :func:`state_files`),
    deleting files a run added and rewriting only those it changed."""
    for path in directory.rglob("*"):
        if path.is_file() and path.relative_to(directory) not in files:
            path.unlink()
    for name, data in files.items():
        path = directory / name
        if not path.exists() or path.read_bytes() != data:
            path.write_bytes(data)


class TestCrashMatrix:
    def test_kill_across_checkpoints_revives_exactly(self, tmp_path, monkeypatch):
        # Records here are ~190 bytes: a checkpoint every third commit
        # after the first, and the last commit lands between two.
        monkeypatch.setattr(cluster_module, "DEFAULT_COMPACT_BYTES", 400)
        script = churn_script(rounds=10)
        with ShardedReasoner(fragment="rhodf", shards=2) as reference:
            for delta in script:
                reference.apply(delta)
            expected = user_state(reference)

        state = tmp_path / "state"
        checkpoints = _obs.SHARDING_CHECKPOINTS.value()
        victim = durable(state)
        for delta in script:
            victim.apply(delta)
        crossed = _obs.SHARDING_CHECKPOINTS.value() - checkpoints
        assert crossed >= 3  # the first commit's, then at least two by size
        assert user_state(victim) == expected
        assert log_records(state), "the script must end between checkpoints"
        kill_cluster(victim)

        with durable(state) as revived:
            assert not revived.recovery.torn
            assert revived.recovery.replayed_records == len(log_records(state))
            assert user_state(revived) == expected
            report = revived.apply(Delta(retractions=[PET]))
            assert report.revision == expected[0] + 1
            assert log_records(state) == []  # its first commit checkpointed

    def test_torn_last_record_at_every_offset(self, tmp_path):
        state = tmp_path / "state"
        victim = durable(state)
        victim.apply(Delta(assertions=small_ontology()))  # the checkpoint
        victim.apply(Delta(assertions=[Triple(EX.a, RDF.type, EX.Cat)]))
        previous = user_state(victim)
        victim.apply(Delta(retractions=[Triple(EX.a, RDF.type, EX.Cat)]))
        shards_after = frozenset(victim.graph)
        kill_cluster(victim)

        wal = state / CLUSTER_LOG_FILENAME
        blob = wal.read_bytes()
        *_, last = log_records(state)
        last_start = len(blob) - len(last.encode())
        assert last.revision == previous[0] + 1

        # One working copy: each cut restores what the previous cut's
        # recovery and commits rewrote, then tears the log on disk.
        original = state_files(state)
        copy = tmp_path / "cut"
        shutil.copytree(state, copy)
        for cut in range(last_start, len(blob)):
            restore(copy, original)
            (copy / CLUSTER_LOG_FILENAME).write_bytes(blob[:cut])
            with durable(copy) as revived:
                info = revived.recovery
                assert info.torn and info.replayed_records == 1
                assert revived.revision == previous[0]
                assert revived.input_count == previous[3]
                assert frozenset(revived.graph) == shards_after
                assert (copy / CLUSTER_LOG_FILENAME).stat().st_size == last_start
                revived.apply(Delta(assertions=[PET]))  # checkpoints
                revived.apply(Delta(retractions=[PET]))
                (record,) = log_records(copy)
                assert record.revision == previous[0] + 2
                assert record.vector == tuple(revived.revision_vector)

    def test_crash_between_manifest_replace_and_log_truncate(self, tmp_path, monkeypatch):
        state = tmp_path / "state"
        victim = durable(state)
        for delta in churn_script():
            victim.apply(delta)
        expected = user_state(victim)

        def crash(writer):
            raise Crash

        monkeypatch.setattr(JournalWriter, "reset", crash)
        with pytest.raises(Crash):
            victim.close()  # cluster.json replaced, cluster.wal not truncated
        monkeypatch.undo()
        kill_cluster(victim)

        records = log_records(state)
        assert len(records) == len(churn_script()) - 1
        assert manifest_revision(state) == expected[0]
        with durable(state) as revived:
            assert revived.recovery.replayed_records == 0
            assert not revived.recovery.torn
            assert user_state(revived) == expected

    def test_crash_before_the_record_is_torn_with_the_shards_union(
        self, tmp_path, monkeypatch
    ):
        script = churn_script()
        state = tmp_path / "state"
        victim = durable(state)
        for delta in script[:-1]:
            victim.apply(delta)
        previous = user_state(victim)
        append = JournalWriter.append

        def crash_on_cluster_log(writer, record):
            if writer.path.name == CLUSTER_LOG_FILENAME:
                raise Crash
            return append(writer, record)

        monkeypatch.setattr(JournalWriter, "append", crash_on_cluster_log)
        with pytest.raises(Crash):
            victim.apply(script[-1])  # shards committed, the record never lands
        monkeypatch.undo()
        shards_union = frozenset().union(*(frozenset(e.graph) for e in victim.engines))
        kill_cluster(victim)

        with ShardedReasoner(fragment="rhodf", shards=2) as reference:
            for delta in script:
                reference.apply(delta)
            assert shards_union == frozenset(reference.graph)

        with durable(state) as revived:
            assert revived.recovery.torn
            assert revived.revision == previous[0]
            assert revived.input_count == previous[3]
            assert frozenset(revived.graph) == shards_union
            revived.apply(Delta())
        with durable(state) as healed:
            assert not healed.recovery.torn

    def test_log_without_manifest_replays_from_revision_zero(self, tmp_path, monkeypatch):
        """The directory's first commit dies between its record and its
        checkpoint: the log alone recovers it, exactly."""
        state = tmp_path / "state"
        victim = durable(state)
        monkeypatch.setattr(ShardedReasoner, "_checkpoint", lambda cluster: None)
        victim.apply(Delta(assertions=small_ontology()))
        expected = user_state(victim)
        monkeypatch.undo()
        kill_cluster(victim)
        assert not (state / CLUSTER_META_FILENAME).exists()

        with durable(state) as revived:
            assert revived.recovery.replayed_records == 1
            assert not revived.recovery.torn
            assert user_state(revived) == expected


class TestDurableCost:
    def test_commit_bytes_do_not_depend_on_the_explicit_set(
        self, tmp_path, bytes_written
    ):
        def cluster_bytes() -> int:
            return bytes_written[CLUSTER_META_FILENAME + ".tmp"] + bytes_written[
                CLUSTER_LOG_FILENAME
            ]

        delta = Delta(assertions=[Triple(EX.x, RDF.type, EX.Cat), Triple(EX.x, EX.p, EX.y)])
        manifests, commits = {}, {}
        for size in (100, 10_000):
            bytes_written.clear()
            state = tmp_path / f"explicit-{size}"
            with durable(state) as cluster:
                cluster.apply(
                    Delta(assertions=[Triple(EX[f"s{i}"], EX.p, EX[f"o{i}"]) for i in range(size)])
                )
                manifests[size] = bytes_written[CLUSTER_META_FILENAME + ".tmp"]
                manifest = (state / CLUSTER_META_FILENAME).stat()
                start = cluster_bytes()
                cluster.apply(delta)
                commits[size] = cluster_bytes() - start
                after = (state / CLUSTER_META_FILENAME).stat()
                assert (after.st_ino, after.st_mtime_ns) == (manifest.st_ino, manifest.st_mtime_ns)
                (record,) = log_records(state)
        # The checkpoint is O(explicit set); a commit is one record, O(delta).
        assert manifests[10_000] > 50 * manifests[100]
        assert commits[100] == commits[10_000] == len(record.encode())
