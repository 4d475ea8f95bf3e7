"""Durable start-up is a pure replay, and its refusals leave nothing behind.

A durable engine starts the way a replica does: built in-memory, the
snapshot restored through ``restore_snapshot``, the changelog tail
replayed through ``apply_at``, and only then the journal attached.  So
start-up writes nothing (no snapshot, no journal record), and a start-up
that fails — a fragment mismatch, a replay that raises — releases the
directory lock and stops the engine's threads, so the same directory
opens again at once.

The commit side of the same contract: a revision whose journal append
fails was never acknowledged, so no commit listener (the replication
feed) may hear of it.
"""

import pytest

from repro import Delta, Slider
from repro.persist import JournalWriter, PersistenceManager
from repro.rdf import RDF, Triple
from repro.replication import ChangeFeed
from repro.server import ReasoningService

from ..conftest import EX, make_chain, small_ontology


def typed(i: int) -> Triple:
    return Triple(EX[f"item{i}"], RDF.type, EX.Event)


def make_engine(state_dir, fragment="rhodf", **options):
    # A pool and a timeout sweeper, so a start-up that leaks its threads
    # fails the module's leaked-thread check.
    options.setdefault("workers", 2)
    options.setdefault("timeout", 0.05)
    return Slider(fragment=fragment, persist_dir=state_dir, **options)


def snapshot_plus_tail(state_dir, tail: int) -> tuple[int, set]:
    """Leave ``state_dir`` holding a snapshot and ``tail`` journal records;
    returns the revision and closure they stand for."""
    with make_engine(state_dir) as engine:
        engine.apply(Delta(assertions=small_ontology()))
        engine.snapshot()
        for i in range(tail):
            engine.apply(Delta(assertions=[typed(i)]))
        return engine.revision, set(engine.graph)


def counting_snapshot_writes(monkeypatch) -> list[int]:
    written: list[int] = []
    write_snapshot = PersistenceManager.write_snapshot

    def counted(manager, **state):
        written.append(state["revision"])
        return write_snapshot(manager, **state)

    monkeypatch.setattr(PersistenceManager, "write_snapshot", counted)
    return written


class TestStartupIsPureReplay:
    def test_reopen_writes_no_snapshot_and_replays_the_tail(self, tmp_path, monkeypatch):
        revision, closure = snapshot_plus_tail(tmp_path, tail=3)
        written = counting_snapshot_writes(monkeypatch)
        with make_engine(tmp_path) as revived:
            assert revived.recovery.replayed_records == 3
            assert revived.recovery.snapshot_revision == revision - 3
            assert revived.revision == revision
            assert set(revived.graph) == closure
        assert written == []

    def test_replay_journals_nothing(self, tmp_path):
        snapshot_plus_tail(tmp_path, tail=3)
        journal = tmp_path / "changelog.wal"
        before = journal.read_bytes()
        with make_engine(tmp_path) as revived:
            assert revived.recovery.replayed_records == 3
        assert journal.read_bytes() == before


class TestRefusedStartupReleasesTheDirectory:
    def test_snapshot_fragment_mismatch(self, tmp_path):
        revision, closure = snapshot_plus_tail(tmp_path, tail=1)
        # The refusal stays referenced (its traceback holds the failed
        # engine's frames), so only an explicit release frees the lock.
        with pytest.raises(Exception, match="fragment") as refused:
            make_engine(tmp_path, fragment="rdfs")
        with make_engine(tmp_path) as reopened:
            assert refused.value is not None
            assert reopened.revision == revision
            assert set(reopened.graph) == closure

    def test_changelog_fragment_mismatch(self, tmp_path):
        with make_engine(tmp_path) as engine:  # never compacted: WAL only
            engine.apply(Delta(assertions=small_ontology()))
            revision, closure = engine.revision, set(engine.graph)
        assert not (tmp_path / "snapshot.slider").exists()
        with pytest.raises(Exception, match="fragment") as refused:
            make_engine(tmp_path, fragment="rdfs")
        with make_engine(tmp_path) as reopened:
            assert refused.value is not None
            assert reopened.revision == revision
            assert set(reopened.graph) == closure

    def test_replay_that_raises(self, tmp_path, monkeypatch):
        revision, closure = snapshot_plus_tail(tmp_path, tail=3)
        failing = revision - 1  # the second of the three tail records
        apply_at = Slider.apply_at

        def replay(engine, at, delta):
            if at == failing:
                raise RuntimeError(f"replay of revision {at} failed")
            return apply_at(engine, at, delta)

        written = counting_snapshot_writes(monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(Slider, "apply_at", replay)
            with pytest.raises(RuntimeError, match="replay of revision") as refused:
                make_engine(tmp_path)
        with make_engine(tmp_path) as reopened:
            assert refused.value is not None
            assert reopened.recovery.replayed_records == 3
            assert reopened.revision == revision
            assert set(reopened.graph) == closure
        assert written == []  # neither start-up touched the snapshot


class TestFailedJournalAppendReachesNoListener:
    def test_listener_and_feed_never_hear_the_refused_revision(self, tmp_path, monkeypatch):
        engine = make_engine(tmp_path, workers=0, timeout=None)
        service = ReasoningService(reasoner=engine)
        feed = ChangeFeed(service)
        heard = []
        engine.add_commit_listener(lambda rev, *_: heard.append(rev))
        try:
            engine.apply(Delta(assertions=small_ontology()))
            engine.apply(Delta(assertions=make_chain(4)))
            acknowledged, closure = engine.revision, set(engine.graph)
            watermark = feed.latest_revision
            assert heard[-1] == acknowledged == watermark

            append = JournalWriter.append

            def full_disk(writer, record):
                if record.revision == acknowledged + 1:
                    raise OSError(28, "No space left on device")
                return append(writer, record)

            monkeypatch.setattr(JournalWriter, "append", full_disk)
            with pytest.raises(OSError, match="No space left"):
                engine.apply(Delta(assertions=[typed(1)]))
            assert acknowledged + 1 not in heard
            assert heard[-1] == acknowledged
            assert feed.latest_revision == watermark
            assert [r.revision for r in feed.records_after(0)][-1] == acknowledged
        finally:
            service.close()  # closes the feed and the engine
        monkeypatch.undo()
        with make_engine(tmp_path) as revived:
            assert revived.revision == acknowledged
            assert set(revived.graph) == closure
