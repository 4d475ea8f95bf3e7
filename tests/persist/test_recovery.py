"""End-to-end recovery: a killed engine resumes exactly where it was.

The PR's acceptance line: a ``Slider`` killed (process exit without
``close``) after N committed revisions recovers to a closure identical
to an uninterrupted run with the same
revision id, the same explicit/inferred split, and deterministically
re-fired reports.
"""

import pytest

from repro import CountWindow, Delta, Slider, WindowedReasoner
from repro.persist import read_journal
from repro.rdf import RDF, Triple, Variable

from ..conftest import EX, each_execution_mode, make_chain, small_ontology


def typed(i: int) -> Triple:
    return Triple(EX[f"item{i}"], RDF.type, EX.Event)


def kill(engine) -> None:
    """Simulate process death for an in-process engine.

    No flush, no final commit — exactly what ``kill -9`` skips — but the
    OS-level handles (journal fd, directory flock) are released and the
    engine's threads (timeout sweeper, rule pool) stop the way process
    teardown would stop them, so a successor can open the directory and
    nothing outlives the test.  Subprocess-based kill coverage lives in
    the verify run; in-process tests use this to keep the suite fast.
    """
    engine._sweeper_stop.set()
    if engine._sweeper is not None:
        engine._sweeper.join(5)
        assert not engine._sweeper.is_alive()
    engine._executor.shutdown(wait=True)
    engine._persist.close()


def make_engine(state_dir, **options):
    options.setdefault("workers", 0)
    options.setdefault("timeout", None)
    return Slider(fragment="rhodf", persist_dir=state_dir, **options)


DELTAS = [
    Delta(assertions=small_ontology()),
    Delta(assertions=make_chain(6)),
    Delta(assertions=[typed(1), typed(2)], retractions=[small_ontology()[2]]),
    Delta(retractions=make_chain(6)[:2]),
    Delta(assertions=[typed(3)], retractions=[typed(1)]),
]


def run_uninterrupted(workers=0, **engine):
    """Reference run: same deltas, no persistence, no close-commit."""
    with Slider(fragment="rhodf", workers=workers, timeout=None, **engine) as r:
        closures = []
        for delta in DELTAS:
            r.apply(delta)
            closures.append((r.revision, set(r.graph), r.input_count, r.inferred_count))
    return closures


class TestKillRecover:
    @each_execution_mode
    def test_kill_after_each_revision_recovers_identically(self, execution, tmp_path):
        reference = run_uninterrupted(**execution)
        for upto in range(1, len(DELTAS) + 1):
            state = tmp_path / f"state-{upto}"
            victim = make_engine(state, **execution)
            for delta in DELTAS[:upto]:
                victim.apply(delta)
            kill(victim)  # killed: no close(), no final flush-commit

            with make_engine(state, **execution) as revived:
                revision, closure, input_count, inferred_count = reference[upto - 1]
                assert revived.revision == revision
                assert set(revived.graph) == closure
                assert revived.input_count == input_count
                assert revived.inferred_count == inferred_count

    @each_execution_mode
    def test_replay_refires_reports_deterministically(self, execution, tmp_path):
        original_reports = []
        state = tmp_path / "state"
        victim = make_engine(state, **execution)
        for delta in DELTAS:
            original_reports.append(victim.apply(delta))
        kill(victim)

        with make_engine(state, **execution) as revived:
            assert revived.recovery is not None
            replayed = revived.recovery.reports
            assert len(replayed) == len(original_reports)
            for original, replay in zip(original_reports, replayed):
                assert replay.revision == original.revision
                assert set(replay.added) == set(original.added)
                assert set(replay.removed) == set(original.removed)
                assert set(replay.explicit_added) == set(original.explicit_added)
                assert set(replay.inferred_added) == set(original.inferred_added)

    def test_recovery_is_idempotent(self, tmp_path):
        state = tmp_path / "state"
        victim = make_engine(state)
        for delta in DELTAS:
            victim.apply(delta)
        expected = set(victim.graph)
        revision = victim.revision
        kill(victim)
        for _ in range(3):  # recover repeatedly; nothing drifts
            victim = make_engine(state)
            assert set(victim.graph) == expected
            assert victim.revision == revision
            kill(victim)

    def test_cold_directory_reports_no_recovery(self, tmp_path):
        with make_engine(tmp_path / "fresh") as r:
            assert r.recovery is None
            assert r.persist_dir == tmp_path / "fresh"

    def test_in_memory_engine_rejects_snapshot(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            assert r.persist_dir is None
            with pytest.raises(Exception, match="persist"):
                r.snapshot()

    def test_fragment_mismatch_is_refused(self, tmp_path):
        state = tmp_path / "state"
        with make_engine(state) as r:
            r.apply(Delta(assertions=small_ontology()))
            r.snapshot()
        with pytest.raises(Exception, match="fragment"):
            Slider(fragment="rdfs", workers=0, timeout=None, persist_dir=state)

    def test_fragment_mismatch_is_refused_for_journal_only_state(self, tmp_path):
        """A WAL that never compacted still carries its fragment stamp:
        replaying rdfs records under rhodf rules must be refused, not
        silently produce a smaller closure."""
        state = tmp_path / "state"
        victim = Slider(fragment="rdfs", workers=0, timeout=None, persist_dir=state)
        victim.apply(Delta(assertions=small_ontology()))
        kill(victim)  # no snapshot ever written
        assert not (state / "snapshot.slider").exists()
        with pytest.raises(Exception, match="fragment"):
            make_engine(state)  # rhodf

    def test_concurrent_opener_is_refused(self, tmp_path):
        """One live engine per state directory (advisory flock): a
        second opener — e.g. a compaction CLI pointed at a live
        service's directory — must be refused, not corrupt the WAL."""
        from repro.persist import PersistenceLockError

        state = tmp_path / "state"
        with make_engine(state) as owner:
            owner.apply(Delta(assertions=small_ontology()))
            with pytest.raises(PersistenceLockError, match="owned"):
                make_engine(state)
        # After a clean close the directory opens normally again.
        with make_engine(state) as successor:
            assert successor.revision >= 1

    def test_failed_apply_does_not_poison_the_journal(self, tmp_path, monkeypatch):
        """An apply that raises mid-mutation must roll its staged delta
        back, or the next commit would journal it under the wrong
        revision and wedge recovery."""
        state = tmp_path / "state"
        with make_engine(state) as r:
            r.apply(Delta(assertions=small_ontology()))
            original = r.input_manager.add
            monkeypatch.setattr(
                r.input_manager, "add",
                lambda triples: (_ for _ in ()).throw(RuntimeError("disk gremlin")),
            )
            with pytest.raises(RuntimeError, match="gremlin"):
                r.apply(Delta(assertions=[typed(50)]))
            monkeypatch.setattr(r.input_manager, "add", original)
            report = r.apply(Delta(assertions=[typed(51)]))
            assert typed(51) in report.explicit_added
            expected = set(r.graph)
            revision = r.revision
        with make_engine(state) as revived:  # journal replays cleanly
            assert set(revived.graph) == expected
            assert revived.revision == revision
            assert typed(50) not in revived.graph

    def test_malformed_delta_is_rejected_before_staging(self, tmp_path):
        state = tmp_path / "state"
        with make_engine(state) as r:
            r.apply(Delta(assertions=small_ontology()))
            with pytest.raises(TypeError, match="Triple"):
                Delta(retractions=[("s", "p", "o")])
            report = r.apply(Delta(assertions=[typed(60)]))
            assert typed(60) in report.explicit_added

    def test_noop_open_close_cycles_do_not_grow_the_journal(self, tmp_path):
        state = tmp_path / "state"
        with make_engine(state) as r:
            r.apply(Delta(assertions=small_ontology()))
            revision = r.revision
        size = (state / "changelog.wal").stat().st_size
        for _ in range(3):  # close()'s empty flush-commit journals nothing
            with make_engine(state) as r:
                assert r.revision == revision
        assert (state / "changelog.wal").stat().st_size == size

    def test_threaded_engine_recovers_like_inline(self, tmp_path):
        state = tmp_path / "state"
        victim = Slider(
            fragment="rhodf", workers=4, buffer_size=3, timeout=0.01, persist_dir=state
        )
        for delta in DELTAS:
            victim.apply(delta)
        expected = set(victim.graph)
        kill(victim)
        with make_engine(state) as revived:  # inline replay of threaded run
            assert set(revived.graph) == expected


class TestCompaction:
    def test_threshold_triggers_snapshot_and_truncate(self, tmp_path):
        state = tmp_path / "state"
        with make_engine(state, compact_journal_bytes=2_000) as r:
            for i in range(40):
                r.apply(Delta(assertions=[typed(i)]))
            assert (state / "snapshot.slider").exists()
            journal_records, _, _ = read_journal(state / "changelog.wal")
            assert len(journal_records) < 40  # truncated at least once
            expected = set(r.graph)
            revision = r.revision
        with make_engine(state) as revived:
            assert set(revived.graph) == expected
            # close()'s implicit empty flush-commit is not journaled, so
            # recovery lands on the last *content* revision.
            assert revived.revision == revision

    def test_explicit_snapshot_compacts(self, tmp_path):
        state = tmp_path / "state"
        with make_engine(state, compact_journal_bytes=None) as r:
            r.apply(Delta(assertions=small_ontology()))
            r.snapshot()
            records, _, _ = read_journal(state / "changelog.wal")
            assert records == []  # journal reset after the seal
        with make_engine(state) as revived:
            assert revived.recovery.snapshot_triples > 0

    def test_recovery_after_compaction_midstream(self, tmp_path):
        """Snapshot mid-sequence + journal tail replay compose."""
        reference = run_uninterrupted()
        state = tmp_path / "state"
        victim = make_engine(state)
        for delta in DELTAS[:3]:
            victim.apply(delta)
        victim.snapshot()  # commits one extra (empty) revision
        extra_revisions = victim.revision - reference[2][0]
        for delta in DELTAS[3:]:
            victim.apply(delta)
        expected = set(victim.graph)
        kill(victim)
        with make_engine(state) as revived:
            assert set(revived.graph) == expected == reference[-1][1]
            assert revived.revision == reference[-1][0] + extra_revisions
            assert revived.recovery.snapshot_revision > 0
            assert revived.recovery.replayed_records == len(DELTAS) - 3


class TestStatefulRulesAfterRecovery:
    def test_owl_horst_transitivity_survives_snapshot_restore(self, tmp_path):
        """Snapshot restore bypasses the rule pipeline.  prp-trp reads
        its declarations from the store on every firing, so new edges
        of an already-declared property still chain afterwards — with
        no re-priming hook on any rule."""
        from repro.rdf import OWL

        state = tmp_path / "state"
        ancestor = EX.ancestor
        with Slider(fragment="owl-horst", workers=0, timeout=None,
                    persist_dir=state) as r:
            r.apply(Delta(assertions=[
                Triple(ancestor, RDF.type, OWL.TransitiveProperty),
                Triple(EX.a, ancestor, EX.b),
            ]))
            r.snapshot()  # declaration now lives only in the snapshot

        with Slider(fragment="owl-horst", workers=0, timeout=None,
                    persist_dir=state) as revived:
            assert revived.recovery.replayed_records == 0  # pure restore
            assert not any(hasattr(rule, "prime") for rule in revived.rules)
            revived.apply(Delta(assertions=[Triple(EX.b, ancestor, EX.c)]))
            assert Triple(EX.a, ancestor, EX.c) in revived.graph

    def test_owl_horst_transitivity_survives_replica_bootstrap(self):
        """Same for ``restore_snapshot`` (a follower's bootstrap path)."""
        from repro.persist import parse_snapshot
        from repro.rdf import OWL

        ancestor = EX.ancestor
        with Slider(fragment="owl-horst", workers=0, timeout=None) as leader, \
                Slider(fragment="owl-horst", workers=0, timeout=None) as replica:
            leader.apply(Delta(assertions=[
                Triple(ancestor, RDF.type, OWL.TransitiveProperty),
                Triple(EX.a, ancestor, EX.b),
            ]))
            replica.restore_snapshot(parse_snapshot(leader.snapshot_bytes()))
            replica.apply(Delta(assertions=[Triple(EX.b, ancestor, EX.c)]))
            assert Triple(EX.a, ancestor, EX.c) in replica.graph

    def test_owl_horst_replay_only_path_already_worked(self, tmp_path):
        """Journal replay routes through apply() like any commit — pin
        that too."""
        from repro.rdf import OWL

        state = tmp_path / "state"
        victim = Slider(fragment="owl-horst", workers=0, timeout=None,
                        persist_dir=state)
        victim.apply(Delta(assertions=[
            Triple(EX.ancestor, RDF.type, OWL.TransitiveProperty),
            Triple(EX.a, EX.ancestor, EX.b),
        ]))
        kill(victim)
        with Slider(fragment="owl-horst", workers=0, timeout=None,
                    persist_dir=state) as revived:
            revived.apply(Delta(assertions=[Triple(EX.b, EX.ancestor, EX.c)]))
            assert Triple(EX.a, EX.ancestor, EX.c) in revived.graph


class TestSubsystemsAfterRecovery:
    def test_secondary_input_manager_is_durable(self, tmp_path):
        """Multi-source ingestion (create_input_manager) must journal
        like every other mutation path — not silently vanish on
        recovery while the revision id survives."""
        state = tmp_path / "state"
        victim = make_engine(state)
        secondary = victim.create_input_manager()
        secondary.add(small_ontology())
        victim.flush()
        expected = set(victim.graph)
        revision = victim.revision
        kill(victim)
        with make_engine(state) as revived:
            assert revived.revision == revision
            assert set(revived.graph) == expected

    def test_failed_startup_releases_the_directory_lock(self, tmp_path):
        """A JournalError during recovery must not wedge the directory:
        after the operator repairs the file, reopening succeeds."""
        from repro.persist import JournalError

        state = tmp_path / "state"
        with make_engine(state) as r:
            r.apply(Delta(assertions=small_ontology()))
        wal = state / "changelog.wal"
        healthy = wal.read_bytes()
        wal.write_bytes(b"XXXXXXXX" + healthy[8:])  # corrupt the magic
        with pytest.raises(JournalError):
            make_engine(state)
        wal.write_bytes(healthy)  # operator repairs the file
        with make_engine(state) as repaired:  # lock was released
            assert repaired.revision >= 1

    def test_reingesting_persisted_data_does_not_grow_the_journal(self, tmp_path):
        """Re-running the same load over a durable directory journals
        nothing new: every triple is already explicit, the commit is a
        no-op, and the WAL must not accumulate duplicate copies."""
        state = tmp_path / "state"
        ontology = small_ontology()
        with make_engine(state) as r:
            r.materialize(ontology)
        size = (state / "changelog.wal").stat().st_size
        for _ in range(3):
            with make_engine(state) as r:
                r.materialize(ontology)  # same data again
        assert (state / "changelog.wal").stat().st_size == size
    def test_subscriptions_fire_on_recovered_engine(self, tmp_path):
        state = tmp_path / "state"
        victim = make_engine(state)
        victim.apply(Delta(assertions=small_ontology()))
        kill(victim)
        with make_engine(state) as revived:
            x = Variable("x")
            sub = revived.subscribe([(x, RDF.type, EX.Event)])
            revived.apply(Delta(assertions=[typed(9)]))
            events = sub.drain()
            assert len(events) == 1 and len(events[0].added) == 1

    def test_windowed_reasoner_persists_expirations(self, tmp_path):
        state = tmp_path / "state"
        window = WindowedReasoner(
            CountWindow(2), fragment="rhodf", persist_dir=state
        )
        window.load_background(small_ontology()[:2])
        window.extend([typed(1), typed(2)])
        window.extend([typed(3), typed(4)])  # expires 1 and 2
        assert typed(1) not in window.graph
        survivors = set(window.graph)
        kill(window.reasoner)  # killed without close

        with make_engine(state) as revived:
            # The expirations were journaled as retraction records: the
            # recovered closure is the window's last committed state.
            assert set(revived.graph) == survivors
            assert typed(1) not in revived.graph
            assert typed(4) in revived.graph

    def test_stream_pump_chunks_are_durable(self, tmp_path):
        from repro.reasoner import ListSource, StreamPump

        state = tmp_path / "state"
        triples = small_ontology() + [typed(i) for i in range(10)]
        victim = make_engine(state)
        pump = StreamPump(victim, ListSource(triples), chunk_size=4, transactional=True)
        pump.run()
        expected = set(victim.graph)
        kill(victim)
        with make_engine(state) as revived:
            assert set(revived.graph) == expected


class TestStatsDurability:
    """Planner statistics are rebuilt bit-identically by recovery.

    The per-predicate (count, distinct-subjects, distinct-objects)
    vector the cost-based planner reads is maintained incrementally at
    commit time, never journaled: both the snapshot-restore and the
    WAL-replay recovery paths feed the store through the same mutation
    code, so the vector must come back identical — including the term
    ids, which the deterministic dictionary rebuild preserves.
    """

    @each_execution_mode
    def test_stats_survive_kill_recover(self, execution, tmp_path):
        state = tmp_path / "state"
        victim = make_engine(state, **execution)
        for delta in DELTAS:
            victim.apply(delta)
        expected = victim.graph.store.stats_vector()
        assert expected, "the script must leave non-trivial statistics"
        kill(victim)
        with make_engine(state, **execution) as revived:
            assert revived.graph.store.stats_vector() == expected

    @each_execution_mode
    def test_stats_survive_snapshot_compaction(self, execution, tmp_path):
        state = tmp_path / "state"
        with make_engine(state, compact_journal_bytes=None, **execution) as r:
            for delta in DELTAS[:3]:
                r.apply(delta)
            r.snapshot()
            for delta in DELTAS[3:]:  # journal tail on top of the seal
                r.apply(delta)
            expected = r.graph.store.stats_vector()
        with make_engine(state, **execution) as revived:
            assert revived.graph.store.stats_vector() == expected
