"""Differential replication: a follower is the leader, revision for revision.

The acceptance bar: for seeded random delta scripts (the same generator
the durability differential uses), a follower's closure, revision ids
and ``ReadView`` contents must match the leader's at every revision —
including across a mid-stream follower restart (local recovery + WAL
tail resume) and across a leader compaction that forces the follower
through a fresh snapshot bootstrap.
"""

from repro.reasoner.engine import Slider
from repro.replication import ChangeFeed, Follower
from repro.server import ReasoningService
from repro.server.http import serve

from ..conftest import each_execution_mode
from ..differential.test_differential import SEEDS, generate_script

#: Deterministic engine settings for both ends of the wire.
DETERMINISTIC = dict(workers=0, timeout=None)


def boot_leader(persist_dir=None, feed_retain=1024):
    reasoner = Slider(
        fragment="rhodf",
        persist_dir=persist_dir,
        persist_fsync=False,
        **DETERMINISTIC,
    )
    service = ReasoningService(reasoner=reasoner)
    ChangeFeed(service, retain=feed_retain)
    server, _thread = serve(service)
    return service, server


def shutdown_leader(service, server):
    server.shutdown()
    server.server_close()
    service.close()


def new_follower(server, persist_dir=None, **engine):
    """A started follower; ``engine`` overrides its deterministic settings."""
    return Follower(
        server.url,
        persist_dir=persist_dir,
        persist_fsync=False,
        reconnect_delay=0.05,
        **{**DETERMINISTIC, **engine},
    ).start()


def term_stats(reasoner):
    """The planner's per-predicate statistics keyed by *term* (the two
    dictionaries may assign different ids; the statistics must agree)."""
    dictionary = reasoner.graph.dictionary
    return {
        dictionary.decode(predicate): tuple(counts)
        for predicate, *counts in reasoner.graph.store.stats_vector()
    }


def assert_converged(service, follower):
    """Closure, revision id, and view contents agree on both ends."""
    leader = service.reasoner
    replica = follower.service.reasoner
    assert term_stats(replica) == term_stats(leader)
    assert replica.revision == leader.revision
    assert set(replica.graph) == set(leader.graph)
    assert replica.input_count == leader.input_count
    assert replica.inferred_count == leader.inferred_count
    # The published read views image the same revision with the same
    # triples (compared term-level: the two dictionaries may assign
    # different ids, the *contents* must be identical).
    leader_view = service.view()
    follower_view = follower.service.view()
    assert follower_view.revision == leader_view.revision
    leader_graph = service.graph()
    follower_graph = follower.service.graph()
    assert set(follower_graph) == set(leader_graph)


class TestDifferentialReplication:
    @each_execution_mode
    def test_identical_at_every_revision(self, execution, tmp_path):
        """WAL-tailing follower tracks every revision of a random script."""
        script = generate_script(SEEDS[0])
        service, server = boot_leader(persist_dir=tmp_path / "leader")
        try:
            follower = new_follower(server, **execution)
            try:
                for delta in script:
                    service.apply(delta.assertions, delta.retractions)
                    revision = service.reasoner.revision
                    assert follower.wait_for_revision(revision, timeout=30), (
                        f"follower never reached revision {revision}: "
                        f"{follower.status!r}"
                    )
                    assert_converged(service, follower)
                assert follower.status.bootstraps == 0  # pure WAL tail
            finally:
                follower.close()
        finally:
            shutdown_leader(service, server)

    @each_execution_mode
    def test_restart_resumes_from_local_state(self, execution, tmp_path):
        """Kill a durable follower mid-stream; its successor recovers
        locally and resumes the feed tail — no re-bootstrap."""
        script = generate_script(SEEDS[1])
        half = len(script) // 2
        state = tmp_path / "follower"
        service, server = boot_leader(persist_dir=tmp_path / "leader")
        try:
            follower = new_follower(server, persist_dir=state, **execution)
            for delta in script[:half]:
                service.apply(delta.assertions, delta.retractions)
            assert follower.wait_for_revision(service.reasoner.revision, 30)
            assert_converged(service, follower)
            follower.close()

            # The leader moves on while the replica is down.
            for delta in script[half:]:
                service.apply(delta.assertions, delta.retractions)

            revived = new_follower(server, persist_dir=state, **execution)
            try:
                assert revived.wait_for_revision(service.reasoner.revision, 30)
                assert_converged(service, revived)
                assert revived.status.bootstraps == 0, (
                    "a durable replica must resume from its recovered "
                    "state, not re-bootstrap"
                )
            finally:
                revived.close()
        finally:
            shutdown_leader(service, server)

    @each_execution_mode
    def test_compaction_forces_rebootstrap(self, execution, tmp_path):
        """Leader compaction evicts the replica's resume point: it must
        detect 410, re-bootstrap from the snapshot, and converge."""
        script = generate_script(SEEDS[0])
        half = len(script) // 2
        state = tmp_path / "follower"
        # A one-record ring: any disconnection outlives the retention.
        service, server = boot_leader(
            persist_dir=tmp_path / "leader", feed_retain=1
        )
        try:
            follower = new_follower(server, persist_dir=state, **execution)
            for delta in script[:half]:
                service.apply(delta.assertions, delta.retractions)
            assert follower.wait_for_revision(service.reasoner.revision, 30)
            follower.close()

            for delta in script[half:]:
                service.apply(delta.assertions, delta.retractions)
            service.reasoner.snapshot()  # WAL truncated: resume point gone

            revived = new_follower(server, persist_dir=state, **execution)
            try:
                assert revived.wait_for_revision(service.reasoner.revision, 30)
                assert_converged(service, revived)
                assert revived.status.bootstraps >= 1, (
                    "compaction past the resume point must force a "
                    "snapshot re-bootstrap"
                )
            finally:
                revived.close()
        finally:
            shutdown_leader(service, server)

    def test_replaced_leader_resets_lineage(self, tmp_path):
        """A wiped-and-replaced leader stands *below* the follower's old
        watermark: the follower must re-bootstrap once onto the new
        lineage and then tail it — not loop on the stale-leader check."""
        script = generate_script(SEEDS[0])
        service, server = boot_leader(persist_dir=tmp_path / "a")
        port = server.port
        follower = None
        try:
            for delta in script:
                service.apply(delta.assertions, delta.retractions)
            follower = new_follower(server)
            assert follower.wait_for_revision(service.reasoner.revision, 30)
            old_revision = service.reasoner.revision
            shutdown_leader(service, server)

            # A brand-new leader (fresh lineage, far lower revision)
            # comes up on the same address.
            from repro.server.http import ReasoningHTTPServer

            reasoner = Slider(fragment="rhodf", **DETERMINISTIC)
            service = ReasoningService(reasoner=reasoner)
            ChangeFeed(service)
            server = ReasoningHTTPServer(("127.0.0.1", port), service)
            import threading

            threading.Thread(target=server.serve_forever, daemon=True).start()
            service.apply(script[0].assertions, script[0].retractions)
            assert service.reasoner.revision < old_revision

            # wait_for_revision cannot be used *yet*: the stale watermark
            # (from the old lineage) already exceeds the new leader's
            # revision.  Poll for the re-bootstrap; it resets the
            # watermark onto the new lineage, after which the wait is
            # meaningful again (and also sits out the lazy-hydration
            # window, so ``service.reasoner`` is the real engine).
            import time

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if follower.status.bootstraps >= 1:
                    break
                time.sleep(0.05)
            assert follower.wait_for_revision(service.reasoner.revision, 30)
            assert_converged(service, follower)
            assert follower.status.bootstraps == 1  # once, not a livelock
        finally:
            if follower is not None:
                follower.close()
            shutdown_leader(service, server)

    def test_memory_leader_bootstraps_follower(self, tmp_path):
        """A non-durable leader has no WAL: a fresh follower must come
        up via snapshot bootstrap and then tail live commits."""
        script = generate_script(SEEDS[0])
        service, server = boot_leader()
        try:
            for delta in script[:3]:
                service.apply(delta.assertions, delta.retractions)
            follower = new_follower(server)
            try:
                assert follower.wait_ready(30)
                assert follower.status.bootstraps == 1
                for delta in script[3:]:
                    service.apply(delta.assertions, delta.retractions)
                    assert follower.wait_for_revision(service.reasoner.revision, 30)
                    assert_converged(service, follower)
            finally:
                follower.close()
        finally:
            shutdown_leader(service, server)


class TestStatsReplay:
    """``apply_at`` replay rebuilds the planner statistics bit-identically.

    A follower feeds leader deltas through ``apply_at`` pinned to the
    leader's revision ids; the resulting store must carry the exact
    statistics vector a direct ``apply`` run produces — same ids, same
    counts — since both paths run the same commit pipeline.
    """

    @each_execution_mode
    def test_apply_at_rebuilds_identical_stats(self, execution):
        script = generate_script(SEEDS[0])
        with Slider(fragment="rhodf", **DETERMINISTIC) as leader:
            revisions = [leader.apply(delta).revision for delta in script]
            expected_vector = leader.graph.store.stats_vector()
            expected_terms = term_stats(leader)
        assert expected_vector, "the script must leave non-trivial statistics"
        with Slider(fragment="rhodf", **{**DETERMINISTIC, **execution}) as replica:
            for revision, delta in zip(revisions, script):
                replica.apply_at(revision, delta)
            assert replica.graph.store.stats_vector() == expected_vector
            assert term_stats(replica) == expected_terms
