"""The serving layer over a partitioned cluster.

``ReasoningService(shards=N)`` must keep every single-node service
contract — snapshot-isolated reads, read-your-writes, coalescing, SSE
channels — while committing through the partitioned pipeline, and must
surface the cluster's topology in ``stats()`` (and therefore /stats,
/healthz).
"""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro import Slider, Triple, Variable
from repro.obs import TRACER, validate_exposition
from repro.rdf import RDF, RDFS
from repro.sharding import CLUSTER_LOG_FILENAME, ShardedReasoner
from repro.server import ReasoningService, serve

from ..conftest import EX, small_ontology
from .test_cluster import kill_cluster


def call(port, method, path, body=None):
    """One request on its own connection: ``(status, decoded body)``."""
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, None if body is None else json.dumps(body))
        response = conn.getresponse()
        payload = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            payload = json.loads(payload)
        return response.status, payload
    finally:
        conn.close()


def scrape(port) -> dict[str, float]:
    """``/metrics``, validated, summed by sample name."""
    status, body = call(port, "GET", "/metrics")
    assert status == 200
    totals: dict[str, float] = {}
    for family in validate_exposition(body.decode("utf-8")).values():
        for name, _labels, value in family["samples"]:
            totals[name] = totals.get(name, 0.0) + value
    return totals


def drained_batch(service, trace_id):
    """Two instance writes with distinct subjects, forced into one
    drained batch; returns (revisions seen by the writers, spans)."""
    with service.writes.paused():
        batch = [
            service.submit([Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"])], trace_id=trace_id)
            for i in range(2)
        ]
    revisions = {pending.wait(30).revision for pending in batch}
    spans = TRACER.ring.snapshot(trace_id=trace_id)
    return revisions, [s for s in spans if s["name"] == "shard.commit"]


class TestConstruction:
    def test_shards_builds_a_cluster_behind_the_one_pipeline(self):
        """What the old ``ShardedCoalescer`` stood for: a drained batch
        is one global revision, committed as one ``shard.commit``
        sub-commit per busy shard."""
        with ReasoningService(shards=2, fragment="rhodf", workers=0) as service:
            assert isinstance(service.reasoner, ShardedReasoner)
            assert service.sharding["shards"] == 2
            before = service.revision
            vector = list(service.sharding["revision_vector"])
            revisions, shard_spans = drained_batch(service, "sharded-batch")
            assert revisions == {before + 1}
            busy = [
                shard
                for shard, (old, new) in enumerate(
                    zip(vector, service.sharding["revision_vector"])
                )
                if new > old
            ]
            assert busy, "no shard committed"
            assert sorted(s["attrs"]["shard"] for s in shard_spans) == busy

    def test_single_node_stays_single_node(self):
        with ReasoningService(fragment="rhodf", workers=0, timeout=None) as service:
            assert service.sharding is None
            assert service.stats()["sharding"] is None
            before = service.revision
            revisions, shard_spans = drained_batch(service, "single-batch")
            assert revisions == {before + 1}
            assert shard_spans == []

    def test_prebuilt_cluster_accepted(self):
        cluster = ShardedReasoner(fragment="rhodf", shards=3)
        with ReasoningService(reasoner=cluster) as service:
            assert service.sharding["shards"] == 3
            before = service.revision
            revisions, shard_spans = drained_batch(service, "prebuilt-batch")
            assert revisions == {before + 1}
            assert shard_spans

    def test_shards_and_prebuilt_reasoner_conflict(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as reasoner:
            with pytest.raises(ValueError, match="not both"):
                ReasoningService(reasoner=reasoner, shards=2)

    def test_shards_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            ReasoningService(shards=0)


class TestShardedWrites:
    def test_read_your_writes(self):
        with ReasoningService(shards=4, fragment="rhodf", workers=0) as service:
            result = service.apply(small_ontology())
            pinned = service.graph(at=result.revision)
            x = Variable("x")
            assert pinned.ask([(x, RDF.type, EX.Animal)])
            assert service.revision >= result.revision

    def test_concurrent_writers_one_global_revision_each(self):
        """Many racing /apply callers: every write lands, revisions are
        the cluster's global ones, and the final closure equals a
        single-node service fed the same triples."""
        triples = [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(24)]
        schema = Triple(EX.knows, RDFS.range, EX.Person)
        with ReasoningService(shards=4, fragment="rhodf", workers=0) as service:
            service.apply([schema])
            errors = []

            def writer(triple):
                try:
                    service.apply([triple], timeout=30)
                except Exception as error:  # pragma: no cover - diagnostic
                    errors.append(error)

            threads = [
                threading.Thread(target=writer, args=(t,)) for t in triples
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            graph = service.graph()
            for triple in triples:
                assert triple in graph
                assert Triple(triple.object, RDF.type, EX.Person) in graph
            # Cross-shard closure really ran (rng-rule hops were forwarded).
            assert service.sharding["forwards"]["assertions"] > 0

        with ReasoningService(fragment="rhodf", workers=0, timeout=None) as single:
            single.apply([schema] + triples)
            reference = set(single.graph())
        assert {t for t in graph} == reference


class TestShardedStats:
    def test_stats_carry_the_cluster_block(self):
        with ReasoningService(shards=2, fragment="rhodf", workers=0) as service:
            service.apply(small_ontology())
            stats = service.stats()
            block = stats["sharding"]
            assert block["shards"] == 2
            assert block["revision"] == stats["revision"]
            assert len(block["revision_vector"]) == 2
            assert {"assertions", "retractions", "broadcasts", "rounds"} <= set(
                block["forwards"]
            )
            assert len(block["per_shard"]) == 2

    def test_subscription_channels_over_cluster(self):
        with ReasoningService(shards=2, fragment="rhodf", workers=0) as service:
            service.apply(small_ontology())
            channel = service.subscribe_channel(
                [(Variable("x"), RDF.type, Variable("c"))]
            )
            assert channel.initial_solutions()
            result = service.apply([Triple(EX.jerry, RDF.type, EX.Cat)])
            event = channel.get(timeout=10)
            assert event is not None
            assert event.revision == result.revision
            assert event.added
            channel.close()


class TestDurableService:
    def test_sharded_service_recovers(self, tmp_path):
        state = tmp_path / "cluster-state"
        with ReasoningService(
            shards=2, fragment="rhodf", workers=0, persist_dir=state
        ) as service:
            service.apply(small_ontology())
            revision = service.revision
            closure = set(service.graph())

        with ReasoningService(
            shards=2, fragment="rhodf", workers=0, persist_dir=state, quiesce=False
        ) as revived:
            assert revived.revision == revision
            assert set(revived.graph()) == closure
            stats = revived.stats()
            assert stats["recovery"]["revision"] == revision
            assert stats["recovery"]["shards"] == 2

    def test_cluster_log_on_metrics_and_recovery_on_stats(self, tmp_path):
        """A global commit's durable cost, read off ``/metrics``: its
        shard WAL appends plus one ``cluster.wal`` record — bytes and
        fsyncs — and no checkpoint; after a crash ``/stats`` says how
        many log records recovery replayed."""
        state = tmp_path / "cluster-state"
        writes = [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(3)]

        def wal_bytes() -> int:
            logs = [state / CLUSTER_LOG_FILENAME, *state.glob("shard-*/changelog.wal")]
            return sum(path.stat().st_size for path in logs)

        service = ReasoningService(shards=2, fragment="rhodf", workers=0, persist_dir=state)
        service.apply(small_ontology())  # schema broadcasts: every shard WAL exists
        http_server, _thread = serve(service)
        try:
            before, vector = scrape(http_server.port), list(service.reasoner.revision_vector)
            log_before, on_disk = (state / CLUSTER_LOG_FILENAME).stat().st_size, wal_bytes()
            for triple in writes:
                status, _ = call(http_server.port, "POST", "/apply", {"assert": [triple.n3()]})
                assert status == 200
            after = scrape(http_server.port)
            sub_commits = sum(service.reasoner.revision_vector) - sum(vector)
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.writes.close()
            kill_cluster(service.reasoner)  # a crash: no close(), no checkpoint

        def moved(name):
            return after.get(name, 0.0) - before.get(name, 0.0)

        assert (state / CLUSTER_LOG_FILENAME).stat().st_size > log_before
        assert moved("slider_persist_wal_bytes_total") == wal_bytes() - on_disk
        assert moved("slider_persist_fsync_seconds_count") == sub_commits + len(writes)
        assert moved("slider_sharding_checkpoints_total") == 0

        revived = ReasoningService(shards=2, fragment="rhodf", workers=0, persist_dir=state)
        http_server, _thread = serve(revived)
        try:
            _, stats = call(http_server.port, "GET", "/stats")
            # Every commit after the boot flush's checkpoint, warm-up included.
            assert stats["recovery"]["replayed_records"] == 1 + len(writes)
            assert stats["recovery"]["torn"] is False
            # The boot flush is the revived cluster's first commit: it
            # checkpoints (the registry is process-wide, hence the delta).
            assert scrape(http_server.port)["slider_sharding_checkpoints_total"] == (
                after["slider_sharding_checkpoints_total"] + 1
            )
        finally:
            http_server.shutdown()
            http_server.server_close()
            revived.close()
