"""The sharded cluster facade: construction, commits, durability.

The closure/report *equivalence* properties live in
``test_differential_sharded.py``; this module pins the cluster's own
surface — validation, staging, recovery reassembly, the manifest's
configuration lock, snapshots, and the forwarding counters the smoke
jobs assert on.
"""

import pytest

from repro import Delta, Slider
from repro.persist import parse_snapshot
from repro.rdf import RDF, RDFS, Triple
from repro.sharding import (
    CLUSTER_META_FILENAME,
    ClusterError,
    ShardedReasoner,
)

from ..conftest import EX, small_ontology
from ..differential.test_differential import generate_script
from ..persist.test_recovery import kill


def kill_cluster(cluster: ShardedReasoner) -> None:
    """Simulate a crash: kill every shard (see ``kill``) and stop the
    shard pool, no flush."""
    cluster._pool.shutdown(wait=True)
    for engine in cluster.engines:
        kill(engine)


class TestConstruction:
    def test_unsupported_fragments_rejected(self):
        for fragment in ("rdfs-full", "owl-horst"):
            with pytest.raises(ClusterError, match="cannot be sharded"):
                ShardedReasoner(fragment=fragment, shards=2)

    def test_owl_horst_refusal_names_the_real_obstacle(self):
        """The reason is prp-trp's instance-instance join across shards —
        not a transitivity registry outside the store (there is none)."""
        with pytest.raises(ClusterError) as refusal:
            ShardedReasoner(fragment="owl-horst", shards=2)
        message = str(refusal.value)
        assert "prp-trp joins two instance triples" in message
        assert "not their routing key" in message
        assert "outside the store" not in message

    def test_shard_count_validated(self):
        with pytest.raises(ValueError, match=">= 1"):
            ShardedReasoner(shards=0)

    def test_context_manager(self):
        with ShardedReasoner(shards=2) as cluster:
            cluster.apply(Delta(assertions=small_ontology()))
            assert len(cluster) > len(small_ontology())


class TestCommits:
    def test_reaches_the_single_node_closure(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as single, \
                ShardedReasoner(fragment="rhodf", shards=3) as cluster:
            delta = Delta(assertions=small_ontology())
            single.apply(delta)
            cluster.apply(delta)
            assert set(cluster.graph) == set(single.graph)
            assert cluster.input_count == single.input_count
            assert cluster.inferred_count == single.inferred_count

    def test_flush_always_commits(self):
        """Revision parity with the engine: an empty flush still counts."""
        with ShardedReasoner(shards=2) as cluster:
            before = cluster.revision
            report = cluster.flush()
            assert report.revision == before + 1
            assert not report.added and not report.removed

    def test_add_stages_into_the_next_commit(self):
        with ShardedReasoner(shards=2) as cluster:
            cluster.add(small_ontology())
            assert cluster.revision == 0
            report = cluster.flush()
            assert report.revision == 1
            assert set(report.explicit_added) == set(small_ontology())

    def test_load_stages_files(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text(
            "<http://example.org/Cat> "
            "<http://www.w3.org/2000/01/rdf-schema#subClassOf> "
            "<http://example.org/Animal> .\n"
            "<http://example.org/tom> "
            "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
            "<http://example.org/Cat> .\n"
        )
        with ShardedReasoner(shards=2) as cluster:
            assert cluster.load(path) == 2
            cluster.flush()
            assert Triple(EX.tom, RDF.type, EX.Animal) in cluster.graph

    def test_commit_listener_sees_net_user_delta(self):
        with ShardedReasoner(shards=2) as cluster:
            fired = []
            cluster.add_commit_listener(
                lambda revision, assertions, retractions: fired.append(
                    (revision, set(assertions), set(retractions))
                )
            )
            triple = Triple(EX.tom, RDF.type, EX.Cat)
            cluster.apply(Delta(assertions=[triple]))
            assert fired == [(1, {triple}, set())]
            cluster.remove_commit_listener  # noqa: B018 - attribute exists
            cluster.apply(Delta(retractions=[triple]))
            assert fired[-1] == (2, set(), {triple})

    def test_forward_counters_rise_on_cross_partition_rules(self):
        """The rng rule derives at the subject's shard but the conclusion
        belongs to the object's — with enough spread some derivation must
        hop shards (the smoke jobs assert the same counter over HTTP)."""
        with ShardedReasoner(fragment="rhodf", shards=4) as cluster:
            assertions = [Triple(EX.knows, RDFS.range, EX.Person)]
            assertions += [
                Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(24)
            ]
            cluster.apply(Delta(assertions=assertions))
            stats = cluster.cluster_stats()
            assert stats["forwards"]["assertions"] > 0
            assert stats["forwards"]["rounds"] > 0
            for i in range(24):
                assert Triple(EX[f"o{i}"], RDF.type, EX.Person) in cluster.graph


class TestDurability:
    def test_crash_recovery_reassembles_the_global_state(self, tmp_path):
        script = generate_script(1101)
        with ShardedReasoner(fragment="rhodf", shards=4) as reference:
            for delta in script:
                reference.apply(delta)
            expected = set(reference.graph)
            expected_explicit = reference.input_count

        victim = ShardedReasoner(
            fragment="rhodf", shards=4, persist_dir=tmp_path / "state"
        )
        for delta in script:
            victim.apply(delta)
        revision = victim.revision
        vector = victim.revision_vector
        kill_cluster(victim)

        with ShardedReasoner(
            fragment="rhodf", shards=4, persist_dir=tmp_path / "state"
        ) as revived:
            assert revived.recovery is not None
            assert revived.recovery.recovered_revision == revision
            assert revived.revision == revision
            assert revived.revision_vector == vector
            assert set(revived.graph) == expected
            assert revived.input_count == expected_explicit
            # The revived cluster keeps reasoning correctly.
            report = revived.apply(script[0])
            assert report.revision == revision + 1

    @pytest.mark.parametrize("persist_fsync", (True, False))
    def test_manifest_rename_is_durable(self, tmp_path, fsynced, persist_fsync):
        """``cluster.json`` goes through the one atomic writer: file and
        directory entry are both flushed, under ``persist_fsync``."""
        state = tmp_path / "cluster"
        with ShardedReasoner(
            fragment="rhodf", shards=2, persist_dir=state,
            persist_fsync=persist_fsync,
        ) as cluster:
            cluster.apply(Delta(assertions=small_ontology()))
            manifest = state / CLUSTER_META_FILENAME
            assert fsynced(manifest) == fsynced(state) == persist_fsync
        assert not list(state.glob("*.tmp"))

    def test_manifest_locks_the_topology(self, tmp_path):
        state = tmp_path / "state"
        victim = ShardedReasoner(fragment="rhodf", shards=2, persist_dir=state)
        victim.apply(Delta(assertions=small_ontology()))
        kill_cluster(victim)
        assert (state / CLUSTER_META_FILENAME).exists()
        with pytest.raises(ClusterError, match="repartitioning"):
            ShardedReasoner(fragment="rhodf", shards=4, persist_dir=state)
        with pytest.raises(ClusterError, match="repartitioning"):
            ShardedReasoner(
                fragment="rhodf", shards=2, router="predicate", persist_dir=state
            )
        with pytest.raises(ClusterError, match="repartitioning"):
            ShardedReasoner(fragment="rdfs", shards=2, persist_dir=state)


class TestSnapshots:
    def test_snapshot_content_matches_single_node(self):
        script = generate_script(2202)

        def image(snapshot_bytes):
            snapshot = parse_snapshot(snapshot_bytes)
            terms = list(snapshot.terms)
            decode = lambda ids: frozenset(
                (terms[s], terms[p], terms[o]) for s, p, o in ids
            )
            try:
                return decode(snapshot.explicit), decode(snapshot.inferred)
            finally:
                snapshot.close()

        with Slider(fragment="rhodf", workers=0, timeout=None) as single, \
                ShardedReasoner(fragment="rhodf", shards=4) as cluster:
            for delta in script:
                single.apply(delta)
                cluster.apply(delta)
            assert image(cluster.snapshot_bytes()) == image(single.snapshot_bytes())

    def test_snapshot_bytes_reproducible(self):
        """Two identically-driven clusters serialize bit-identically."""
        script = generate_script(1101)
        blobs = []
        for _ in range(2):
            with ShardedReasoner(fragment="rhodf", shards=4) as cluster:
                for delta in script:
                    cluster.apply(delta)
                blobs.append(cluster.snapshot_bytes())
        assert blobs[0] == blobs[1]


class TestStats:
    def test_cluster_stats_shape(self):
        with ShardedReasoner(fragment="rhodf", shards=2) as cluster:
            cluster.apply(Delta(assertions=small_ontology()))
            stats = cluster.cluster_stats()
            assert stats["shards"] == 2
            assert stats["router"] == "subject"
            assert stats["revision"] == cluster.revision
            assert stats["revision_vector"] == cluster.revision_vector
            assert len(stats["per_shard"]) == 2
            assert sum(row["input"] for row in stats["per_shard"]) >= len(
                small_ontology()
            )
