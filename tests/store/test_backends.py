"""The pluggable-backend layer: registry, protocol, sharding, concurrency."""

import random
import threading

import pytest

from repro.store import (
    HashDictStore,
    ShardedTripleStore,
    TripleStore,
    UnknownBackendError,
    available_backends,
    create_store,
    register_backend,
)
from repro.store.backends import DEFAULT_SHARDS


def random_batch(seed: int, size: int = 400, predicates: int = 9) -> list:
    rng = random.Random(seed)
    return [
        (rng.randrange(40), rng.randrange(predicates), rng.randrange(40))
        for _ in range(size)
    ]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert "hashdict" in available_backends()
        assert "sharded" in available_backends()

    def test_default_is_hashdict(self):
        assert isinstance(create_store(), HashDictStore)
        assert isinstance(create_store(None), HashDictStore)

    def test_spec_parsing(self):
        assert isinstance(create_store("hashdict"), HashDictStore)
        sharded = create_store("sharded")
        assert isinstance(sharded, ShardedTripleStore)
        assert sharded.shard_count == DEFAULT_SHARDS
        assert create_store("sharded:16").shard_count == 16

    def test_instance_passthrough(self):
        store = HashDictStore()
        assert create_store(store) is store

    def test_unknown_backend_rejected(self):
        with pytest.raises(UnknownBackendError, match="registered"):
            create_store("btree")

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            create_store("hashdict:4")
        with pytest.raises(ValueError):
            create_store("sharded:many")
        with pytest.raises(ValueError):
            ShardedTripleStore(0)

    def test_third_party_registration(self):
        sentinel = HashDictStore()
        register_backend("test-stub", lambda parameter: sentinel)
        try:
            assert create_store("test-stub") is sentinel
            assert "test-stub" in available_backends()
        finally:
            from repro.store.backends import _REGISTRY

            del _REGISTRY["test-stub"]

    def test_invalid_backend_names_rejected(self):
        with pytest.raises(ValueError):
            register_backend("", HashDictStore)
        with pytest.raises(ValueError):
            register_backend("with:colon", HashDictStore)


class TestProtocol:
    def test_backends_satisfy_protocol(self):
        assert isinstance(HashDictStore(), TripleStore)
        assert isinstance(ShardedTripleStore(2), TripleStore)


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 7])
    def test_matches_hashdict_on_random_workload(self, shards):
        batch = random_batch(seed=shards)
        reference = HashDictStore()
        sharded = ShardedTripleStore(shards)
        assert reference.add_all(batch) == sharded.add_all(batch)
        assert set(reference) == set(sharded)
        assert len(reference) == len(sharded)
        for predicate in reference.predicates():
            assert sorted(reference.pairs_for_predicate(predicate)) == sorted(
                sharded.pairs_for_predicate(predicate)
            )
        removals = batch[::3]
        assert reference.remove_all(removals) == sharded.remove_all(removals)
        assert set(reference) == set(sharded)

    def test_predicates_partition_disjointly(self):
        sharded = ShardedTripleStore(4)
        sharded.add_all(random_batch(seed=99))
        seen = sharded.predicates()
        assert len(seen) == len(set(seen))  # no predicate spans two shards

    def test_stats_aggregate(self):
        sharded = ShardedTripleStore(3)
        batch = random_batch(seed=5)
        sharded.add_all(batch)
        stats = sharded.stats()
        assert stats["triples"] == len(sharded) == len(set(batch))
        assert stats["shards"] == 3
        assert stats["largest_shard"] <= stats["triples"]

    def test_single_triple_batch(self):
        sharded = ShardedTripleStore(2)
        assert sharded.add_all([(1, 2, 3)]) == [(1, 2, 3)]
        assert sharded.add_all([(1, 2, 3)]) == []
        assert sharded.add_all([]) == []
        assert sharded.remove_all([]) == []


class TestShardedConcurrency:
    def test_concurrent_writers_land_every_triple_exactly_once(self):
        """N writers race disjoint slices plus a shared overlap; the union
        must land exactly once (the dedup contract under striping)."""
        sharded = ShardedTripleStore(4)
        overlap = random_batch(seed=1, size=100)
        slices = [random_batch(seed=10 + i, size=300) for i in range(4)]
        new_counts = []
        barrier = threading.Barrier(4)

        def writer(chunk):
            barrier.wait()
            added = sharded.add_all(chunk + overlap)
            new_counts.append(len(added))

        threads = [threading.Thread(target=writer, args=(s,)) for s in slices]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = set(overlap)
        for s in slices:
            expected |= set(s)
        assert set(sharded) == expected
        assert len(sharded) == len(expected)
        # Every triple was reported "new" by exactly one writer.
        unique_inputs = [set(s) | set(overlap) for s in slices]
        total_reported = sum(new_counts)
        assert total_reported <= sum(len(u) for u in unique_inputs)
        assert total_reported >= len(expected)

    def test_reads_during_writes_are_consistent_snapshots(self):
        sharded = ShardedTripleStore(3)
        stop = threading.Event()
        errors: list = []

        def reader():
            try:
                while not stop.is_set():
                    for triple in list(sharded):
                        assert len(triple) == 3
                    sharded.stats()
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for seed in range(20):
                sharded.add_all(random_batch(seed=seed, size=50))
        finally:
            stop.set()
            thread.join()
        assert not errors
