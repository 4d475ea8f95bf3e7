"""Unit tests for the vertically-partitioned triple store."""

import gc
import random
import threading

import pytest

from repro.store import HashDictStore


@pytest.fixture
def store():
    return HashDictStore()


class TestAdd:
    def test_add_returns_true_for_new(self, store):
        assert store.add((1, 2, 3)) is True

    def test_add_returns_false_for_duplicate(self, store):
        store.add((1, 2, 3))
        assert store.add((1, 2, 3)) is False

    def test_len_counts_distinct(self, store):
        store.add((1, 2, 3))
        store.add((1, 2, 3))
        store.add((1, 2, 4))
        assert len(store) == 2

    def test_add_all_returns_only_new(self, store):
        store.add((1, 2, 3))
        new = store.add_all([(1, 2, 3), (4, 2, 3), (4, 2, 3), (5, 2, 3)])
        assert new == [(4, 2, 3), (5, 2, 3)]

    def test_add_all_preserves_order(self, store):
        new = store.add_all([(9, 1, 1), (2, 1, 1), (5, 1, 1)])
        assert new == [(9, 1, 1), (2, 1, 1), (5, 1, 1)]

    def test_contains(self, store):
        store.add((1, 2, 3))
        assert (1, 2, 3) in store
        assert (1, 2, 4) not in store
        assert (9, 9, 9) not in store


class TestIndexes:
    def test_has_predicate(self, store):
        assert not store.has_predicate(2)
        store.add((1, 2, 3))
        assert store.has_predicate(2)

    def test_predicates(self, store):
        store.add_all([(1, 2, 3), (1, 7, 3)])
        assert sorted(store.predicates()) == [2, 7]

    def test_count_predicate(self, store):
        store.add_all([(1, 2, 3), (1, 2, 4), (5, 2, 3), (1, 9, 3)])
        assert store.count_predicate(2) == 3
        assert store.count_predicate(9) == 1
        assert store.count_predicate(42) == 0

    def test_pairs_for_predicate(self, store):
        store.add_all([(1, 2, 3), (4, 2, 5)])
        assert sorted(store.pairs_for_predicate(2)) == [(1, 3), (4, 5)]

    def test_objects(self, store):
        store.add_all([(1, 2, 3), (1, 2, 4), (9, 2, 5)])
        assert sorted(store.objects(2, 1)) == [3, 4]
        assert store.objects(2, 42) == []

    def test_subjects(self, store):
        store.add_all([(1, 2, 3), (4, 2, 3), (9, 2, 5)])
        assert sorted(store.subjects(2, 3)) == [1, 4]
        assert store.subjects(2, 42) == []

    def test_both_indexes_agree(self, store):
        store.add_all([(i, i % 3, i * 2) for i in range(60)])
        for predicate in store.predicates():
            via_pso = set(store.pairs_for_predicate(predicate))
            via_pos = {
                (subject, obj)
                for obj in {o for _, o in via_pso}
                for subject in store.subjects(predicate, obj)
            }
            assert via_pso == via_pos


class TestMatch:
    @pytest.fixture
    def filled(self, store):
        store.add_all([(1, 2, 3), (1, 2, 4), (5, 2, 3), (1, 7, 3), (8, 9, 10)])
        return store

    def test_fully_bound(self, filled):
        assert filled.match(1, 2, 3) == [(1, 2, 3)]
        assert filled.match(1, 2, 99) == []

    def test_predicate_only(self, filled):
        assert sorted(filled.match(None, 2, None)) == [(1, 2, 3), (1, 2, 4), (5, 2, 3)]

    def test_subject_predicate(self, filled):
        assert sorted(filled.match(1, 2, None)) == [(1, 2, 3), (1, 2, 4)]

    def test_predicate_object(self, filled):
        assert sorted(filled.match(None, 2, 3)) == [(1, 2, 3), (5, 2, 3)]

    def test_unbound_predicate_scans_all(self, filled):
        assert sorted(filled.match(1, None, 3)) == [(1, 2, 3), (1, 7, 3)]

    def test_wildcard_everything(self, filled):
        assert len(filled.match()) == 5

    def test_unknown_predicate(self, filled):
        assert filled.match(None, 404, None) == []


class TestIterationAndClear:
    def test_iter_yields_all(self, store):
        triples = {(i, 1, i + 1) for i in range(20)}
        store.add_all(triples)
        assert set(store) == triples

    def test_iter_is_snapshot(self, store):
        store.add_all([(1, 1, 1), (2, 2, 2)])
        iterator = iter(store)
        store.add((3, 3, 3))
        assert len(list(iterator)) == 2  # snapshot taken before the add

    def test_clear(self, store):
        store.add_all([(1, 2, 3), (4, 5, 6)])
        store.clear()
        assert len(store) == 0
        assert store.match() == []
        assert not store.has_predicate(2)

    def test_stats(self, store):
        store.add_all([(1, 2, 3), (1, 2, 4), (5, 7, 3)])
        stats = store.stats()
        assert stats["triples"] == 3
        assert stats["predicates"] == 2


class TestConcurrency:
    def test_parallel_adds_count_once(self, store):
        triples = [(i % 100, i % 5, i % 70) for i in range(2000)]
        distinct = len(set(triples))

        def worker():
            for t in triples:
                store.add(t)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(store) == distinct

    def test_add_all_under_contention_returns_disjoint_new_sets(self, store):
        batch = [(i, 3, i) for i in range(500)]
        results: list[list] = []
        lock = threading.Lock()

        def worker():
            new = store.add_all(batch)
            with lock:
                results.append(new)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        # Each triple must be reported new by exactly one worker.
        total_new = sum(len(r) for r in results)
        assert total_new == 500
        assert len(store) == 500

    def test_reads_during_writes(self, store):
        stop = threading.Event()
        errors = []

        def writer():
            for i in range(3000):
                store.add((i, i % 7, i + 1))
            stop.set()

        def reader():
            while not stop.is_set():
                for predicate in store.predicates():
                    for s, o in store.pairs_for_predicate(predicate):
                        if (s, predicate, o) not in store:
                            errors.append((s, predicate, o))

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        w.join(timeout=30)
        r.join(timeout=30)
        assert not errors


class TestRemove:
    def test_remove_present(self, store):
        store.add((1, 2, 3))
        assert store.remove((1, 2, 3)) is True
        assert (1, 2, 3) not in store
        assert len(store) == 0

    def test_remove_absent(self, store):
        assert store.remove((1, 2, 3)) is False

    def test_remove_cleans_empty_partitions(self, store):
        store.add((1, 2, 3))
        store.remove((1, 2, 3))
        assert not store.has_predicate(2)
        assert store.match(None, 2, None) == []

    def test_remove_keeps_siblings(self, store):
        store.add_all([(1, 2, 3), (1, 2, 4), (5, 2, 3)])
        store.remove((1, 2, 3))
        assert sorted(store.match(None, 2, None)) == [(1, 2, 4), (5, 2, 3)]
        assert store.subjects(2, 3) == [5]
        assert sorted(store.objects(2, 1)) == [4]

    def test_remove_all_returns_removed_only(self, store):
        store.add_all([(1, 2, 3), (4, 5, 6)])
        removed = store.remove_all([(1, 2, 3), (9, 9, 9), (4, 5, 6)])
        assert removed == [(1, 2, 3), (4, 5, 6)]
        assert len(store) == 0

    def test_add_after_remove(self, store):
        store.add((1, 2, 3))
        store.remove((1, 2, 3))
        assert store.add((1, 2, 3)) is True
        assert len(store) == 1

    def test_indexes_stay_consistent_through_churn(self, store):
        import random

        rng = random.Random(5)
        model = set()
        for _ in range(2000):
            triple = (rng.randint(0, 15), rng.randint(0, 4), rng.randint(0, 15))
            if rng.random() < 0.5:
                assert store.add(triple) == (triple not in model)
                model.add(triple)
            else:
                assert store.remove(triple) == (triple in model)
                model.discard(triple)
        assert set(store) == model
        for predicate in {p for _, p, _ in model}:
            pairs = set(store.pairs_for_predicate(predicate))
            assert pairs == {(s, o) for s, p, o in model if p == predicate}


def _tracked(kind=None) -> int:
    """Objects the cyclic garbage collector tracks (of one type, or all)."""
    objects = gc.get_objects()
    if kind is None:
        return len(objects)
    return sum(type(obj) is kind for obj in objects)


class TestIndexLayout:
    """What stored triples cost the cyclic garbage collector.  The
    subject- and object-first permutations share the predicate
    partition's leaf sets, so the store holds exactly one set per
    distinct (p, s) and per distinct (p, o) pair, plus one dict per
    index key.  A full collection scans every one of them."""

    @staticmethod
    def _triples(count: int) -> list[tuple[int, int, int]]:
        rng = random.Random(11)
        return [
            (rng.randrange(400), rng.randrange(6), rng.randrange(900))
            for _ in range(count)
        ]

    @staticmethod
    def _leaves(store) -> int:
        """Σ over predicates of (distinct subjects + distinct objects)."""
        return sum(subjects + objects for _, _, subjects, objects in store.stats_vector())

    def test_tracked_objects_are_bounded_by_the_distinct_pairs(self, gc_disabled):
        triples = self._triples(3000)
        store = HashDictStore()
        sets_before, objects_before = _tracked(set), _tracked()
        store.add_all(triples)
        new_sets, new_objects = _tracked(set) - sets_before, _tracked() - objects_before
        leaves = self._leaves(store)
        # One dict per subject (SPO), per object (OSP), and two per
        # predicate (the PSO and POS partitions).
        keys = (
            len({s for s, _, _ in triples})
            + len({o for _, _, o in triples})
            + 2 * len(store.stats_vector())
        )
        assert new_sets == leaves
        assert new_objects <= leaves + keys + 8

    def test_removal_unlinks_the_shared_leaves(self, gc_disabled):
        triples = self._triples(3000)
        store = HashDictStore()
        sets_before = _tracked(set)
        store.add_all(triples)
        store.remove_all(triples[::2])
        assert _tracked(set) - sets_before == self._leaves(store)
        store.remove_all(triples)
        assert _tracked(set) == sets_before
