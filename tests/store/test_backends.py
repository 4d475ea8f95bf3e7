"""The store layer: ``create_store``, the protocol, and the hash-dict
store under concurrent writers, removers and readers."""

import random
import sys
import threading
from collections import Counter

import pytest

from repro import Graph, Slider
from repro.baselines import BatchReasoner
from repro.persist.columnar import encode_columnar_snapshot, parse_columnar_snapshot
from repro.rdf import IRI
from repro.server import ReadView, ReasoningService
from repro.store import HashDictStore, TripleStore, create_store
from repro.store.backends import ColumnarReadStore


def random_batch(seed: int, size: int = 400, predicates: int = 9) -> list:
    rng = random.Random(seed)
    return [
        (rng.randrange(40), rng.randrange(predicates), rng.randrange(40))
        for _ in range(size)
    ]


class TestCreateStore:
    def test_default_is_a_fresh_hashdict(self):
        first, second = create_store(), create_store(None)
        assert isinstance(first, HashDictStore)
        assert isinstance(second, HashDictStore)
        assert first is not second

    def test_instance_passthrough(self):
        store = HashDictStore()
        assert create_store(store) is store

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: Slider(store=spec),
            lambda spec: Graph(store=spec),
            lambda spec: BatchReasoner(store=spec),
            lambda spec: ReasoningService(store=spec),
        ],
        ids=["Slider", "Graph", "BatchReasoner", "ReasoningService"],
    )
    @pytest.mark.parametrize(
        "spec", [f"sharded:{4}", "hashdict", "columnar:/srv/image.slider", "x"]
    )
    def test_spec_strings_are_refused_at_construction(self, build, spec):
        with pytest.raises(TypeError) as info:
            build(spec)
        message = str(info.value)
        assert repr(spec) in message
        for removed in ("'hashdict'", "'sharded:N'", "'columnar:<path>'"):
            assert removed in message


def columnar_store(triples) -> ColumnarReadStore:
    """A mapped read-only image of encoded ``triples`` (ids < 40)."""
    blob = encode_columnar_snapshot(
        revision=1, fragment="rhodf", axiom_count=0,
        terms=[IRI(f"urn:term:{i}") for i in range(40)],
        explicit=sorted(set(triples)), inferred=[],
    )
    return ColumnarReadStore(parse_columnar_snapshot(blob))


#: The read-only stores in the tree, each built over a hash-dict store
#: holding ``batch``.
READERS = {
    "view": lambda store, batch: ReadView.from_store(0, store),
    "columnar": lambda store, batch: columnar_store(batch),
}

#: The permutation reads the planner calls without a fallback, each
#: normalised to a comparable value for one probe ``(s, p, o)``.
PERMUTATION_READS = {
    "predicate_stats": lambda r, s, p, o: r.predicate_stats(p),
    "count_subject": lambda r, s, p, o: r.count_subject(s),
    "count_object": lambda r, s, p, o: r.count_object(o),
    "predicates_between": lambda r, s, p, o: sorted(r.predicates_between(s, o)),
    "triples_for_subject": lambda r, s, p, o: sorted(r.triples_for_subject(s)),
    "triples_for_object": lambda r, s, p, o: sorted(r.triples_for_object(o)),
}


class TestProtocol:
    def test_hashdict_satisfies_protocol(self):
        assert isinstance(HashDictStore(), TripleStore)

    @pytest.mark.parametrize("reader", READERS)
    def test_read_stores_satisfy_protocol(self, reader):
        batch = random_batch(seed=3)
        store = HashDictStore()
        store.add_all(batch)
        assert isinstance(READERS[reader](store, batch), TripleStore)

    @pytest.mark.parametrize("read", PERMUTATION_READS)
    @pytest.mark.parametrize("reader", READERS)
    def test_permutation_reads_match_hashdict(self, reader, read):
        """Every read store answers each planner read like the hash-dict
        store holding the same triples, for present and absent terms."""
        batch = random_batch(seed=3, size=120)
        store = HashDictStore()
        store.add_all(batch)
        other = READERS[reader](store, batch)
        answer = PERMUTATION_READS[read]
        for s in range(40):
            probe = (s, s % 9, (s * 7) % 40)
            assert answer(other, *probe) == answer(store, *probe), probe


class TestHashDictConcurrency:
    """The rule thread pool (``workers>0``) writes one ``HashDictStore``
    from several threads while readers probe it."""

    def test_concurrent_writers_land_every_triple_exactly_once(self):
        """N writers race disjoint slices plus a shared overlap; the union
        must land exactly once (the dedup contract the distributors
        depend on)."""
        store = HashDictStore()
        overlap = random_batch(seed=1, size=100)
        slices = [random_batch(seed=10 + i, size=300) for i in range(4)]
        reported: list[list] = []
        barrier = threading.Barrier(len(slices), timeout=30)

        def writer(chunk):
            barrier.wait()
            for start in range(0, len(chunk), 25):  # many lock handoffs
                reported.append(store.add_all(chunk[start:start + 25] + overlap))

        threads = [threading.Thread(target=writer, args=(s,)) for s in slices]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        expected = set(overlap)
        for s in slices:
            expected |= set(s)
        assert set(store) == expected
        assert len(store) == len(expected)
        # Every triple was reported "new" by exactly one writer.
        counts = Counter(t for added in reported for t in added)
        assert set(counts) == expected
        assert set(counts.values()) == {1}

    def test_reads_during_writes_are_consistent_snapshots(self):
        """Each ``add_all`` is atomic to readers: every snapshot a reader
        takes is the union of some prefix of the written batches."""
        store = HashDictStore()
        batches = [random_batch(seed=seed, size=50) for seed in range(20)]
        prefixes = [set()]
        for batch in batches:
            prefixes.append(prefixes[-1] | set(batch))
        by_size = {len(prefix): prefix for prefix in prefixes}
        stop = threading.Event()
        errors: list = []

        def reader():
            try:
                while True:  # at least one snapshot, however fast the writer
                    seen = set(store)
                    assert by_size.get(len(seen)) == seen
                    assert store.stats()["triples"] >= len(seen)
                    if stop.is_set():
                        break
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        thread = threading.Thread(target=reader)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread.start()
        try:
            for batch in batches:
                store.add_all(batch)
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not thread.is_alive()
        assert not errors
        assert set(store) == prefixes[-1]

    def test_racing_adds_and_removes_keep_indexes_and_statistics_exact(self):
        """Writers adding and a remover deleting disjoint triples at the
        same time leave every permutation index and every planner
        statistic exactly as a sequential fill of the survivors would."""
        doomed = sorted(set(random_batch(seed=2, size=300, predicates=4)))
        slices = [
            [t for t in random_batch(seed=20 + i, size=300) if t not in doomed]
            for i in range(3)
        ]
        store = HashDictStore()
        store.add_all(doomed)
        barrier = threading.Barrier(len(slices) + 1, timeout=30)

        def writer(chunk):
            barrier.wait()
            for start in range(0, len(chunk), 20):
                store.add_all(chunk[start:start + 20])

        def remover():
            barrier.wait()
            for start in range(0, len(doomed), 20):
                store.remove_all(doomed[start:start + 20])

        threads = [threading.Thread(target=writer, args=(s,)) for s in slices]
        threads.append(threading.Thread(target=remover))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        reference = HashDictStore()
        for chunk in slices:
            reference.add_all(chunk)
        assert set(store) == set(reference)
        assert store.stats_vector() == reference.stats_vector()
        for s in range(40):
            probe = (s, s % 9, (s * 7) % 40)
            for read, answer in PERMUTATION_READS.items():
                assert answer(store, *probe) == answer(reference, *probe), (read, probe)
            for p in range(9):
                assert sorted(store.objects(p, s)) == sorted(reference.objects(p, s))
                assert sorted(store.subjects(p, s)) == sorted(reference.subjects(p, s))
