"""ColumnarReadStore: bisect-served reads over a mapped v2 image.

Property-based equivalence: for random triple sets, every read of the
columnar store must agree with the mutable reference backend hydrated
from the same triples — all eight match shapes, the vertical accessors,
and the membership/iteration protocol.  Writes must refuse.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.persist.columnar import (
    encode_columnar_snapshot,
    parse_columnar_snapshot,
)
from repro.rdf import IRI
from repro.store import HashDictStore
from repro.store.backends.columnar import ColumnarReadStore

UNIVERSE = 10

ids = st.integers(min_value=0, max_value=UNIVERSE - 1)
encoded_triples = st.tuples(ids, ids, ids)
triple_sets = st.sets(encoded_triples, max_size=60)
maybe_id = st.one_of(st.none(), ids)


def columnar_store(triples) -> ColumnarReadStore:
    terms = [IRI(f"http://store.example/t{i}") for i in range(UNIVERSE)]
    blob = encode_columnar_snapshot(
        revision=1, fragment="rhodf", store_spec="hashdict", axiom_count=0,
        terms=terms, explicit=sorted(triples), inferred=[],
    )
    return ColumnarReadStore(parse_columnar_snapshot(blob))


def reference_store(triples):
    store = HashDictStore()
    store.add_all(sorted(triples))
    return store


class TestReadEquivalence:
    @given(triples=triple_sets)
    @settings(max_examples=80, deadline=None)
    def test_membership_and_iteration(self, triples):
        columnar = columnar_store(triples)
        assert len(columnar) == len(triples)
        assert set(columnar) == triples
        for triple in list(triples)[:10]:
            assert triple in columnar
        assert (UNIVERSE, UNIVERSE, UNIVERSE) not in columnar
        columnar.close()

    @given(
        triples=triple_sets,
        subject=maybe_id, predicate=maybe_id, obj=maybe_id,
    )
    @settings(max_examples=120, deadline=None)
    def test_every_match_shape(self, triples, subject, predicate, obj):
        columnar = columnar_store(triples)
        reference = reference_store(triples)
        assert sorted(columnar.match(subject, predicate, obj)) == sorted(
            reference.match(subject, predicate, obj)
        )
        columnar.close()

    @given(triples=triple_sets, predicate=ids, subject=ids, obj=ids)
    @settings(max_examples=80, deadline=None)
    def test_vertical_accessors(self, triples, predicate, subject, obj):
        columnar = columnar_store(triples)
        reference = reference_store(triples)
        assert columnar.has_predicate(predicate) == reference.has_predicate(predicate)
        assert sorted(columnar.predicates()) == sorted(reference.predicates())
        assert columnar.count_predicate(predicate) == reference.count_predicate(
            predicate
        )
        assert sorted(columnar.pairs_for_predicate(predicate)) == sorted(
            reference.pairs_for_predicate(predicate)
        )
        assert sorted(columnar.objects(predicate, subject)) == sorted(
            reference.objects(predicate, subject)
        )
        assert sorted(columnar.subjects(predicate, obj)) == sorted(
            reference.subjects(predicate, obj)
        )
        columnar.close()


class TestImmutabilityAndLifecycle:
    def test_writes_refuse(self):
        columnar = columnar_store({(0, 1, 2)})
        for method in (columnar.add, columnar.remove, columnar.clear):
            with pytest.raises(TypeError, match="read-only"):
                method((3, 4, 5))
        with pytest.raises(TypeError, match="read-only"):
            columnar.add_all([(3, 4, 5)])
        columnar.close()

    def test_close_releases_the_map(self, tmp_path):
        path = tmp_path / "image.slider"
        path.write_bytes(encode_columnar_snapshot(
            revision=2, fragment="rhodf", store_spec="hashdict", axiom_count=0,
            terms=[IRI("http://store.example/t0")], explicit=[(0, 0, 0)],
            inferred=[],
        ))
        store = ColumnarReadStore.open(path)
        assert set(store) == {(0, 0, 0)}
        store.close()  # must not raise BufferError: views released first
        assert len(store) == 0

    def test_open_serves_both_partitions(self, tmp_path):
        path = tmp_path / "image.slider"
        path.write_bytes(encode_columnar_snapshot(
            revision=3, fragment="rhodf", store_spec="hashdict", axiom_count=0,
            terms=[IRI("http://store.example/t0"), IRI("http://store.example/t1")],
            explicit=[(0, 1, 0)], inferred=[(1, 1, 1)],
        ))
        store = ColumnarReadStore.open(path)
        assert isinstance(store, ColumnarReadStore)
        assert set(store) == {(0, 1, 0), (1, 1, 1)}
        assert store.stats()["revision"] == 3
        store.close()
