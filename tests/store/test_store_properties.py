"""Property-based tests: the hash-dict store behaves exactly like a set
of triples (the distributors' deduplication contract included), and a
read view over it answers the same reads."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.server import ReadView
from repro.store import HashDictStore

#: The read surfaces over one filled store: the store itself, and the
#: serving layer's view of it.
READERS = {
    "hashdict": lambda store: store,
    "view": lambda store: ReadView.from_store(0, store),
}

encoded_triples = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=30),
)


@given(triples=st.lists(encoded_triples, max_size=200))
def test_store_equals_model_set(triples):
    store = HashDictStore()
    model: set = set()
    for triple in triples:
        was_new = store.add(triple)
        assert was_new == (triple not in model)
        model.add(triple)
    assert set(store) == model
    assert len(store) == len(model)


@given(triples=st.lists(encoded_triples, max_size=200))
def test_add_all_new_equals_set_difference(triples):
    store = HashDictStore()
    half = len(triples) // 2
    first, second = triples[:half], triples[half:]
    store.add_all(first)
    new = store.add_all(second)
    assert set(new) == set(second) - set(first)
    # ... and each new triple is reported exactly once.
    assert len(new) == len(set(new))


@given(triples=st.lists(encoded_triples, max_size=200))
def test_add_all_preserves_input_order(triples):
    """The new-triples list keeps batch order."""
    store = HashDictStore()
    new = store.add_all(triples)
    assert new == list(dict.fromkeys(triples))  # first occurrences, in order


@pytest.mark.parametrize("reader", READERS)
@given(
    triples=st.lists(encoded_triples, max_size=150),
    s=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
    p=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    o=st.one_of(st.none(), st.integers(min_value=0, max_value=30)),
)
@settings(max_examples=200)
def test_match_equals_filtered_model(reader, triples, s, p, o):
    store = HashDictStore()
    store.add_all(triples)
    store = READERS[reader](store)
    expected = {
        t
        for t in set(triples)
        if (s is None or t[0] == s)
        and (p is None or t[1] == p)
        and (o is None or t[2] == o)
    }
    assert set(store.match(s, p, o)) == expected


@pytest.mark.parametrize("reader", READERS)
@given(triples=st.lists(encoded_triples, max_size=150))
def test_index_consistency(reader, triples):
    store = HashDictStore()
    store.add_all(triples)
    store = READERS[reader](store)
    model = set(triples)
    predicates = store.predicates()
    assert sorted(predicates) == sorted({p for _, p, _ in model})
    for predicate in predicates:
        pairs = set(store.pairs_for_predicate(predicate))
        assert pairs == {(s, o) for s, p, o in model if p == predicate}
        assert store.has_predicate(predicate)
        assert store.count_predicate(predicate) == len(pairs)
        for s, o in pairs:
            assert o in store.objects(predicate, s)
            assert s in store.subjects(predicate, o)


@given(
    triples=st.lists(encoded_triples, max_size=150),
    removals=st.lists(encoded_triples, max_size=150),
)
def test_remove_all_equals_set_difference(triples, removals):
    store = HashDictStore()
    store.add_all(triples)
    removed = store.remove_all(removals)
    model = set(triples)
    assert set(removed) == model & set(removals)
    assert set(store) == model - set(removals)


class StoreMachine(RuleBasedStateMachine):
    """Stateful model-check: interleaved adds, lookups and clears."""

    def __init__(self):
        super().__init__()
        self.store = HashDictStore()
        self.model: set = set()

    @rule(triple=encoded_triples)
    def add(self, triple):
        assert self.store.add(triple) == (triple not in self.model)
        self.model.add(triple)

    @rule(batch=st.lists(encoded_triples, max_size=20))
    def add_all(self, batch):
        new = self.store.add_all(batch)
        assert set(new) == set(batch) - self.model
        self.model |= set(batch)

    @rule(triple=encoded_triples)
    def check_contains(self, triple):
        assert (triple in self.store) == (triple in self.model)

    @rule()
    def clear(self):
        self.store.clear()
        self.model.clear()

    @invariant()
    def size_matches(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def stats_consistent(self):
        stats = self.store.stats()
        assert stats["triples"] == len(self.model)
        assert stats["predicates"] == len({p for _, p, _ in self.model})


TestStoreMachine = StoreMachine.TestCase
