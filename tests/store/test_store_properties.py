"""Property-based tests: the hash-dict store behaves exactly like a set
of triples (the distributors' deduplication contract included), and a
read view over it answers the same reads."""

import itertools
import os

import pytest
from hypothesis import given, seed, settings, strategies as st
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


# CI replays one pinned Hypothesis run of the state machine on every push
# (the differential harness's seed variable), on top of the free-running one.
_pinned = os.environ.get("SLIDER_DIFF_SEED")
_replay = seed(int(_pinned)) if _pinned else (lambda machine: machine)


def _model_draw(model):
    """A strategy over the model's triples, so removals hit (none when
    the model is empty)."""
    return [st.sampled_from(sorted(model))] if model else []


@_replay
class StoreMachine(RuleBasedStateMachine):
    """Stateful model-check: interleaved adds, removals, lookups and
    clears, with every read checked against the model set."""

    def __init__(self):
        super().__init__()
        self.store = HashDictStore()
        self.model: set = set()
        self.probe = (0, 0, 0)

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

    @rule(data=st.data())
    def remove(self, data):
        triple = data.draw(st.one_of(encoded_triples, *_model_draw(self.model)))
        assert self.store.remove(triple) == (triple in self.model)
        self.model.discard(triple)
        self.probe = triple

    @rule(data=st.data())
    def remove_all(self, data):
        batch = data.draw(
            st.lists(st.one_of(encoded_triples, *_model_draw(self.model)), max_size=20)
        )
        removed = self.store.remove_all(batch)
        assert set(removed) == set(batch) & self.model
        assert len(removed) == len(set(removed))
        self.model -= set(batch)
        if batch:
            self.probe = batch[0]

    @rule(probe=encoded_triples)
    def choose_probe(self, probe):
        self.probe = probe

    @invariant()
    def reads_match_model(self):
        store, model = self.store, self.model
        s, p, o = self.probe
        for shape in itertools.product((False, True), repeat=3):
            bound = tuple(term if keep else None for term, keep in zip(self.probe, shape))
            expected = sorted(
                t for t in model if all(b is None or b == v for b, v in zip(bound, t))
            )
            assert sorted(store.match(*bound)) == expected
            assert store.has_match(*bound) == bool(expected)
        with_subject = sorted(t for t in model if t[0] == s)
        with_object = sorted(t for t in model if t[2] == o)
        assert sorted(store.triples_for_subject(s)) == with_subject
        assert sorted(store.triples_for_object(o)) == with_object
        assert store.count_subject(s) == len(with_subject)
        assert store.count_object(o) == len(with_object)
        assert sorted(store.predicates_between(s, o)) == sorted(
            t[1] for t in with_subject if t[2] == o
        )
        expected_stats = {}
        for predicate in {t[1] for t in model} | {p}:
            under = [t for t in model if t[1] == predicate]
            expected_stats[predicate] = (
                len(under),
                len({t[0] for t in under}),
                len({t[2] for t in under}),
            )
            assert store.predicate_stats(predicate) == expected_stats[predicate]
        assert store.stats_vector() == tuple(
            (predicate, *row) for predicate, row in sorted(expected_stats.items()) if row[0]
        )

    @invariant()
    def size_matches(self):
        assert len(self.store) == len(self.model)

    @invariant()
    def stats_consistent(self):
        stats = self.store.stats()
        assert stats["triples"] == len(self.model)
        assert stats["predicates"] == len({p for _, p, _ in self.model})


TestStoreMachine = StoreMachine.TestCase
