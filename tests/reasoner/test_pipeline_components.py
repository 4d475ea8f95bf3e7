"""Unit tests for rule modules, distributors, and the input manager."""

import pytest

from repro.dictionary import TermDictionary
from repro.rdf import IRI, RDFS, Triple
from repro.reasoner import (
    Distributor,
    InputManager,
    JoinRule,
    Pattern,
    RuleModule,
    TripleBuffer,
    Var,
    Vocabulary,
)
from repro.reasoner.trace import Trace
from repro.store import HashDictStore

from ..conftest import EX


@pytest.fixture
def dictionary():
    return TermDictionary()


@pytest.fixture
def vocab(dictionary):
    return Vocabulary(dictionary)


@pytest.fixture
def store():
    return HashDictStore()


@pytest.fixture
def transitive_rule(vocab):
    return JoinRule(
        "scm-sco",
        Pattern(Var("a"), vocab.sub_class_of, Var("b")),
        Pattern(Var("b"), vocab.sub_class_of, Var("c")),
        head=Pattern(Var("a"), vocab.sub_class_of, Var("c")),
    )


@pytest.fixture
def module(transitive_rule):
    return RuleModule(transitive_rule, TripleBuffer("scm-sco", capacity=5))


def encode(dictionary, *names):
    return [dictionary.encode(IRI(f"http://example.org/{n}")) for n in names]


class TestRuleModule:
    def test_buffer_must_match_rule(self, transitive_rule):
        with pytest.raises(ValueError):
            RuleModule(transitive_rule, TripleBuffer("other-rule"))

    def test_execute_updates_stats(self, module, dictionary, vocab, store):
        a, b, c = encode(dictionary, "a", "b", "c")
        sco = vocab.sub_class_of
        store.add((a, sco, b))
        derived = module.execute(store, [(b, sco, c)], vocab)
        assert derived == [(a, sco, c)]
        stats = module.stats()
        assert stats["executions"] == 1
        assert stats["consumed"] == 1
        assert stats["derived"] == 1
        assert stats["kept"] == 0  # distributor feedback not yet given

    def test_record_kept_and_duplicates(self, module, dictionary, vocab, store):
        a, b, c = encode(dictionary, "a", "b", "c")
        sco = vocab.sub_class_of
        store.add((a, sco, b))
        module.execute(store, [(b, sco, c)], vocab)
        module.record_kept(1)
        stats = module.stats()
        assert stats["kept"] == 1
        assert stats["duplicates_filtered"] == 0


class TestDistributor:
    def test_collect_adds_and_dispatches_new(self, module, store):
        dispatched: list = []
        distributor = Distributor(
            module, store, dispatch=dispatched.extend, dependents=("scm-sco",)
        )
        new = distributor.collect([(1, 2, 3), (4, 5, 6)])
        assert new == [(1, 2, 3), (4, 5, 6)]
        assert dispatched == [(1, 2, 3), (4, 5, 6)]
        assert (1, 2, 3) in store

    def test_duplicates_not_redispatched(self, module, store):
        """Paper: 'only distinct triples are sent to the buffers'."""
        dispatched: list = []
        distributor = Distributor(module, store, dispatch=dispatched.extend, dependents=())
        store.add((1, 2, 3))
        new = distributor.collect([(1, 2, 3), (7, 8, 9)])
        assert new == [(7, 8, 9)]
        assert dispatched == [(7, 8, 9)]

    def test_empty_collect_is_noop(self, module, store):
        dispatched: list = []
        distributor = Distributor(module, store, dispatch=dispatched.extend, dependents=())
        assert distributor.collect([]) == []
        assert dispatched == []

    def test_kept_feedback_reaches_module(self, module, store):
        distributor = Distributor(module, store, dispatch=lambda batch: None, dependents=())
        store.add((1, 2, 3))
        distributor.collect([(1, 2, 3), (4, 5, 6)])
        assert module.stats()["kept"] == 1

    def test_trace_records_store_event(self, module, store):
        trace = Trace(clock=lambda: 0.0)
        distributor = Distributor(
            module, store, dispatch=lambda batch: None, dependents=(), trace=trace
        )
        distributor.collect([(1, 2, 3)])
        (event,) = trace.events_of("store")
        assert event.payload["kept"] == 1
        assert event.payload["store_size"] == 1


class TestInputManager:
    def test_add_encodes_stores_and_dispatches(self, dictionary, store):
        dispatched: list = []
        manager = InputManager(dictionary, store, dispatch=dispatched.extend)
        new = manager.add([Triple(EX.Cat, RDFS.subClassOf, EX.Animal)])
        assert new == 1
        assert len(store) == 1
        assert len(dispatched) == 1

    def test_store_before_dispatch(self, dictionary, store):
        """The completeness-critical ordering."""
        seen_in_store: list[bool] = []

        def check_dispatch(batch):
            seen_in_store.extend(triple in store for triple in batch)

        manager = InputManager(dictionary, store, dispatch=check_dispatch)
        manager.add([Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, EX.d)])
        assert seen_in_store == [True, True]

    def test_duplicates_not_dispatched(self, dictionary, store):
        dispatched: list = []
        manager = InputManager(dictionary, store, dispatch=dispatched.extend)
        triple = Triple(EX.a, EX.p, EX.b)
        manager.add([triple])
        manager.add([triple])
        assert len(dispatched) == 1
        assert manager.stats() == {"received": 2, "accepted": 1}

    def test_empty_add(self, dictionary, store):
        manager = InputManager(dictionary, store, dispatch=lambda b: None)
        assert manager.add([]) == 0
        assert manager.add_encoded([]) == 0

    def test_trace_records_input(self, dictionary, store):
        trace = Trace(clock=lambda: 0.0)
        manager = InputManager(dictionary, store, dispatch=lambda b: None, trace=trace)
        manager.add([Triple(EX.a, EX.p, EX.b)])
        (event,) = trace.events_of("input")
        assert event.payload == {"received": 1, "new": 1, "store_size": 1}
