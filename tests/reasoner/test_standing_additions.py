"""Standing queries as headless rules: delta additions ≡ a nested loop.

:meth:`IncrementalBGPPlan.additions` runs a standing BGP on the rules'
compiled conjunction.  For every rule body of every fragment (vocabulary
ids decoded to terms, ``Var`` to ``Variable``) and the custom two- and
three-pattern bodies of ``test_firings``, its answer over a batch must
equal, as a multiset, every body instantiation in the store that uses a
batch triple — counted once per body position whose triple is in the
batch, because each position seeds its own rows.  Both join paths run.
A body whose constant is first seen in a later batch answers nothing
until that batch, then matches.
"""

import random
from collections import Counter

import pytest

from repro.rdf import IRI, Triple, Variable
from repro.reasoner.fragments import available_fragments
from repro.reasoner.rules import Var
from repro.store import Graph, HashDictStore
from repro.store.planner import IncrementalBGPPlan, executor

from .test_firings import SEEDS, body_instance, fragment_rules, random_encoded

EX = "http://standing.example/"


def as_query(pattern, dictionary) -> tuple:
    """A rule pattern as a term-level query pattern."""
    return tuple(
        Variable(term.name) if isinstance(term, Var) else dictionary.decode(term)
        for term in pattern
    )


def nested_loop(body, store, batch, dictionary) -> Counter:
    """Every instantiation of ``body`` in ``store``, by binding dicts in
    body order, once per position whose triple is in ``batch``."""
    bindings: list[dict] = [{}]
    for pattern in body:
        bindings = [
            merged
            for binding in bindings
            for triple in store.match(*pattern.lookup_key(binding))
            if (merged := pattern.matches(triple, binding)) is not None
        ]
    batch = set(batch)
    answers: Counter = Counter()
    for binding in bindings:
        uses = sum(pattern.instantiate(binding) in batch for pattern in body)
        if uses:
            key = frozenset(
                (Variable(name), dictionary.decode(value)) for name, value in binding.items()
            )
            answers[key] += uses
    return answers


def standing_store(rules, rng: random.Random, universe: int):
    """A random store holding a batch, plus for every rule and body
    position body instances with that position's triple in the batch."""
    stored = random_encoded(rng, universe, 120)
    batch = random_encoded(rng, universe, 40)
    for rule in rules:
        for index in range(len(rule.body)):
            for _ in range(3):
                triples = body_instance(rule, rng, universe)
                batch.add(triples.pop(index))
                stored.update(triples)
    store = HashDictStore()
    store.add_all(sorted(stored | batch))
    return store, sorted(batch)


@pytest.mark.parametrize("path", ["hash", "probe"])
@pytest.mark.parametrize("fragment", available_fragments() + ["custom"])
@pytest.mark.parametrize("seed", SEEDS)
def test_additions_equal_nested_loop(monkeypatch, path, fragment, seed):
    monkeypatch.setattr(executor, "KERNEL_MIN_BATCH", 0 if path == "hash" else 10**9)
    rules, _vocab, dictionary = fragment_rules(fragment)
    store, batch = standing_store(rules, random.Random(seed), len(dictionary))
    graph = Graph(dictionary, store)
    answered = 0
    for rule in rules:
        plan = IncrementalBGPPlan([as_query(p, dictionary) for p in rule.body])
        plan.compile(graph)
        answers = Counter(frozenset(b.items()) for b in plan.additions(graph, batch))
        expected = nested_loop(rule.body, store, batch, dictionary)
        assert answers == expected, f"additions diverged: {fragment} seed={seed} {rule!r}"
        answered += bool(expected)
    assert answered > len(rules) // 2


def test_a_constant_seen_later_matches_from_its_batch():
    x, y = Variable("x"), Variable("y")
    knows, late = IRI(EX + "knows"), IRI(EX + "late")
    a, b = IRI(EX + "a"), IRI(EX + "b")
    graph = Graph()
    plan = IncrementalBGPPlan([(x, knows, y), (y, late, x)])

    def commit(*triples):
        encoded = [graph.dictionary.encode_triple(t) for t in triples]
        graph.store.add_all(encoded)
        return plan.additions(graph, encoded)

    plan.compile(graph)  # nothing is interned yet
    assert commit(Triple(a, knows, b)) == []
    assert commit(Triple(b, knows, a)) == []
    assert graph.dictionary.lookup(late) is None
    added = commit(Triple(b, late, a), Triple(a, late, b))
    assert Counter(frozenset(s.items()) for s in added) == Counter({
        frozenset({(x, a), (y, b)}): 1,
        frozenset({(x, b), (y, a)}): 1,
    })
