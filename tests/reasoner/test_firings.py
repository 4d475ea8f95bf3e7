"""Compiled rule firings: the same emissions as a nested-loop reference.

Every rule compiles once into firing programs on the planner's join
core, one per body position.  The acceptance line is set identity with
the binding-dict interpreter: for every rule of every fragment, custom
two- and three-pattern body shapes included, ``rule.apply(store, batch)``
equals the union over body positions of a nested loop that matches that
position's pattern over the batch and the other patterns over the whole
store.  Both join paths run — the grouped hash join and the per-row
probes — forced by the cardinality constant.  A Hypothesis property
compares one-pattern bodies with a ``Pattern.matches`` reference in
order, and a counting test shows a commit's firings make no interpreter
call at all.
"""

import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dictionary import TermDictionary
from repro import Delta
from repro.datasets.bsbm import generate_bsbm
from repro.datasets.subclass_chains import subclass_chain
from repro.rdf import IRI, Literal
from repro.reasoner import Slider
from repro.reasoner.fragments import available_fragments, get_fragment
from repro.reasoner.rules import (
    JoinRule,
    OutputBuffer,
    Pattern,
    Rule,
    SingleRule,
    Var,
    derive_all,
)
from repro.reasoner.vocabulary import Vocabulary
from repro.store import HashDictStore
from repro.store.planner import executor

FRAGMENTS = ("rhodf", "rdfs", "owl-horst")

_extra_seed = os.environ.get("SLIDER_DIFF_SEED")
SEEDS = tuple(range(4)) + ((int(_extra_seed),) if _extra_seed else ())

#: Extra ground terms beyond the fragment vocabulary, so random triples
#: mix schema ids with plain instance ids.
EXTRA_TERMS = 48
EXTRA_LITERALS = 8


def fragment_rules(fragment: str):
    """(rules, vocab, dictionary) with every term pre-registered.

    Besides the fragment vocabulary the universe holds plain IRIs and
    literals, so random triples put literals in every slot and the
    well-formedness guards are exercised.
    """
    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    terms = [
        dictionary.encode(IRI(f"http://kernel.example/n{i}"))
        for i in range(EXTRA_TERMS)
    ]
    literals = [dictionary.encode(Literal(f"v{i}")) for i in range(EXTRA_LITERALS)]
    if fragment == "custom":
        return custom_rules(vocab, terms, literals), vocab, dictionary
    return get_fragment(fragment).rules(vocab), vocab, dictionary


def custom_rules(vocab, terms, literals) -> list[Rule]:
    """Body shapes no built-in fragment declares: a repeated unbound
    stored-side variable under a variable predicate, a ground stored
    object, two probe slots, a repeated new-side variable, constant
    literal heads, head constants a body pattern also has, and
    three-pattern bodies."""
    P, Q, R, C = terms[:4]
    L = literals[0]
    w, x, y, z, p, q = (Var(n) for n in "wxyzpq")
    return [
        JoinRule("loop", Pattern(x, P, q), Pattern(z, q, z), Pattern(x, q, z)),
        JoinRule("ground", Pattern(x, P, y), Pattern(y, Q, C), Pattern(x, Q, y)),
        JoinRule("both", Pattern(x, P, y), Pattern(y, Q, x), Pattern(x, R, y)),
        JoinRule("repeat", Pattern(x, P, x), Pattern(x, Q, y), Pattern(y, P, x)),
        JoinRule("lit-s", Pattern(x, P, y), Pattern(y, Q, z), Pattern(L, P, z)),
        JoinRule("lit-p", Pattern(x, P, y), Pattern(y, Q, z), Pattern(x, L, z)),
        JoinRule("var-po", Pattern(p, P, y), Pattern(x, p, y), Pattern(x, R, p)),
        JoinRule("const-o", Pattern(x, P, C), Pattern(x, Q, y), Pattern(y, Q, C)),
        Rule(
            "chain3",
            head=Pattern(x, R, z),
            body=(Pattern(x, P, y), Pattern(y, Q, w), Pattern(w, P, z)),
        ),
        Rule(
            "sub-chain",
            head=Pattern(x, q, z),
            body=(
                Pattern(p, vocab.sub_property_of, q),
                Pattern(x, p, y),
                Pattern(y, q, z),
            ),
        ),
    ]


def random_encoded(rng: random.Random, universe: int, count: int):
    return {
        (
            rng.randrange(universe),
            rng.randrange(universe),
            rng.randrange(universe),
        )
        for _ in range(count)
    }


def body_instance(rule: Rule, rng: random.Random, universe: int) -> list:
    """The body's triples under one random binding of its variables."""
    binding = {name: rng.randrange(universe) for p in rule.body for name in p.variables()}
    return [pattern.instantiate(binding) for pattern in rule.body]


def nested_loop(rule: Rule, store, batch, vocab) -> set:
    """The reference firing: for each body position, that pattern over
    the batch and every other pattern over the whole store, in body
    order, by binding dicts."""
    stored = list(store)
    out = OutputBuffer()
    for index, first in enumerate(rule.body):
        rest = rule.body[:index] + rule.body[index + 1:]
        bindings = [first.matches(t, {}) for t in batch]
        bindings = [b for b in bindings if b is not None]
        for pattern in rest:
            extended = [pattern.matches(t, b) for b in bindings for t in stored]
            bindings = [b for b in extended if b is not None]
        for binding in bindings:
            rule._emit(binding, vocab, out)
    return set(out.take())


class CountingStore(HashDictStore):
    """Counts the partition-size reads that choose a hash join."""

    sized = 0

    def count_predicate(self, predicate):
        self.sized += 1
        return super().count_predicate(predicate)


def joining_store(rules, rng: random.Random, universe: int):
    """A random store and batch, plus for every rule and body position
    one body instance with that position's triple in the batch and the
    others stored, so every firing program has work."""
    stored = random_encoded(rng, universe, 120)
    batch = sorted(random_encoded(rng, universe, 40))
    for rule in rules:
        for index in range(len(rule.body)):
            for _ in range(3):
                triples = body_instance(rule, rng, universe)
                batch.append(triples.pop(index))
                stored.update(triples)
    store = CountingStore()
    store.add_all(sorted(stored))
    return store, batch


class TestFiringMatchesNestedLoop:
    """Fuzz: ``rule.apply`` == the nested-loop reference, rule by rule."""

    @pytest.mark.parametrize("path", ["hash", "probe"])
    @pytest.mark.parametrize("fragment", available_fragments() + ["custom"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_join_path(self, monkeypatch, path, fragment, seed):
        # "hash" lets every batch reach the grouped hash join; "probe"
        # forces per-row probes.  The choice must never be load-bearing
        # for correctness.
        monkeypatch.setattr(
            executor, "KERNEL_MIN_BATCH", 0 if path == "hash" else 10**9
        )
        rules, vocab, dictionary = fragment_rules(fragment)
        rng = random.Random(seed)
        store, batch = joining_store(rules, rng, len(dictionary))
        fired = 0
        for rule in rules:
            derived = rule.apply(store, batch, vocab)
            expected = nested_loop(rule, store, batch, vocab)
            assert len(derived) == len(set(derived))
            assert set(derived) == expected, (
                f"firing diverged: fragment={fragment} seed={seed} "
                f"path={path} rule={rule!r}"
            )
            fired += bool(expected)
        assert fired > len(rules) // 2
        # The partition size is read only to choose the hash join.
        assert (store.sized > 0) == (path == "hash")

    def test_a_seven_triple_batch_is_handled(self):
        rules, vocab, dictionary = fragment_rules("rhodf")
        rule = next(r for r in rules if r.name == "cax-sco")
        rng = random.Random(7)
        store = HashDictStore()
        batch = []
        for _ in range(executor.KERNEL_MIN_BATCH - 1):
            schema, typed = body_instance(rule, rng, len(dictionary))
            store.add(typed)
            batch.append(schema)
        expected = nested_loop(rule, store, batch, vocab)
        assert expected
        assert set(rule.apply(store, batch, vocab)) == expected


#: A small id universe for SingleRule fuzzing: ids below LITERALS are
#: literals, the rest IRIs.
SINGLE_UNIVERSE = 6
SINGLE_LITERALS = 2


class _LiteralIds:
    @staticmethod
    def is_literal(term_id) -> bool:
        return term_id < SINGLE_LITERALS


class _Vocab:
    dictionary = _LiteralIds


SLOT = st.one_of(
    st.sampled_from([Var("a"), Var("b"), Var("c")]),
    st.integers(min_value=0, max_value=SINGLE_UNIVERSE - 1),
)


@st.composite
def single_rules(draw):
    body = Pattern(draw(SLOT), draw(SLOT), draw(SLOT))
    names = sorted(body.variables())
    head_slot = st.integers(min_value=0, max_value=SINGLE_UNIVERSE - 1)
    if names:
        head_slot = st.one_of(st.sampled_from([Var(n) for n in names]), head_slot)
    return SingleRule("fuzz", body, Pattern(draw(head_slot), draw(head_slot), draw(head_slot)))


def reference_single(rule: SingleRule, triples, is_literal) -> list:
    """The binding-dict interpreter for a one-pattern body."""
    (pattern,) = rule.body
    out = OutputBuffer()
    for triple in triples:
        binding = pattern.matches(triple, {})
        if binding is None:
            continue
        head = rule.head.instantiate(binding)
        if head in out or is_literal(head[0]) or is_literal(head[1]):
            continue
        out.emit(head)
    return out.take()


class TestSingleRuleMatchesInterpreter:
    ID = st.integers(min_value=0, max_value=SINGLE_UNIVERSE - 1)

    @given(
        rule=single_rules(),
        triples=st.lists(st.tuples(ID, ID, ID), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_pattern_matches(self, rule, triples):
        out = OutputBuffer()
        rule.apply_into(None, triples, _Vocab, out)
        assert out.take() == reference_single(rule, triples, _LiteralIds.is_literal)

    def test_repeated_variable_and_literal_slots(self):
        a = Var("a")
        rule = SingleRule("refl", Pattern(a, 5, a), Pattern(a, 4, 0))
        triples = [(2, 5, 2), (3, 5, 2), (0, 5, 0), (3, 5, 3), (2, 5, 2)]
        out = OutputBuffer()
        rule.apply_into(None, triples, _Vocab, out)
        # (0 5 0) binds a literal subject: the guard drops its head.
        assert out.take() == [(2, 4, 0), (3, 4, 0)]


class TestFiringsRunCompiled:
    """A commit's firings make no binding-dict interpreter call."""

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_no_pattern_calls_from_firings(self, monkeypatch, fragment):
        calls = {"matches": 0, "instantiate": 0}
        for name in calls:
            original = getattr(Pattern, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Pattern, name, counted)
        chunk = generate_bsbm(500, seed=3)[:500]
        with Slider(fragment=fragment, workers=2, timeout=None) as reasoner:
            bsbm = reasoner.apply(Delta(assertions=chunk))
            chain = reasoner.apply(Delta(assertions=subclass_chain(20)))
            assert bsbm.inferred_added_count > 0
            assert chain.inferred_added_count > 0
            assert calls == {"matches": 0, "instantiate": 0}
            # The wrap is live: whole-store evaluation still interprets.
            for rule in reasoner.rules:
                derive_all(rule, reasoner.store, reasoner.vocab)
        assert calls["matches"] > 0
