"""The head-bound support check behind DRed re-derivation.

Three things are pinned here, none of them by the clock:

* **the oracle that justifies the rewrite** — for every rule of every
  fragment, on seeded random stores, ``rule.supports(store, t, vocab)``
  ⇔ ``t in derive_all(rule, store, vocab)`` (the whole-store evaluation
  phase 3 used to run);
* **the duck-typed fallback** — a rule exposing only ``apply`` has no
  head to unify with and is still re-derived correctly;
* **scale independence, by counting** — retracting the same triple from
  a closure with N and with 8N unrelated instances runs the same number
  of support checks and the same number of store lookups.
"""

import os
import random

import pytest

from repro import Delta, Slider
from repro.dictionary import TermDictionary
from repro.rdf import OWL, RDF, RDFS, Literal, Triple
from repro.reasoner import Vocabulary, dred_retract
from repro.reasoner.fragments import Fragment, available_fragments, get_fragment
from repro.reasoner.rules import (
    JoinRule,
    OutputBuffer,
    Pattern,
    Rule,
    SingleRule,
    Var,
    derive_all,
)
from repro.store import HashDictStore

from ..conftest import EX, each_execution_mode

_extra_seed = os.environ.get("SLIDER_DIFF_SEED")
SEEDS = (7, 8, 9, 10) + ((int(_extra_seed),) if _extra_seed else ())

NODES = [EX[f"n{i}"] for i in range(4)]
PROPERTIES = [EX.knows, EX.near]
PREDICATES = PROPERTIES + [
    RDF.type, RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range,
    OWL.sameAs, OWL.inverseOf, OWL.equivalentClass, OWL.equivalentProperty,
]
MARKERS = [
    OWL.TransitiveProperty, OWL.SymmetricProperty, RDFS.Resource, RDFS.Class,
    RDF.Property, RDFS.Datatype, RDFS.ContainerMembershipProperty, RDFS.Literal,
]
SUBJECTS = NODES + PROPERTIES
OBJECTS = SUBJECTS + MARKERS + [Literal("v")]
#: Every term a store below can mention, in any position of a candidate.
TERMS = list(dict.fromkeys(PREDICATES + OBJECTS + [RDFS.member]))


def random_store(seed: int):
    """A seeded random store (not a closure: every rule has work left)."""
    rng = random.Random(seed)
    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    store = HashDictStore()
    triples = []
    for _ in range(60):
        predicate = rng.choice(PREDICATES)
        subject = rng.choice(SUBJECTS)
        if predicate == RDF.type and rng.random() < 0.5:
            obj = rng.choice(MARKERS)
        else:
            obj = rng.choice(OBJECTS)
        triples.append(Triple(subject, predicate, obj))
    store.add_all(dictionary.encode_triple(t) for t in triples)
    return dictionary, vocab, store


def candidate_universe(dictionary):
    """Every triple over the stores' terms — including literal subjects
    and predicates, which the well-formedness guard must reject."""
    ids = [dictionary.encode(term) for term in TERMS]
    return [(s, p, o) for s in ids for p in ids for o in ids]


class TestSupportsEqualsFullEvaluation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fragment", available_fragments())
    def test_every_rule(self, fragment, seed):
        dictionary, vocab, store = random_store(seed)
        universe = candidate_universe(dictionary)
        derived_anything = False
        for rule in get_fragment(fragment).rules(vocab):
            expected = set(derive_all(rule, store, vocab))
            derived_anything |= bool(expected)
            assert expected <= set(universe), f"{rule.name}: universe too small"
            supported = {t for t in universe if rule.supports(store, t, vocab)}
            assert supported == expected, (
                f"{rule.name} (fragment={fragment}, seed={seed}): "
                f"{len(supported - expected)} unsupported claims, "
                f"{len(expected - supported)} missed derivations"
            )
        assert derived_anything  # the stores are not vacuous


class NestedLoopRule(Rule):
    """A rule of any body length, evaluated by the binding-dict reference:
    the first body pattern over the given triples, each further one over
    the whole store, in body order."""

    def apply(self, store, new_triples, vocab):
        stored = list(store)
        first, *rest = self.body
        bindings = [first.matches(t, {}) for t in new_triples]
        bindings = [b for b in bindings if b is not None]
        for pattern in rest:
            extended = [pattern.matches(t, b) for b in bindings for t in stored]
            bindings = [b for b in extended if b is not None]
        out = OutputBuffer()
        for binding in bindings:
            self._emit(binding, vocab, out)
        return out.take()


def custom_rules(vocab, ground) -> list[Rule]:
    """Body shapes no built-in fragment declares.  ``ground`` is a stored
    triple, so the ground join side has a witness."""
    encode = vocab.dictionary.encode
    knows, near = encode(EX.knows), encode(EX.near)
    x, y, z, p, q, c = (Var(name) for name in "xyzpqc")
    return [
        # A repeated variable in a one-pattern body and in a join side.
        SingleRule("loop", Pattern(x, p, x), head=Pattern(x, near, x)),
        JoinRule(
            "typed-loop",
            Pattern(x, p, x),
            Pattern(x, vocab.type, c),
            head=Pattern(c, p, x),
        ),
        # A repeated variable no earlier pattern binds: ``z`` in the
        # last step of the witness search.
        NestedLoopRule(
            "looped-property",
            head=Pattern(x, near, y),
            body=(Pattern(x, p, y), Pattern(z, p, z)),
        ),
        # One fully ground side: the cartesian (_ground_join) body.
        JoinRule("ground", Pattern(*ground), Pattern(x, knows, y), head=Pattern(y, near, x)),
        # Three patterns, two of them with a variable predicate.
        NestedLoopRule(
            "sub-chain",
            head=Pattern(x, q, z),
            body=(
                Pattern(p, vocab.sub_property_of, q),
                Pattern(x, p, y),
                Pattern(y, q, z),
            ),
        ),
    ]


class TestSupportsOnCustomShapes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_custom_rule(self, seed):
        dictionary, vocab, store = random_store(seed)
        universe = candidate_universe(dictionary)
        is_literal = dictionary.is_literal
        ground = next(t for t in store if not is_literal(t[0]) and not is_literal(t[1]))
        derived = set()
        for rule in custom_rules(vocab, ground):
            expected = set(derive_all(rule, store, vocab))
            derived |= expected
            assert expected <= set(universe), f"{rule.name}: universe too small"
            supported = {t for t in universe if rule.supports(store, t, vocab)}
            assert supported == expected, (
                f"{rule.name} (seed={seed}): "
                f"{len(supported - expected)} unsupported claims, "
                f"{len(expected - supported)} missed derivations"
            )
        assert derived  # the stores are not vacuous


class _Implies:
    """Duck-typed rule exposing only ``apply``: likes ∨ loves → knows."""

    name = "implies-knows"

    def __init__(self, vocab):
        encode = vocab.dictionary.encode
        self.input_predicates = frozenset({encode(EX.likes), encode(EX.loves)})
        self.output_predicates = frozenset({encode(EX.knows)})
        self._knows = encode(EX.knows)
        self.full_evaluations = 0

    def accepts(self, predicate):
        return predicate in self.input_predicates

    def apply(self, store, new_triples, vocab):
        if len(new_triples) == len(store):
            self.full_evaluations += 1
        return [
            (s, self._knows, o) for s, p, o in new_triples if p in self.input_predicates
        ]


class TestDuckTypedFallback:
    def test_rule_without_head_is_evaluated_in_full(self):
        built = []

        def build(vocab):
            built.append(_Implies(vocab))
            return [built[-1]]

        with Slider(fragment=Fragment("duck", build), workers=0, timeout=None) as r:
            r.apply(Delta([
                Triple(EX.a, EX.likes, EX.b),
                Triple(EX.a, EX.loves, EX.b),
                Triple(EX.c, EX.likes, EX.d),
            ]))
            rule = built[0]
            assert not hasattr(rule, "supports")
            rule.full_evaluations = 0
            report = r.apply(Delta(retractions=[Triple(EX.a, EX.likes, EX.b)]))
            # Over-deleted, then put back: loves still implies it.
            assert Triple(EX.a, EX.knows, EX.b) in r.graph
            assert report.dred_rederived == 1
            assert rule.full_evaluations == 1  # once per retraction, not per probe
            r.apply(Delta(retractions=[Triple(EX.a, EX.loves, EX.b)]))
            assert Triple(EX.a, EX.knows, EX.b) not in r.graph
            assert Triple(EX.c, EX.knows, EX.d) in r.graph


class CountingStore:
    """Store proxy counting every read the reasoner makes."""

    def __init__(self, store):
        self._store = store
        self.lookups = 0

    def __getattr__(self, name):
        attribute = getattr(self._store, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            self.lookups += 1
            return attribute(*args, **kwargs)

        return counted

    def __contains__(self, triple):
        self.lookups += 1
        return triple in self._store

    def __len__(self):
        return len(self._store)

    def __iter__(self):
        self.lookups += 1
        return iter(self._store)


def zoo(unrelated: int) -> list[Triple]:
    triples = [
        Triple(EX.Cat, RDFS.subClassOf, EX.Feline),
        Triple(EX.Feline, RDFS.subClassOf, EX.Animal),
        Triple(EX.hasPet, RDFS.range, EX.Animal),
        Triple(EX.tom, RDF.type, EX.Cat),
        Triple(EX.tom, RDF.type, EX.Pet),
        Triple(EX.alice, EX.hasPet, EX.tom),
    ]
    for index in range(unrelated):
        triples.append(Triple(EX[f"rock{index}"], RDF.type, EX.Mineral))
        triples.append(Triple(EX[f"rock{index}"], EX.near, EX[f"rock{(index + 1) % unrelated}"]))
    return triples


class TestScaleIndependence:
    """A retraction costs what it deletes, whatever else is stored."""

    RETRACTED = Triple(EX.tom, RDF.type, EX.Cat)

    @each_execution_mode
    @pytest.mark.parametrize("fragment", ("rhodf", "rdfs", "owl-horst"))
    def test_probes_do_not_grow_with_the_store(self, execution, fragment):
        reports = []
        for unrelated in (50, 400):
            with Slider(fragment=fragment, timeout=None, **execution) as r:
                r.apply(Delta(zoo(unrelated)))
                reports.append(r.apply(Delta(retractions=[self.RETRACTED])))
        small, large = reports
        assert small.dred_probes == large.dred_probes > 0
        assert small.dred_deleted == large.dred_deleted
        assert small.dred_rederived == large.dred_rederived

    def test_store_lookups_do_not_grow_with_the_store(self):
        lookups = []
        for unrelated in (50, 400):
            with Slider(fragment="rdfs", workers=0, timeout=None) as r:
                r.apply(Delta(zoo(unrelated)))
                counting = CountingStore(r.store)
                _deleted, _rederived, probes = dred_retract(
                    counting,
                    r.rules,
                    r.vocab,
                    set(r.input_manager.explicit),
                    [r.dictionary.encode_triple(self.RETRACTED)],
                )
                assert probes > 0
                lookups.append(counting.lookups)
        assert lookups[0] == lookups[1]

    def test_assert_only_commits_probe_nothing(self):
        with Slider(fragment="rdfs", workers=0, timeout=None) as r:
            assert r.apply(Delta(zoo(5))).dred_probes == 0
            assert r.apply(Delta(retractions=[Triple(EX.no, EX.such, EX.triple)])).dred_probes == 0


class TestProbesAreReported:
    """``dred_probes`` travels wherever ``dred_deleted`` does."""

    def test_apply_many_replica_and_metric(self):
        from repro.obs import instruments as _obs

        before = _obs.ENGINE_DRED_PROBES.value()
        retraction = Delta(retractions=[TestScaleIndependence.RETRACTED])
        with Slider(fragment="rdfs", workers=0, timeout=None) as leader, \
                Slider(fragment="rdfs", workers=0, timeout=None) as replica:
            leader.apply(Delta(zoo(5)))
            replica.apply_at(leader.revision, Delta(zoo(5)))
            batched = leader.apply_many([Delta([Triple(EX.rex, RDF.type, EX.Dog)]), retraction])
            replayed = replica.apply_at(batched.revision, retraction)
        assert batched.dred_probes == replayed.dred_probes > 0
        assert batched.as_dict()["dred_probes"] == batched.dred_probes
        moved = _obs.ENGINE_DRED_PROBES.value() - before
        assert moved == batched.dred_probes + replayed.dred_probes

    def test_sharded_fold_sums_the_shards(self):
        from repro.sharding import ShardedReasoner

        with ShardedReasoner(fragment="rdfs", shards=2) as cluster:
            cluster.apply(Delta(zoo(5)))
            report = cluster.apply(Delta(retractions=[TestScaleIndependence.RETRACTED]))
            assert report.dred_deleted > 0
            assert report.dred_probes > 0
