"""Differential properties on hierarchy-shaped scripts.

Closed-inheritance rules (rdfs9/cax-sco, rdfs7/prp-spo1, scm-dom2/rng2)
skip their own conclusions and lean on the transitivity rules to keep
``subClassOf``/``subPropertyOf`` closed.  These scripts aim at every way
that could go wrong: random class and property graphs with cycles and
self-loops, a ``(p subPropertyOf subPropertyOf)`` meta-edge,
domain/range declarations, schema edges that arrive before, after and
in the same delta as the instance data, and retractions of schema edges
and of type assertions interleaved with the additions.  Three
properties must hold:

* the incremental engine equals :class:`~repro.baselines.SemiNaiveReasoner`
  at every revision, on all four fragments, with firings inline or pooled;
* ``rule.supports`` ⇔ ``derive_all`` for every rule on such a store
  (the DRed support check);
* a 2-shard :class:`~repro.sharding.ShardedReasoner` equals a single
  node at every revision, on the fragments it supports.

CI replays one pinned Hypothesis run via ``SLIDER_DIFF_SEED``.
"""

import os

import pytest
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

from repro import Delta, Slider
from repro.dictionary import TermDictionary
from repro.rdf import Literal, RDF, RDFS, Triple
from repro.reasoner import Vocabulary
from repro.reasoner.fragments import get_fragment
from repro.reasoner.rules import derive_all
from repro.sharding import ShardedReasoner
from repro.store import HashDictStore

from ..conftest import EX, closure_with_semi_naive, each_execution_mode

FRAGMENTS = ("rhodf", "rdfs", "rdfs-full", "owl-horst")
SHARDED_FRAGMENTS = ("rhodf", "rdfs")

CLASSES = [EX[f"C{i}"] for i in range(4)]
PROPERTIES = [EX[f"p{i}"] for i in range(3)]
NODES = [EX[f"i{i}"] for i in range(3)]

_classes = st.sampled_from(CLASSES)
_properties = st.sampled_from(PROPERTIES)
_nodes = st.sampled_from(NODES)
_schema = st.one_of(
    # subClassOf/subPropertyOf graphs: self-loops and cycles included.
    st.builds(Triple, _classes, st.just(RDFS.subClassOf), _classes),
    st.builds(Triple, _properties, st.just(RDFS.subPropertyOf), _properties),
    st.builds(Triple, _properties, st.sampled_from([RDFS.domain, RDFS.range]), _classes),
    # The meta-edge: a p-edge between properties then derives a
    # subPropertyOf edge.
    st.builds(Triple, _properties, st.just(RDFS.subPropertyOf), st.just(RDFS.subPropertyOf)),
    st.builds(Triple, _properties, _properties, _properties),
)
_instances = st.one_of(
    st.builds(Triple, _nodes, st.just(RDF.type), _classes),
    st.builds(Triple, _nodes, _properties, st.one_of(_nodes, st.just(Literal("v")))),
    # Instance edges between classes and properties tie the levels.
    st.builds(Triple, _nodes, _properties, _classes),
)


@st.composite
def scripts(draw) -> list[Delta]:
    """A delta script over one pool of schema and instance triples.

    Each triple is assigned the delta it arrives in, so schema edges
    land before, after and together with the data they type; each
    delta may also retract live triples: schema edges, type assertions
    and property edges.
    """
    steps = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(st.one_of(_schema, _instances), min_size=1, max_size=16))
    arrivals = draw(st.lists(st.integers(0, steps - 1), min_size=len(pool), max_size=len(pool)))
    live: list[Triple] = []
    script = []
    for step in range(steps):
        retractions = (
            draw(st.lists(st.sampled_from(live), max_size=3, unique=True)) if live else []
        )
        assertions = [t for t, at in zip(pool, arrivals) if at == step]
        delta = Delta(assertions=assertions, retractions=retractions)
        removed = set(delta.retractions)
        live = [t for t in live if t not in removed]
        live.extend(t for t in delta.assertions if t not in live)
        script.append(delta)
    return script


def explicit_after(script, upto: int) -> list[Triple]:
    live: list[Triple] = []
    for delta in script[:upto]:
        removed = set(delta.retractions)
        live = [t for t in live if t not in removed]
        live.extend(t for t in delta.assertions if t not in live)
    return live


_pinned = os.environ.get("SLIDER_DIFF_SEED")
_replay = seed(int(_pinned)) if _pinned else (lambda test: test)
_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@each_execution_mode
@pytest.mark.parametrize("fragment", FRAGMENTS)
@_replay
@given(script=scripts())
@_settings
def test_incremental_equals_semi_naive(execution, fragment, script):
    with Slider(fragment=fragment, timeout=None, **execution) as reasoner:
        for step, delta in enumerate(script, start=1):
            reasoner.apply(delta)
            expected = closure_with_semi_naive(explicit_after(script, step), fragment)
            incremental = set(reasoner.graph)
            assert incremental == expected, (
                f"revision {step}: {len(incremental - expected)} extra, "
                f"{len(expected - incremental)} missing"
            )


@pytest.mark.parametrize("fragment", FRAGMENTS)
@_replay
@given(triples=st.lists(st.one_of(_schema, _instances), min_size=1, max_size=12))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_supports_equals_derive_all(fragment, triples):
    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    store = HashDictStore()
    store.add_all(dictionary.encode_triple(t) for t in triples)
    rules = get_fragment(fragment).rules(vocab)
    heads = {term for rule in rules for term in rule.head if isinstance(term, int)}
    terms = sorted(heads.union(*store))
    for rule in rules:
        expected = set(derive_all(rule, store, vocab))
        outputs = rule.output_predicates
        predicates = sorted(outputs) if outputs is not None else terms
        universe = [(s, p, o) for s in terms for p in predicates for o in terms]
        assert expected <= set(universe), rule.name
        supported = {t for t in universe if rule.supports(store, t, vocab)}
        assert supported == expected, (
            f"{rule.name}: {len(supported - expected)} unsupported claims, "
            f"{len(expected - supported)} missed derivations"
        )


# A user retraction of a schema edge that one shard re-derives (from
# ``(p0 p0 p1)`` through the meta-edge) while the other drops it: the
# survivor must be forwarded back, or the dropping shard loses
# ``(p1 p1 p0)``.
_RETRACTED_SCHEMA_REDERIVED = [
    Delta(assertions=[
        Triple(CLASSES[0], RDFS.subClassOf, CLASSES[0]),
        Triple(PROPERTIES[0], RDFS.subPropertyOf, PROPERTIES[1]),
        Triple(PROPERTIES[0], PROPERTIES[0], PROPERTIES[1]),
        Triple(PROPERTIES[1], PROPERTIES[0], PROPERTIES[0]),
    ]),
    Delta(assertions=[Triple(PROPERTIES[0], RDFS.subPropertyOf, RDFS.subPropertyOf)]),
    Delta(),
    Delta(retractions=[
        Triple(CLASSES[0], RDFS.subClassOf, CLASSES[0]),
        Triple(PROPERTIES[0], RDFS.subPropertyOf, PROPERTIES[1]),
    ]),
]


# The same loss one round later: ``(p0 subPropertyOf p2)`` dies with
# ``(p1 p2 p2)`` on the shard that derived it, and the shard holding a
# forwarded copy re-derives it (through the new meta-edge) when the
# retraction is forwarded to it.
_FORWARDED_RETRACTION_REDERIVED = [
    Delta(assertions=[
        Triple(CLASSES[0], RDFS.subClassOf, CLASSES[0]),
        Triple(PROPERTIES[1], PROPERTIES[2], PROPERTIES[2]),
        Triple(NODES[0], PROPERTIES[0], NODES[0]),
        Triple(PROPERTIES[2], RDFS.subPropertyOf, RDFS.subPropertyOf),
        Triple(PROPERTIES[0], RDFS.subPropertyOf, PROPERTIES[1]),
        Triple(PROPERTIES[0], PROPERTIES[0], PROPERTIES[2]),
    ]),
    Delta(
        assertions=[Triple(PROPERTIES[0], RDFS.subPropertyOf, RDFS.subPropertyOf)],
        retractions=[Triple(PROPERTIES[1], PROPERTIES[2], PROPERTIES[2])],
    ),
]


@pytest.mark.parametrize("fragment", SHARDED_FRAGMENTS)
@_replay
@given(script=scripts())
@example(script=_RETRACTED_SCHEMA_REDERIVED)
@example(script=_FORWARDED_RETRACTION_REDERIVED)
@_settings
def test_two_shards_equal_single_node(fragment, script):
    with Slider(fragment=fragment, workers=0, timeout=None) as single, \
            ShardedReasoner(fragment=fragment, shards=2) as cluster:
        for step, delta in enumerate(script, start=1):
            single_report = single.apply(delta)
            cluster_report = cluster.apply(delta)
            assert set(cluster.graph) == set(single.graph), f"revision {step}"
            assert frozenset(cluster_report.inferred_added) == frozenset(
                single_report.inferred_added
            ), f"revision {step}"
            assert frozenset(cluster_report.removed) == frozenset(single_report.removed)
