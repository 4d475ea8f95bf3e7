"""Differential query oracle: the planner against ground truth.

For hundreds of seeded random BGPs, :func:`repro.store.solve`
(cost-based planner — statistics-driven join order, permutation-index
access paths, encoded-space execution) must agree with
:func:`repro.store.solve_naive` (written-order, term-level nested loops,
deliberately sharing no code with the planner) as *multisets* of
bindings.  The sweep covers the mutable hash-dict store and the columnar
read store, over ρdf and RDFS closures of random ontologies.

Queries are generated from *witness triples* sampled from the closure:
each distinct term is consistently mapped to a shared variable or kept
as a constant across the whole BGP, so patterns join naturally and most
queries have solutions.  An explicit naive-cost guard rejects the rare
generated query whose written-order evaluation would blow up, keeping
the reference side tractable without biasing the planner side.

CI pins an extra seed via ``SLIDER_DIFF_SEED`` (shared with the engine
differential harness) so every push replays a known query workload.
"""

import os
import random
from collections import Counter

import pytest

from repro import Delta, Slider
from repro.dictionary.encoder import TermDictionary
from repro.persist.columnar import encode_columnar_snapshot, parse_columnar_snapshot
from repro.rdf import Variable
from repro.store import Graph, solve, solve_naive
from repro.store.backends.columnar import ColumnarReadStore

from ..conftest import EX, each_execution_mode, random_ontology

FRAGMENTS = ("rhodf", "rdfs")

_extra_seed = os.environ.get("SLIDER_DIFF_SEED")
SEEDS = (31415, 27182) + ((int(_extra_seed),) if _extra_seed else ())

#: Queries per (fragment, seed) case: 2 fragments x >=2 seeds x 150
#: >= 600 random queries per run.
QUERIES_PER_CASE = 150

#: The variable pool a generated BGP draws from (shared across patterns).
VARS = tuple(Variable(f"v{i}") for i in range(6))

#: Ceiling on the written-order reference evaluation's intermediate
#: solution count; queries estimated above it are regenerated.
_NAIVE_BUDGET = 120_000


def random_bgp(rng: random.Random, triples) -> list[tuple]:
    """1-8 patterns derived from witness triples sampled from the graph.

    Every distinct term is mapped once — to a fresh shared variable or
    to itself — and that mapping is reused across all patterns, so the
    BGP behaves like a subgraph query with natural joins.  Predicates
    stay constant more often than ends (vertical partitioning is the
    planner's bread and butter), and the odd "poison" constant yields
    zero-match patterns.
    """
    witnesses = [rng.choice(triples) for _ in range(rng.randint(1, 8))]
    mapping: dict = {}
    next_var = 0

    def mapped(term, var_probability: float):
        nonlocal next_var
        if term not in mapping:
            if next_var < len(VARS) and rng.random() < var_probability:
                mapping[term] = VARS[next_var]
                next_var += 1
            else:
                mapping[term] = term
        return mapping[term]

    patterns = []
    for witness in witnesses:
        pattern = (
            mapped(witness.subject, 0.7),
            mapped(witness.predicate, 0.2),
            mapped(witness.object, 0.6),
        )
        if rng.random() < 0.05:  # poison constant: likely matches nothing
            pattern = (pattern[0], pattern[1], EX[f"poison{rng.randint(0, 2)}"])
        patterns.append(pattern)
    return patterns


def naive_cost(graph: Graph, patterns) -> float:
    """Upper bound on written-order intermediate solutions.

    Product of standalone match counts over the patterns that introduce
    new variables (a pattern whose variables are all seen can only
    filter, never multiply).
    """
    bound = 1.0
    seen: set = set()
    for pattern in patterns:
        variables = {term for term in pattern if isinstance(term, Variable)}
        if variables - seen:
            bound *= max(1, len(solve_naive(graph, [pattern])))
            seen |= variables
        if bound > _NAIVE_BUDGET:
            break
    return bound


def bounded_random_bgp(rng: random.Random, graph: Graph, triples) -> list[tuple]:
    for _ in range(8):
        patterns = random_bgp(rng, triples)
        if naive_cost(graph, patterns) <= _NAIVE_BUDGET:
            return patterns
    # Pathological draw streak: fall back to one selective pattern.
    witness = rng.choice(triples)
    return [(VARS[0], witness.predicate, witness.object)]


def as_multiset(solutions) -> Counter:
    return Counter(frozenset(binding.items()) for binding in solutions)


def _sweep(graph: Graph, closure, rng: random.Random, context: str) -> None:
    for query_index in range(QUERIES_PER_CASE):
        patterns = bounded_random_bgp(rng, graph, closure)
        expected = as_multiset(solve_naive(graph, patterns))
        got = as_multiset(solve(graph, patterns))
        assert got == expected, (
            f"planner != naive ({context}, query={query_index}): "
            f"patterns={patterns}, "
            f"extra={len(got - expected)}, missing={len(expected - got)}"
        )


class TestPlannerMatchesNaive:
    """solve == solve_naive on the mutable store, as multisets."""

    @each_execution_mode
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_random_bgps(self, execution, fragment, seed):
        with Slider(fragment=fragment, timeout=None, **execution) as r:
            r.apply(Delta(assertions=random_ontology(seed)))
            closure = list(r.graph)
            assert closure, "closure must be non-empty for the oracle to bite"
            rng = random.Random(f"{seed}:{fragment}:hashdict")
            _sweep(r.graph, closure, rng, f"fragment={fragment}, seed={seed}")


def columnar_graph(closure) -> Graph:
    """A term-level Graph over a ColumnarReadStore holding ``closure``."""
    dictionary = TermDictionary()
    encoded = sorted(dictionary.encode_triple(triple) for triple in closure)
    blob = encode_columnar_snapshot(
        revision=1,
        fragment="rhodf",
        store_spec="hashdict",
        axiom_count=0,
        terms=dictionary.snapshot_terms(),
        explicit=encoded,
        inferred=[],
    )
    return Graph(
        dictionary=dictionary,
        store=ColumnarReadStore(parse_columnar_snapshot(blob)),
    )


class TestPlannerMatchesNaiveColumnar:
    """The same oracle over the zero-copy columnar read store."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_random_bgps(self, fragment, seed):
        with Slider(fragment=fragment, workers=0, timeout=None) as r:
            r.apply(Delta(assertions=random_ontology(seed)))
            closure = list(r.graph)
        graph = columnar_graph(closure)
        try:
            rng = random.Random(f"{seed}:{fragment}:columnar")
            _sweep(graph, closure, rng, f"fragment={fragment}, store=columnar, seed={seed}")
        finally:
            graph.store.close()


class TestSeededSolveMatchesNaive:
    """solve == solve_naive under initial-binding seeds (the subscription
    layer's evaluation mode), including carry variables no pattern binds
    and heterogeneous seed shapes."""

    @each_execution_mode
    def test_seeded_bindings(self, execution):
        carry = Variable("carry")
        with Slider(fragment="rdfs", timeout=None, **execution) as r:
            r.apply(Delta(assertions=random_ontology(4242)))
            graph = r.graph
            closure = list(graph)
            rng = random.Random("seeded:hashdict")
            for query_index in range(60):
                patterns = bounded_random_bgp(rng, graph, closure)
                variables = sorted(
                    {t for p in patterns for t in p if isinstance(t, Variable)},
                    key=lambda v: v.name,
                )
                seeds = []
                for _ in range(rng.randint(1, 3)):
                    seed_binding = {}
                    for variable in variables:
                        if rng.random() < 0.4:
                            witness = rng.choice(closure)
                            seed_binding[variable] = rng.choice(
                                [witness.subject, witness.object]
                            )
                    if rng.random() < 0.2:  # carried through, never joined
                        seed_binding[carry] = EX[f"carried{query_index}"]
                    seeds.append(seed_binding)
                expected = as_multiset(solve_naive(graph, patterns, seeds))
                got = as_multiset(solve(graph, patterns, seeds))
                assert got == expected, (
                    f"seeded planner != naive ("
                    f"query={query_index}): patterns={patterns}, seeds={seeds}"
                )
