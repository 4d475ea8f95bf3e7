"""Basic graph pattern (BGP) query evaluation over a :class:`Graph`.

The demo lets users "retrieve the original ontology" and inspect inferred
data; this module provides the query layer for that: conjunctive triple
patterns with :class:`~repro.rdf.terms.Variable` terms.

:func:`solve` delegates to the cost-based planner
(:mod:`repro.store.planner`): statistics-driven join ordering, each step
bound to the cheapest index permutation, executed in encoded integer
space.  :func:`solve_naive` keeps the original written-order term-level
nested-loop evaluation — it is the ground truth the differential query
oracle (``tests/query/``) checks the planner against, and deliberately
shares no code with it.  :func:`explain` exposes the chosen plan with
estimated vs. actual rows per join step.

>>> from repro.rdf import IRI, Variable
>>> x = Variable("x")
>>> # solve(graph, [(x, RDF.type, EX.Product)]) -> [{x: ...}, ...]
"""

from __future__ import annotations

from typing import Iterator, Sequence, Union

from ..rdf.terms import Term, Triple, Variable
from .graph import Graph

__all__ = [
    "TriplePattern",
    "Binding",
    "solve",
    "solve_naive",
    "explain",
    "select",
    "ask",
    "construct",
]

PatternTerm = Union[Term, Variable]
TriplePattern = tuple[PatternTerm, PatternTerm, PatternTerm]
Binding = dict[Variable, Term]


def _pattern_variables(pattern: TriplePattern) -> set[Variable]:
    return {term for term in pattern if isinstance(term, Variable)}


def _substitute(pattern: TriplePattern, binding: Binding) -> TriplePattern:
    return tuple(
        binding.get(term, term) if isinstance(term, Variable) else term
        for term in pattern
    )  # type: ignore[return-value]


def _match_pattern(graph: Graph, pattern: TriplePattern) -> Iterator[tuple[Triple, Binding]]:
    """Match one (possibly variable-containing) pattern against the graph."""
    subject, predicate, obj = pattern
    lookup = (
        None if isinstance(subject, Variable) else subject,
        None if isinstance(predicate, Variable) else predicate,
        None if isinstance(obj, Variable) else obj,
    )
    for triple in graph.triples(*lookup):
        binding: Binding = {}
        consistent = True
        for pattern_term, value in zip(pattern, triple):
            if isinstance(pattern_term, Variable):
                previous = binding.get(pattern_term)
                if previous is None:
                    binding[pattern_term] = value
                elif previous != value:
                    consistent = False
                    break
        if consistent:
            yield triple, binding


def solve(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bindings: Sequence[Binding] | None = None,
) -> list[Binding]:
    """Evaluate a conjunction of triple patterns; return all solutions.

    Each solution maps every variable in the BGP to a concrete term.
    Evaluation goes through the cost-based planner
    (:mod:`repro.store.planner`): statistics-driven join order, cheapest
    index permutation per step, encoded-space execution.  ``bindings``
    optionally seeds the evaluation with partial solutions (the
    subscription layer passes the bindings a delta triple produced, so
    only the affected slice of the solution space is re-joined).
    """
    from .planner import solve_planned  # lazy: planner imports this module

    return solve_planned(graph, patterns, bindings)


def solve_naive(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bindings: Sequence[Binding] | None = None,
) -> list[Binding]:
    """Written-order, term-level reference evaluation of a BGP.

    Nested-loop join over the patterns exactly as written, matching
    decoded triples — obviously correct and deliberately independent of
    the planner's statistics, ordering, and encoded execution.  The
    differential query oracle asserts ``solve`` ≡ ``solve_naive`` as
    multisets of bindings.
    """
    solutions: list[Binding] = [dict(b) for b in bindings] if bindings else [{}]
    for pattern in patterns:
        next_solutions: list[Binding] = []
        for solution in solutions:
            concrete = _substitute(pattern, solution)
            for _, binding in _match_pattern(graph, concrete):
                merged = dict(solution)
                merged.update(binding)
                next_solutions.append(merged)
        solutions = next_solutions
        if not solutions:
            return []
    return solutions


def explain(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bindings: Sequence[Binding] | None = None,
) -> dict:
    """Plan and run a BGP, returning the chosen plan with per-step
    estimated vs. actual row counts (see
    :func:`repro.store.planner.plan.explain_plan`)."""
    from .planner import explain_plan  # lazy: planner imports this module

    return explain_plan(graph, patterns, bindings)


def select(
    graph: Graph,
    variables: Sequence[Variable],
    patterns: Sequence[TriplePattern],
    distinct: bool = True,
    limit: int | None = None,
) -> list[tuple[Term, ...]]:
    """SPARQL-SELECT-like projection of BGP solutions onto ``variables``.

    Every projected variable must occur in ``patterns`` (a variable no
    pattern can bind would otherwise KeyError on the first solution).
    An empty BGP has exactly one (empty) solution, so
    ``select(graph, [], [])`` returns ``[()]``.

    ``limit`` keeps the first ``limit`` (distinct) rows in evaluation
    order — an arbitrary but valid subset of the full answer — and stops
    joining and decoding once it has them.
    """
    pattern_variables: set[Variable] = set()
    for pattern in patterns:
        pattern_variables |= _pattern_variables(pattern)
    unbound = [v for v in variables if v not in pattern_variables]
    if unbound:
        names = ", ".join(f"?{v.name}" for v in unbound)
        raise ValueError(f"projected variables not bound by any pattern: {names}")
    rows: list[tuple[Term, ...]] = []
    seen: set[tuple[Term, ...]] = set()
    for block in _solution_blocks(graph, patterns, limit):
        for solution in block:
            row = tuple(solution[variable] for variable in variables)
            if distinct:
                if row in seen:
                    continue
                seen.add(row)
            rows.append(row)
            if len(rows) == limit:
                return rows
    return rows


def _solution_blocks(graph: Graph, patterns: Sequence[TriplePattern], limit: int | None):
    """All solutions as one eager block, or lazy blocks under a ``limit``."""
    if limit is None:
        return (solve(graph, patterns),)
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    from .planner import solution_blocks  # lazy: planner imports this module

    return solution_blocks(graph, patterns)


def ask(graph: Graph, patterns: Sequence[TriplePattern]) -> bool:
    """SPARQL-ASK: does at least one solution exist?

    Stops at the first solution and never decodes one.
    """
    from .planner import solution_blocks  # lazy: planner imports this module

    return any(solution_blocks(graph, patterns, decode=False))


def construct(
    graph: Graph,
    template: Sequence[TriplePattern],
    patterns: Sequence[TriplePattern],
    limit: int | None = None,
) -> list[Triple]:
    """SPARQL-CONSTRUCT: instantiate ``template`` for every solution.

    Every template variable must be bound by the body ``patterns``; a
    variable the body can never bind would silently drop template
    triples (or worse, emit malformed ones), so it raises instead.
    ``limit`` stops after that many distinct triples (see :func:`select`).
    """
    body_variables: set[Variable] = set()
    for pattern in patterns:
        body_variables |= _pattern_variables(pattern)
    unbound = [
        term
        for pattern in template
        for term in pattern
        if isinstance(term, Variable) and term not in body_variables
    ]
    if unbound:
        names = ", ".join(sorted({f"?{v.name}" for v in unbound}))
        raise ValueError(f"template variables never bound by the body: {names}")
    results: list[Triple] = []
    seen: set[Triple] = set()
    for block in _solution_blocks(graph, patterns, limit):
        for solution in block:
            for pattern in template:
                subject, predicate, obj = _substitute(pattern, solution)
                triple = Triple(subject, predicate, obj)
                if triple not in seen:
                    seen.add(triple)
                    results.append(triple)
                    if len(results) == limit:
                        return results
    return results
