"""Standing BGPs as headless rules.

Following the "queries under updates" treatment, a standing BGP's new
solutions after a commit are the conjunction evaluated over the
commit's added triples — exactly what a rule firing computes over its
batch, without the head.  So a standing BGP compiles once into the
rules' form, :func:`~repro.store.planner.executor.compile_conjunction`:
per pattern position, the added triples matching that pattern seed
rows that the static most-bound steps extend over the store, and
:func:`~repro.store.planner.executor.decode_rows` turns the rows into
bindings.  Maintenance work is O(delta × body), never O(data).

The patterns are term-level and the compiled form holds ids, so
:meth:`IncrementalBGPPlan.compile` resolves the constants once.  While
a constant is unseen no triple can hold it and no solution exists;
once every constant is interned its id never changes.

Removals need no plan at all: a maintained solution dies iff one of its
fully-instantiated supporting triples is net-removed (the subscription
layer keeps that logic).  The initial solution set is the planner's
full evaluation.
"""

from __future__ import annotations

from typing import Sequence

from ...rdf.terms import Variable
from ..graph import Graph
from ..query import Binding, TriplePattern
from .executor import compile_conjunction, decode_rows, execute_plan, seeded_rows
from .plan import plan_bgp

__all__ = ["IncrementalBGPPlan"]


class IncrementalBGPPlan:
    """One standing BGP: its full evaluation and its compiled conjunction."""

    __slots__ = ("patterns", "_conjunction")

    def __init__(self, patterns: Sequence[TriplePattern]):
        self.patterns: tuple[TriplePattern, ...] = tuple(tuple(p) for p in patterns)
        self._conjunction: tuple | None = None

    def compile(self, graph: Graph) -> None:
        """Resolve the constants to ids and compile the conjunction; left
        for a later call while a constant is unseen."""
        if self._conjunction is not None:
            return
        lookup = graph.dictionary.lookup
        body = []
        for pattern in self.patterns:
            resolved = tuple(
                term if isinstance(term, Variable) else lookup(term) for term in pattern
            )
            if any(term is None for term in resolved):
                return
            body.append(resolved)
        self._conjunction = compile_conjunction(body, Variable)

    def solutions(self, graph: Graph) -> list[Binding]:
        """Full materialization (registration / reseeding)."""
        return execute_plan(graph, plan_bgp(graph, self.patterns))

    def additions(
        self, graph: Graph, added_encoded: Sequence[tuple[int, int, int]]
    ) -> list[Binding]:
        """Candidate new solutions introduced by a delta's added triples.

        Returns term-level bindings, one per entry pattern an added
        triple instantiates — the caller dedupes against its maintained
        set.
        """
        if not added_encoded:
            return []
        self.compile(graph)
        if self._conjunction is None:
            return []  # a constant is unseen: no triple holds it
        store = graph.store
        results: list[Binding] = []
        for entry in self._conjunction:
            rows = seeded_rows(store, entry, added_encoded)
            if rows:
                results.extend(decode_rows(graph, entry[-1], rows))
        return results

    def __repr__(self):
        state = "compiled" if self._conjunction is not None else "awaiting constants"
        return f"<IncrementalBGPPlan patterns={len(self.patterns)} {state}>"
