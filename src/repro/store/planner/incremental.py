"""Incremental join plans for standing BGPs.

Following the "queries under updates" treatment, a standing BGP is
compiled *once* into k+1 plans (k = pattern count):

* the **full plan** — used to materialize the initial solution set at
  registration time;
* one **rest plan per pattern** — the join of the other k-1 patterns,
  ordered assuming that pattern's variables are already bound.  When a
  committed delta adds triples, each added triple is unified against
  each pattern *in encoded space*; every hit seeds the matching rest
  plan, so maintenance work is O(delta × plan), never O(data).

Removals need no plan at all: a maintained solution dies iff one of its
fully-instantiated supporting triples is net-removed (the subscription
layer keeps that logic).

Plans age as the graph grows — statistics collected over an empty graph
at subscribe time would order joins arbitrarily forever — so the plan
recompiles itself when the store size drifts past 2× (either way) of
the size it was planned at.
"""

from __future__ import annotations

from typing import Sequence

from ...rdf.terms import Variable
from ..graph import Graph
from ..query import Binding, TriplePattern
from .executor import (
    decode_rows,
    execute_encoded,
    execute_plan,
    match_program,
    match_rows,
    resolve_states,
)
from .plan import plan_bgp, slot_states

__all__ = ["IncrementalBGPPlan"]

#: Recompile when the store size drifts past this factor of the planned
#: size (with a small absolute floor so tiny graphs don't thrash).
_REPLAN_FACTOR = 2
_REPLAN_FLOOR = 64


class IncrementalBGPPlan:
    """Compiled maintenance plans for one standing BGP."""

    __slots__ = (
        "patterns",
        "_entries",
        "_full_plan",
        "_rest_plans",
        "_planned_size",
    )

    def __init__(self, patterns: Sequence[TriplePattern]):
        self.patterns: tuple[TriplePattern, ...] = tuple(tuple(p) for p in patterns)
        # Per pattern: its states as the step a delta triple enters
        # through (every variable a fresh slot, in first-occurrence
        # order); the rows it seeds enter that pattern's rest plan.
        self._entries = tuple(slot_states(pattern, {}) for pattern in self.patterns)
        self._full_plan = None
        self._rest_plans: tuple | None = None
        self._planned_size = -1

    # --- compilation -------------------------------------------------------
    def compile(self, graph: Graph) -> None:
        """(Re)build all plans against the graph's current statistics."""
        self._full_plan = plan_bgp(graph, self.patterns)
        self._rest_plans = tuple(
            plan_bgp(
                graph,
                self.patterns[:index] + self.patterns[index + 1 :],
                bound=[term for term in pattern if isinstance(term, Variable)],
            )
            for index, pattern in enumerate(self.patterns)
        )
        self._planned_size = len(graph.store)

    def _ensure_fresh(self, graph: Graph) -> None:
        if self._full_plan is None:
            self.compile(graph)
            return
        size = len(graph.store)
        planned = self._planned_size
        if (
            size > planned * _REPLAN_FACTOR + _REPLAN_FLOOR
            or planned > size * _REPLAN_FACTOR + _REPLAN_FLOOR
        ):
            self.compile(graph)

    # --- evaluation --------------------------------------------------------
    def solutions(self, graph: Graph) -> list[Binding]:
        """Full materialization (registration / reseeding)."""
        self._ensure_fresh(graph)
        return execute_plan(graph, self._full_plan)

    def additions(
        self, graph: Graph, added_encoded: Sequence[tuple[int, int, int]]
    ) -> list[Binding]:
        """Candidate new solutions introduced by a delta's added triples.

        Returns term-level bindings, possibly with duplicates across
        entry patterns — the caller dedupes against its maintained set.
        """
        if not added_encoded:
            return []
        self._ensure_fresh(graph)
        lookup = graph.dictionary.lookup
        results: list[Binding] = []
        for entry, rest_plan in zip(self._entries, self._rest_plans):
            states = resolve_states(entry, lookup)
            if states is None:
                continue  # a constant this pattern needs is unseen: no match
            rows = match_rows(match_program(states), added_encoded)
            if rows and rest_plan.steps:
                rows = execute_encoded(graph, rest_plan, rows)
            results.extend(decode_rows(graph, rest_plan.slots, rows))
        return results

    def __repr__(self):
        return (
            f"<IncrementalBGPPlan patterns={len(self.patterns)} "
            f"planned_size={self._planned_size}>"
        )
