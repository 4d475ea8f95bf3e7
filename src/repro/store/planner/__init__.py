"""Cost-based BGP query planning over the permutation-indexed backends.

The naive evaluator in :mod:`repro.store.query` re-sorts patterns with a
crude per-pattern guess and matches term-level triples.  This package is
the relational treatment of the same problem:

* :mod:`~repro.store.planner.plan` — compile a BGP into a
  :class:`QueryPlan`: greedy selectivity ordering driven by the
  backends' O(1) per-predicate statistics (``predicate_stats``), each
  join step bound to the cheapest index permutation (PSO / POS / SPO /
  OSP / membership / scan) for its bound-position shape;
* :mod:`~repro.store.planner.executor` — the one join core (queries,
  rule firings, subscription deltas, DRed's support check):
  slot-indexed rows of ids, decoded only at the edge, with optional
  per-step actual-row counters for ``explain``; ``solution_blocks``
  hands the same executor its first step's rows a block at a time for
  callers that stop early (``limit``, ``ASK``);
* :mod:`~repro.store.planner.incremental` — a *standing* BGP as a
  headless rule: compiled once into the rules' conjunction form, the
  O(delta) maintenance path the subscription layer uses instead of
  re-running seeded ``solve`` every revision.

``solve`` in :mod:`repro.store.query` delegates here; the written-order
reference evaluator (``solve_naive``) stays behind as the differential
oracle's ground truth.
"""

from .executor import execute_plan, solution_blocks, solve_planned
from .incremental import IncrementalBGPPlan
from .plan import PlanStep, QueryPlan, explain_plan, plan_bgp

__all__ = [
    "QueryPlan",
    "PlanStep",
    "plan_bgp",
    "explain_plan",
    "execute_plan",
    "solve_planned",
    "solution_blocks",
    "IncrementalBGPPlan",
]
