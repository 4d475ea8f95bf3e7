"""Planner benchmarks: cost-based joins and incremental subscriptions.

Two runner-robust ratios, both gated in CI through
``python -m repro.bench.compare``:

* **query_speedup** — a suite of high-join-count BGPs written in a
  deliberately pessimal order (unselective patterns first, the
  selective anchor last) evaluated with the written-order reference
  (:func:`repro.store.query.solve_naive`) vs the cost-based planner
  (:func:`repro.store.query.solve`).  The planner reorders by
  selectivity and probes permutation indexes, so the ratio grows with
  the data; the gate requires >= 10x.
* **subscription_speedup** — 1 000 standing BGPs maintained through a
  write workload.  Incrementally (compiled
  :class:`~repro.store.planner.IncrementalBGPPlan` folding each
  revision's delta) vs the pre-planner strategy of re-running ``solve``
  for every standing query after every revision.  The gate requires
  >= 5x.

Both sides of each ratio are checked for *identical answers* before any
time is reported — a fast wrong answer is not a speedup.

Run directly (``python -m repro.bench.planner``) for a one-shot
human-readable report, or through ``benchmarks/bench_planner.py`` for
the pytest-benchmark harness and the JSON artifact.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from ..rdf.namespaces import Namespace
from ..rdf.terms import Triple, Variable
from ..reasoner.delta import Delta
from ..reasoner.engine import Slider
from ..store.graph import Graph
from ..store.query import solve, solve_naive

__all__ = ["PlannerBenchResult", "run_planner_bench"]

EX = Namespace("http://bench.example/")

X, Y, O = Variable("x"), Variable("y"), Variable("o")
A, B, Z = Variable("a"), Variable("b"), Variable("z")


class PlannerBenchResult:
    """Outcome of one planner sweep (see module docstring)."""

    __slots__ = (
        "people", "graph_size", "queries",
        "naive_seconds", "planned_seconds",
        "standing_queries", "revisions",
        "resolve_seconds", "incremental_seconds",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def query_speedup(self) -> float:
        """Pessimal-written-order suite: naive over planned wall time."""
        if self.planned_seconds <= 0:
            return float("inf")
        return self.naive_seconds / self.planned_seconds

    @property
    def subscription_speedup(self) -> float:
        """Standing-query maintenance: re-solve over incremental."""
        if self.incremental_seconds <= 0:
            return float("inf")
        return self.resolve_seconds / self.incremental_seconds

    def as_dict(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__}
        data["kind"] = "planner"
        data["query_speedup"] = self.query_speedup
        data["subscription_speedup"] = self.subscription_speedup
        return data

    def __repr__(self):
        return (
            f"<PlannerBenchResult query={self.query_speedup:.1f}x "
            f"subscriptions={self.subscription_speedup:.1f}x "
            f"({self.standing_queries} standing, {self.revisions} revisions)>"
        )


# --- query workload ----------------------------------------------------------

def _build_query_graph(people: int) -> Graph:
    """A social graph where written-order evaluation goes quadratic.

    ``type Person`` is maximally unselective (one row per person), the
    ``knows`` chain joins them, ``worksAt`` buckets them into 10 orgs,
    and exactly one person carries the selective ``status Suspect``
    anchor a cost-based planner should start from.
    """
    graph = Graph()
    triples = []
    for i in range(people):
        person = EX[f"person{i}"]
        triples.append(Triple(person, EX.type, EX.Person))
        triples.append(Triple(person, EX.worksAt, EX[f"org{i % 10}"]))
        if i + 1 < people:
            triples.append(Triple(person, EX.knows, EX[f"person{i + 1}"]))
    triples.append(Triple(EX[f"person{people // 2}"], EX.status, EX.Suspect))
    for i in range(10):
        triples.append(Triple(EX[f"org{i}"], EX.type, EX.Org))
    graph.add_all(triples)
    return graph


def _query_suite() -> list[list[tuple]]:
    """High-join-count BGPs, each written selective-pattern-last."""
    return [
        # Quadratic as written: two full Person scans before the join.
        [
            (X, EX.type, EX.Person),
            (Y, EX.type, EX.Person),
            (X, EX.knows, Y),
            (X, EX.status, EX.Suspect),
        ],
        # Quadratic colleague pairing, anchor last again.
        [
            (X, EX.type, EX.Person),
            (Y, EX.type, EX.Person),
            (X, EX.worksAt, O),
            (Y, EX.worksAt, O),
            (Y, EX.status, EX.Suspect),
        ],
        # Eight patterns: a knows-chain walk off the anchor.
        [
            (X, EX.type, EX.Person),
            (A, EX.type, EX.Person),
            (X, EX.knows, A),
            (A, EX.knows, B),
            (B, EX.knows, Z),
            (Z, EX.worksAt, O),
            (O, EX.type, EX.Org),
            (X, EX.status, EX.Suspect),
        ],
    ]


def _as_multiset(solutions) -> Counter:
    return Counter(frozenset(binding.items()) for binding in solutions)


def _time_suite(graph: Graph, queries, evaluate, rounds: int, clock) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = clock()
        for patterns in queries:
            evaluate(graph, patterns)
        best = min(best, clock() - start)
    return best


# --- subscription workload ---------------------------------------------------

def _standing_patterns(standing: int) -> list[list[tuple]]:
    """``standing`` BGPs over a 40-predicate space; every fourth a 2-chain."""
    predicates = [EX[f"pred{k}"] for k in range(40)]
    patterns = []
    for k in range(standing):
        if k % 4 == 3:
            patterns.append([
                (X, predicates[k % 40], Y),
                (Y, predicates[(k + 7) % 40], Z),
            ])
        else:
            patterns.append([(X, predicates[k % 40], Y)])
    return patterns


def _base_graph(base_triples: int) -> list[Triple]:
    """The preloaded graph the standing queries stand over: deterministic
    triples across the full predicate space, dense enough that every
    re-solve pays a real per-query cost."""
    return [
        Triple(
            EX[f"node{(i * 13) % 400}"],
            EX[f"pred{i % 40}"],
            EX[f"node{(i * 7 + 3) % 400}"],
        )
        for i in range(base_triples)
    ]


def _write_script(revisions: int, rng: random.Random) -> list[Delta]:
    """Mixed add/retract deltas over the standing queries' predicate space."""
    predicates = [EX[f"pred{k}"] for k in range(40)]
    live: list[Triple] = []
    script = []
    for _ in range(revisions):
        assertions = [
            Triple(
                EX[f"node{rng.randint(0, 399)}"],
                rng.choice(predicates),
                EX[f"node{rng.randint(0, 399)}"],
            )
            for _ in range(20)
        ]
        retractions = rng.sample(live, k=min(len(live), rng.randint(0, 3)))
        removed = set(retractions)
        live = [t for t in live if t not in removed]
        live.extend(t for t in assertions if t not in live)
        script.append(Delta(assertions=assertions, retractions=retractions))
    return script


def _solution_keys(bindings) -> set:
    return {frozenset(binding.items()) for binding in bindings}


def _run_incremental(base, script, patterns, clock):
    """Maintain every standing BGP through the engine's subscription
    layer; returns (seconds, final solution key-sets)."""
    with Slider(fragment="rhodf", workers=0, timeout=None) as r:
        r.apply(Delta(assertions=base))
        subscriptions = [r.subscribe(p) for p in patterns]
        start = clock()
        for delta in script:
            r.apply(delta)
            for subscription in subscriptions:
                subscription.drain()
        elapsed = clock() - start
        final = [_solution_keys(s.solutions) for s in subscriptions]
    return elapsed, final


def _run_resolve(base, script, patterns, clock):
    """The pre-planner strategy: after every revision, re-run ``solve``
    for every standing BGP and diff against the previous solutions."""
    with Slider(fragment="rhodf", workers=0, timeout=None) as r:
        r.apply(Delta(assertions=base))
        previous = [_solution_keys(solve(r.graph, bgp)) for bgp in patterns]
        start = clock()
        for delta in script:
            r.apply(delta)
            for index, bgp in enumerate(patterns):
                current = _solution_keys(solve(r.graph, bgp))
                # The diff a subscription event would carry.
                _added = current - previous[index]
                _removed = previous[index] - current
                previous[index] = current
        elapsed = clock() - start
    return elapsed, previous


# --- entry point -------------------------------------------------------------

def run_planner_bench(
    scale: float = 1.0,
    standing: int = 1000,
    revisions: int = 8,
    base_triples: int = 4000,
    rounds: int = 3,
    seed: int = 96321,
    clock=time.perf_counter,
) -> PlannerBenchResult:
    """Run both planner workloads; see the module docstring."""
    people = max(50, int(400 * scale))
    graph = _build_query_graph(people)
    queries = _query_suite()

    # Answers must agree before any time is believed.
    for patterns in queries:
        assert _as_multiset(solve(graph, patterns)) == _as_multiset(
            solve_naive(graph, patterns)
        ), f"planner diverged from the reference on {patterns}"

    naive_seconds = _time_suite(graph, queries, solve_naive, rounds, clock)
    planned_seconds = _time_suite(graph, queries, solve, rounds, clock)

    patterns = _standing_patterns(standing)
    base = _base_graph(int(base_triples * scale))
    script = _write_script(revisions, random.Random(seed))
    incremental_seconds, incremental_final = _run_incremental(
        base, script, patterns, clock
    )
    resolve_seconds, resolve_final = _run_resolve(
        base, script, patterns, clock
    )
    assert incremental_final == resolve_final, (
        "incremental subscription maintenance diverged from re-solve"
    )

    return PlannerBenchResult(
        people=people,
        graph_size=len(graph.store),
        queries=len(queries),
        naive_seconds=naive_seconds,
        planned_seconds=planned_seconds,
        standing_queries=standing,
        revisions=revisions,
        resolve_seconds=resolve_seconds,
        incremental_seconds=incremental_seconds,
    )


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.planner",
        description="Planner benchmarks: cost-based joins, incremental subscriptions.",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--standing", type=int, default=1000)
    parser.add_argument("--revisions", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    result = run_planner_bench(
        scale=args.scale,
        standing=args.standing,
        revisions=args.revisions,
        rounds=args.rounds,
    )
    print(
        f"query suite   ({result.queries} BGPs, {result.graph_size} triples): "
        f"naive {result.naive_seconds:.4f}s, planned {result.planned_seconds:.4f}s "
        f"-> {result.query_speedup:.1f}x"
    )
    print(
        f"subscriptions ({result.standing_queries} standing, "
        f"{result.revisions} revisions): re-solve {result.resolve_seconds:.3f}s, "
        f"incremental {result.incremental_seconds:.3f}s "
        f"-> {result.subscription_speedup:.1f}x"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
