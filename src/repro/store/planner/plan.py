"""BGP compilation: statistics-driven join ordering and index selection.

A plan is built per query (planning is O(k²) pattern comparisons with
O(1) statistics lookups per comparison, negligible next to execution)
or once per standing subscription.  The cost model estimates the row
count each candidate pattern would produce given the variables already
bound, then greedily appends the cheapest *connected* pattern —
disconnected patterns (sharing no bound variable) are deferred until
nothing connected remains, avoiding accidental cartesian products.

Estimates come from the backends' permutation-index statistics:

========================  =============================================
bound positions           estimate
========================  =============================================
s, p, o                   1 (membership probe)
s, p                      count(p) / distinct_subjects(p)
p, o                      count(p) / distinct_objects(p)
p                         count(p)
s, o (p free)             2 (OSP probe of one (s, o) pair)
s or o alone (p free)     count_subject / count_object when the term is
                          a constant, else sqrt(|store|)
none                      |store| (full scan)
========================  =============================================

A *join-bound* predicate variable (bound by an earlier step, value
unknown at plan time) is priced at the mean partition size.  Ties break
on the written pattern index, so plans are deterministic.
"""

from __future__ import annotations

from typing import Sequence

from ...rdf.terms import Variable
from ..graph import Graph
from ..query import Binding, TriplePattern

__all__ = ["PlanStep", "QueryPlan", "plan_bgp", "explain_plan", "pattern_text", "slot_states"]

#: Position-state tags used in :attr:`PlanStep.states`; the payload is
#: the constant term or the variable's row slot.
CONST = "c"  #: constant term (id resolved at execution start)
BOUND = "b"  #: variable bound by a seed or an earlier step: read its slot
FREE = "f"  #: variable this step binds: its value is appended at its slot

#: Access-path names, keyed by (predicate known, subject known, object known).
_ACCESS = {
    (True, True, True): "membership",
    (True, True, False): "pso.objects",
    (True, False, True): "pos.subjects",
    (True, False, False): "p.pairs",
    (False, True, True): "osp.predicates_between",
    (False, True, False): "spo.subject",
    (False, False, True): "osp.object",
    (False, False, False): "scan",
}


class PlanStep:
    """One join step: a pattern, its access path, and its cost estimate."""

    __slots__ = ("index", "pattern", "states", "access", "estimated_rows")

    def __init__(
        self,
        index: int,
        pattern: TriplePattern,
        states: tuple[tuple[str, object], ...],
        access: str,
        estimated_rows: float,
    ):
        self.index = index
        self.pattern = pattern
        self.states = states
        self.access = access
        self.estimated_rows = estimated_rows

    def __repr__(self):
        return (
            f"<PlanStep #{self.index} {self.access} "
            f"est={self.estimated_rows:.1f}>"
        )


class QueryPlan:
    """An ordered sequence of :class:`PlanStep` for one BGP.  ``slots``
    names each position of a result row: the seed variables ``bound``
    first, then each step's fresh variables in binding order."""

    __slots__ = ("patterns", "steps", "variables", "planned_size", "slots", "bound")

    def __init__(
        self,
        patterns: tuple[TriplePattern, ...],
        steps: tuple[PlanStep, ...],
        variables: frozenset,
        planned_size: int,
        slots: tuple = (),
        bound: tuple = (),
    ):
        self.patterns = patterns
        self.steps = steps
        self.variables = variables
        self.planned_size = planned_size
        self.slots = slots
        self.bound = bound

    def describe(self) -> list[dict]:
        """The explain rows (estimated side; actuals come from execution)."""
        return [
            {
                "step": position,
                "pattern": pattern_text(step.pattern),
                "written_index": step.index,
                "access": step.access,
                "estimated_rows": round(step.estimated_rows, 2),
            }
            for position, step in enumerate(self.steps)
        ]

    def __repr__(self):
        order = ",".join(str(step.index) for step in self.steps)
        return f"<QueryPlan order=[{order}] patterns={len(self.patterns)}>"


def pattern_text(pattern: TriplePattern) -> str:
    """Human-readable pattern rendering for explain output."""
    return " ".join(_term_text(term) for term in pattern)


def _term_text(term) -> str:
    if isinstance(term, Variable):
        return f"?{term.name}"
    value = getattr(term, "value", None)
    if value is not None and type(term).__name__ == "IRI":
        return f"<{value}>"
    return repr(term)


def _variables(pattern: TriplePattern) -> set:
    return {term for term in pattern if isinstance(term, Variable)}


def slot_states(pattern, slots: dict, variable: type = Variable) -> tuple:
    """A pattern's positional states against ``slots`` (variable -> row
    slot), which gains its new variables in first-occurrence order.  Rules
    pass their own ``variable`` type, :class:`~repro.reasoner.rules.Var`."""
    width = len(slots)
    states = []
    for term in pattern:
        if isinstance(term, variable):
            slot = slots.setdefault(term, len(slots))
            states.append((BOUND if slot < width else FREE, slot))
        else:
            states.append((CONST, term))
    return tuple(states)


def _estimate(
    graph: Graph,
    pattern: TriplePattern,
    bound: set,
    size: int,
    mean_partition: float,
) -> float:
    subject, predicate, obj = pattern
    s_known = not isinstance(subject, Variable) or subject in bound
    o_known = not isinstance(obj, Variable) or obj in bound
    store = graph.store

    if not isinstance(predicate, Variable):
        predicate_id = graph.dictionary.lookup(predicate)
        if predicate_id is None:
            return 0.0
        count, distinct_s, distinct_o = store.predicate_stats(predicate_id)
        if not count:
            return 0.0
        if s_known and o_known:
            return 1.0
        if s_known:
            return count / max(1, distinct_s)
        if o_known:
            return count / max(1, distinct_o)
        return float(count)

    if predicate in bound:
        # Join-bound predicate: value unknown at plan time, price the
        # mean partition and sharpen when the ends are known too.
        if s_known and o_known:
            return 1.0
        if s_known or o_known:
            return max(1.0, mean_partition**0.5)
        return max(1.0, mean_partition)

    # Free predicate variable.
    if s_known and o_known:
        return 2.0
    if s_known:
        if not isinstance(subject, Variable):
            subject_id = graph.dictionary.lookup(subject)
            return 0.0 if subject_id is None else float(store.count_subject(subject_id))
        return max(1.0, float(size) ** 0.5)
    if o_known:
        if not isinstance(obj, Variable):
            object_id = graph.dictionary.lookup(obj)
            return 0.0 if object_id is None else float(store.count_object(object_id))
        return max(1.0, float(size) ** 0.5)
    return float(size)


def plan_bgp(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bound: frozenset | set | None = None,
) -> QueryPlan:
    """Compile a BGP into an ordered, index-annotated :class:`QueryPlan`.

    ``bound`` names variables a seed binding supplies, in the slot order
    of the seed rows (the subscription layer plans the *rest* of a BGP
    with the delta pattern's variables pre-bound).
    """
    patterns = tuple(tuple(p) for p in patterns)
    seeded = tuple(dict.fromkeys(bound)) if bound else ()
    slots = dict(zip(seeded, range(len(seeded))))
    bound_now = set(seeded)  # slots' keys as a set: set & set reuses stored hashes
    size = len(graph.store)
    predicate_count = len(graph.store.predicates())
    mean_partition = size / predicate_count if predicate_count else 1.0

    remaining = list(range(len(patterns)))
    steps: list[PlanStep] = []
    all_variables: set = set()
    for pattern in patterns:
        all_variables |= _variables(pattern)

    cumulative = 1.0  # estimated intermediate solutions alive so far
    while remaining:
        connected = [
            index
            for index in remaining
            if not _variables(patterns[index])
            or (_variables(patterns[index]) & bound_now)
        ]
        candidates = connected if (bound_now and connected) else remaining
        best_index = min(
            candidates,
            key=lambda index: (
                _estimate(graph, patterns[index], bound_now, size, mean_partition),
                index,
            ),
        )
        remaining.remove(best_index)
        pattern = patterns[best_index]
        estimate = _estimate(graph, pattern, bound_now, size, mean_partition)
        states = slot_states(pattern, slots)
        known = tuple(state[0] != FREE for state in states)
        access = _ACCESS[(known[1], known[0], known[2])]
        # Record the *cumulative* estimate — intermediate solutions alive
        # after this join — so explain's estimated and actual columns are
        # directly comparable.
        cumulative *= estimate
        steps.append(PlanStep(best_index, pattern, states, access, cumulative))
        bound_now |= _variables(pattern)

    return QueryPlan(
        patterns, tuple(steps), frozenset(all_variables), size, tuple(slots), seeded
    )


def explain_plan(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bindings: Sequence[Binding] | None = None,
) -> dict:
    """Plan and execute a BGP, reporting estimated vs. actual rows per step.

    The ``actual_rows`` of a step is the number of intermediate
    solutions alive after that join — the quantity the estimate tries to
    predict.
    """
    from .executor import execute_plan

    seed_variables = [variable for seed in bindings or () for variable in seed]
    plan = plan_bgp(graph, patterns, bound=seed_variables)
    counters: list[int] = []
    solutions = execute_plan(graph, plan, bindings=bindings, step_counters=counters)
    rows = plan.describe()
    for row, actual in zip(rows, counters):
        row["actual_rows"] = actual
    return {
        "backend": type(graph.store).__name__,
        "store_size": plan.planned_size,
        "pattern_count": len(plan.patterns),
        "plan_order": [step.index for step in plan.steps],
        "steps": rows,
        "solutions": len(solutions),
    }
