"""Plan execution in encoded integer space.

The executor runs a :class:`~repro.store.planner.plan.QueryPlan` against
a :class:`~repro.store.graph.Graph`'s *encoded* store: every join step
probes the permutation index the plan chose, working solutions map
variables to integer ids, and terms are decoded exactly once — for the
final bindings.  This is where the planner's speed comes from as much
as from join ordering: the naive evaluator decodes every candidate
triple and compares term objects at every step.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ...rdf.terms import Variable
from ..graph import Graph
from ..query import Binding, TriplePattern
from .plan import BOUND, CONST, FREE, QueryPlan, plan_bgp

__all__ = [
    "solve_planned",
    "solution_blocks",
    "execute_plan",
    "execute_encoded",
    "BLOCK_ROWS",
]

#: First-step rows :func:`solution_blocks` hands the remaining join steps
#: (and the decoder) at a time.
BLOCK_ROWS = 64

#: Reserved working-solution key carrying seed variables whose terms are
#: unseen by the dictionary (they cannot be encoded, but a seed variable
#: that occurs in no pattern is unconstrained and must survive to the
#: output, matching the naive evaluator).
_CARRY = object()


def solve_planned(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bindings: Sequence[Binding] | None = None,
) -> list[Binding]:
    """Drop-in planner-backed equivalent of :func:`repro.store.query.solve`."""
    if not patterns:
        return [dict(b) for b in bindings] if bindings else [{}]
    if not bindings:
        return execute_plan(graph, plan_bgp(graph, patterns))
    # Plans assume a uniform bound-variable set; heterogeneous seeds
    # (different key sets) are grouped and planned per shape.
    groups: dict[frozenset, list[Binding]] = {}
    for seed in bindings:
        groups.setdefault(frozenset(seed), []).append(seed)
    solutions: list[Binding] = []
    for keys, seeds in groups.items():
        plan = plan_bgp(graph, patterns, bound=keys)
        solutions.extend(execute_plan(graph, plan, bindings=seeds))
    return solutions


def solution_blocks(
    graph: Graph, patterns: Sequence[TriplePattern], decode: bool = True
) -> Iterator[list]:
    """The solutions of a BGP, lazily, one list per block of first-step rows.

    For callers that stop early (``limit``, ``ASK``): the first plan step
    is evaluated whole, then its rows go through the remaining steps
    :data:`BLOCK_ROWS` at a time, so join and decode work follow the
    solutions actually consumed.  The concatenated blocks are exactly
    :func:`solve_planned`'s answer; ``decode=False`` yields encoded
    solutions (variable -> id) and skips the dictionary.

    The work itself stays in the eager :func:`execute_encoded` /
    :func:`execute_plan` — only the hand-over of blocks is lazy.
    """
    if not patterns:
        yield [{}]
        return
    plan = plan_bgp(graph, patterns)
    head, rest = (
        QueryPlan(plan.patterns, steps, plan.variables, plan.planned_size)
        for steps in (plan.steps[:1], plan.steps[1:])
    )
    rows = execute_encoded(graph, head, [{}])
    for start in range(0, len(rows), BLOCK_ROWS):
        block = rows[start : start + BLOCK_ROWS]
        if decode:
            yield execute_plan(graph, rest, encoded_seeds=block)
        else:
            yield execute_encoded(graph, rest, block)


def execute_plan(
    graph: Graph,
    plan: QueryPlan,
    bindings: Sequence[Binding] | None = None,
    step_counters: list[int] | None = None,
    encoded_seeds: list[dict] | None = None,
) -> list[Binding]:
    """Execute a plan over term-level seeds; return term-level bindings.

    ``encoded_seeds`` hands in already-encoded partial solutions instead
    (the blocks of :func:`solution_blocks`).
    """
    lookup = graph.dictionary.lookup
    seeds: list[dict] = []
    if encoded_seeds is not None:
        seeds = encoded_seeds
    elif bindings:
        for seed in bindings:
            encoded: dict = {}
            carry: dict = {}
            dead = False
            for variable, term in seed.items():
                if variable in plan.variables:
                    term_id = lookup(term)
                    if term_id is None:
                        dead = True  # constrained to a term no triple holds
                        break
                    encoded[variable] = term_id
                else:
                    carry[variable] = term
            if dead:
                continue
            if carry:
                encoded[_CARRY] = carry
            seeds.append(encoded)
        if not seeds:
            if step_counters is not None:
                step_counters.extend(0 for _ in plan.steps)
            return []
    else:
        seeds = [{}]
    solutions = execute_encoded(graph, plan, seeds, step_counters=step_counters)
    decode = graph.dictionary.decode
    results: list[Binding] = []
    for solution in solutions:
        binding: Binding = {}
        for variable, value in solution.items():
            if variable is _CARRY:
                binding.update(value)
            else:
                binding[variable] = decode(value)
        results.append(binding)
    return results


def execute_encoded(
    graph: Graph,
    plan: QueryPlan,
    seeds: list[dict],
    step_counters: list[int] | None = None,
) -> list[dict]:
    """Run the join pipeline over encoded seed bindings (var -> id)."""
    store = graph.store
    lookup = graph.dictionary.lookup
    solutions = seeds
    for step in plan.steps:
        if not solutions:
            if step_counters is not None:
                step_counters.append(0)
            continue
        states, failed = _resolve_states(step.states, lookup)
        solutions = [] if failed else _apply_step(store, states, solutions)
        if step_counters is not None:
            step_counters.append(len(solutions))
    return solutions


def _resolve_states(states, lookup):
    """Resolve constant terms to ids; report failure on unseen constants."""
    resolved = []
    for tag, payload in states:
        if tag == CONST:
            term_id = lookup(payload)
            if term_id is None:
                return (), True
            resolved.append((CONST, term_id))
        else:
            resolved.append((tag, payload))
    return tuple(resolved), False


def _apply_step(store, states, solutions: list[dict]) -> list[dict]:
    (s_tag, s_val), (p_tag, p_val), (o_tag, o_val) = states
    out: list[dict] = []

    if p_tag != FREE:
        if s_tag != FREE and o_tag != FREE:
            for solution in solutions:
                s = s_val if s_tag == CONST else solution[s_val]
                p = p_val if p_tag == CONST else solution[p_val]
                o = o_val if o_tag == CONST else solution[o_val]
                if (s, p, o) in store:
                    out.append(solution)
            return out
        if s_tag != FREE:  # bind the object from the PSO permutation
            objects = store.objects
            for solution in solutions:
                s = s_val if s_tag == CONST else solution[s_val]
                p = p_val if p_tag == CONST else solution[p_val]
                for o in objects(p, s):
                    extended = dict(solution)
                    extended[o_val] = o
                    out.append(extended)
            return out
        if o_tag != FREE:  # bind the subject from the POS permutation
            subjects = store.subjects
            for solution in solutions:
                p = p_val if p_tag == CONST else solution[p_val]
                o = o_val if o_tag == CONST else solution[o_val]
                for s in subjects(p, o):
                    extended = dict(solution)
                    extended[s_val] = s
                    out.append(extended)
            return out
        # Predicate known, both ends free: walk the predicate partition.
        pairs = store.pairs_for_predicate
        same_variable = s_val == o_val
        for solution in solutions:
            p = p_val if p_tag == CONST else solution[p_val]
            for s, o in pairs(p):
                if same_variable:
                    if s != o:
                        continue
                    extended = dict(solution)
                    extended[s_val] = s
                else:
                    extended = dict(solution)
                    extended[s_val] = s
                    extended[o_val] = o
                out.append(extended)
        return out

    # Free predicate variable: use the SPO / OSP permutations.
    if s_tag != FREE and o_tag != FREE:
        for solution in solutions:
            s = s_val if s_tag == CONST else solution[s_val]
            o = o_val if o_tag == CONST else solution[o_val]
            for p in store.predicates_between(s, o):
                extended = dict(solution)
                extended[p_val] = p
                out.append(extended)
        return out
    if s_tag != FREE:
        for solution in solutions:
            s = s_val if s_tag == CONST else solution[s_val]
            _extend_free(solutions=out, base=solution,
                         triples=store.triples_for_subject(s), states=states)
        return out
    if o_tag != FREE:
        for solution in solutions:
            o = o_val if o_tag == CONST else solution[o_val]
            _extend_free(solutions=out, base=solution,
                         triples=store.triples_for_object(o), states=states)
        return out
    # Nothing known: full scan.
    all_triples = store.match()
    for solution in solutions:
        _extend_free(solutions=out, base=solution, triples=all_triples, states=states)
    return out


def _extend_free(solutions: list[dict], base: dict, triples, states) -> None:
    """Generic extension: bind every FREE position, honouring repeats."""
    for triple in triples:
        extended = dict(base)
        consistent = True
        for (tag, payload), value in zip(states, triple):
            if tag != FREE:
                continue
            previous = extended.get(payload)
            if previous is None:
                extended[payload] = value
            elif previous != value:
                consistent = False
                break
        if consistent:
            solutions.append(extended)


def _pattern_variables(pattern: TriplePattern) -> set:
    return {term for term in pattern if isinstance(term, Variable)}
