"""Plan execution in encoded integer space: the one join core.

Every conjunction of triple patterns over a store's read half runs here
— ``solve`` / ``select`` / ``ask``, every rule firing, a standing
subscription's delta and DRed's head-bound
:meth:`~repro.reasoner.rules.Rule.supports`.  A plan gives each
variable a slot (:func:`~repro.store.planner.plan.slot_states`) and a
row is a tuple of ids: a step probes the index its access path names
and extends a row by concatenation (``row + (o,)``); a bound or
repeated variable is a comparison of positions.  A head triple enters
a support check through :func:`match_rows`, and :func:`decode_rows`
turns ids into terms exactly once, at the edge — the naive evaluator
instead decodes every candidate triple and compares term objects at
every step.

A rule body and a standing query are one thing here, a conjunction
evaluated over an update (:func:`compile_conjunction`,
:func:`seeded_rows`): per body position, the batch triples matching
that pattern are the seed rows, and :func:`join_rows` extends them
through the other patterns, answering a large batch with one grouped
hash join over a step's partition.  A rule projects the rows onto its
head; a standing query decodes them onto its variables.  Queries keep
:func:`extend_rows`'s per-row access paths.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from ..graph import Graph
from ..query import Binding, TriplePattern
from .plan import BOUND, CONST, FREE, QueryPlan, plan_bgp, slot_states

__all__ = [
    "solve_planned",
    "solution_blocks",
    "execute_plan",
    "execute_encoded",
    "extend_rows",
    "join_rows",
    "match_program",
    "match_triples",
    "match_rows",
    "has_row",
    "order_steps",
    "compile_conjunction",
    "seeded_rows",
    "decode_rows",
    "resolve_states",
    "BLOCK_ROWS",
    "KERNEL_MIN_BATCH",
]

#: First-step rows :func:`solution_blocks` hands the remaining join steps
#: (and the decoder) at a time.
BLOCK_ROWS = 64

#: Below this many rows :func:`join_rows` probes per row instead of
#: grouping the step's partition.
KERNEL_MIN_BATCH = 8

#: :func:`join_rows` probes per row when the partition holds more than
#: this many triples per row — the probes then touch less of it.
_HASH_MAX_RATIO = 64


def solve_planned(
    graph: Graph,
    patterns: Sequence[TriplePattern],
    bindings: Sequence[Binding] | None = None,
) -> list[Binding]:
    """Drop-in planner-backed equivalent of :func:`repro.store.query.solve`."""
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
    :func:`solve_planned`'s answer; ``decode=False`` yields the encoded
    rows (tuples of ids in slot order) and skips the dictionary.

    The work itself stays in the eager :func:`execute_encoded` /
    :func:`execute_plan` — only the hand-over of blocks is lazy.
    """
    plan = plan_bgp(graph, patterns)
    head, rest = (
        QueryPlan(plan.patterns, steps, plan.variables, plan.planned_size, plan.slots)
        for steps in (plan.steps[:1], plan.steps[1:])
    )
    rows = execute_encoded(graph, head, [()])
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
    encoded_seeds: list[tuple] | None = None,
) -> list[Binding]:
    """Execute a plan over term-level seeds; return term-level bindings.

    Each seed supplies the plan's ``bound`` variables; one that occurs
    in no pattern is unconstrained, so its term rides in the row as
    given (it may be unknown to the dictionary), matching the naive
    evaluator.  ``encoded_seeds`` hands in encoded rows instead (the
    blocks of :func:`solution_blocks`).
    """
    carried: frozenset = frozenset()
    if encoded_seeds is not None:
        rows = encoded_seeds
    elif bindings:
        lookup = graph.dictionary.lookup
        carried = frozenset(
            slot for slot, variable in enumerate(plan.bound) if variable not in plan.variables
        )
        rows = []
        for seed in bindings:
            row = tuple(
                seed[variable] if slot in carried else lookup(seed[variable])
                for slot, variable in enumerate(plan.bound)
            )
            if None not in row:  # else constrained to a term no triple holds
                rows.append(row)
    else:
        rows = [()]
    rows = execute_encoded(graph, plan, rows, step_counters=step_counters)
    return decode_rows(graph, plan.slots, rows, carried)


def execute_encoded(
    graph: Graph,
    plan: QueryPlan,
    seeds: list[tuple],
    step_counters: list[int] | None = None,
) -> list[tuple]:
    """Run the join pipeline over encoded seed rows; return encoded rows."""
    store = graph.store
    lookup = graph.dictionary.lookup
    rows = seeds
    for step in plan.steps:
        if rows:
            states = resolve_states(step.states, lookup)
            rows = [] if states is None else extend_rows(store, states, rows)
        if step_counters is not None:
            step_counters.append(len(rows))
    return rows


def decode_rows(
    graph: Graph, slots: Sequence, rows: list[tuple], carried: frozenset = frozenset()
) -> list[Binding]:
    """Term-level bindings of encoded rows: the one place ids become terms.

    ``slots`` names the variable of each slot; a ``None`` slot is not
    decoded.  ``carried`` names slots whose values are terms already.
    """
    decode = graph.dictionary.decode
    # A plain loop: dict(zip(slots, map(decode, row))) measures about
    # twice as slow on these short rows.
    layout = [
        (slot, variable, slot not in carried)
        for slot, variable in enumerate(slots)
        if variable is not None
    ]
    bindings = []
    for row in rows:
        binding = {}
        for slot, variable, encoded in layout:
            binding[variable] = decode(row[slot]) if encoded else row[slot]
        bindings.append(binding)
    return bindings


def resolve_states(states, lookup):
    """A step's states with constants resolved to ids — per execution, so a
    plan compiled before a term was interned matches it later; ``None``
    when a constant is unseen (no match)."""
    resolved = []
    for tag, payload in states:
        if tag == CONST:
            payload = lookup(payload)
            if payload is None:
                return None
        resolved.append((tag, payload))
    return tuple(resolved)


def match_program(states) -> tuple:
    """What :func:`match_triples` and :func:`match_rows` check for one
    step's states, compiled once: ``(constant checks, bound checks,
    repeated-variable checks, fresh positions, their getter)``.  A
    constant predicate is checked first — in a mixed batch it is the
    most selective test."""
    checks, bound, repeats, fresh = [], [], [], {}
    for position, (tag, value) in enumerate(states):
        if tag == CONST:
            checks.append((position, value))
        elif tag == BOUND:
            bound.append((position, value))
        else:
            first = fresh.setdefault(value, position)
            if first != position:
                repeats.append((first, position))
    checks.sort(key=lambda check: check[0] != 1)
    positions = tuple(fresh.values())
    take = itemgetter(*positions) if len(positions) > 1 else None
    return tuple(checks), tuple(bound), tuple(repeats), positions, take


def match_triples(program, triples, row: tuple = ()) -> Sequence:
    """The ``triples`` that match under a :func:`match_program`, in order.

    A constant position must equal its id, a bound one the row's slot,
    a repeated fresh variable its first occurrence.  The seed rows of a
    :func:`compile_conjunction` entry are its batch's matching triples
    themselves: each variable of the seed pattern sits at its position.
    """
    checks, bound, repeats, _, _ = program
    batch = triples
    for position, value in checks:
        batch = [t for t in batch if t[position] == value]
    for position, slot in bound:
        value = row[slot]
        batch = [t for t in batch if t[position] == value]
    for first, position in repeats:
        batch = [t for t in batch if t[first] == t[position]]
    return batch


def match_rows(program, triples, row: tuple = ()) -> list[tuple]:
    """The rows ``triples`` extend ``row`` to under a :func:`match_program`:
    each of :func:`match_triples` appends its fresh positions.

    This seeds a support check's rows from the head triple, and is the
    generic extension of a join step.
    """
    batch = match_triples(program, triples, row)
    positions, take = program[3], program[4]
    if take is not None:
        return [row + take(t) for t in batch]
    if positions:
        (position,) = positions
        return [row + (t[position],) for t in batch]
    return [row for _ in batch]


def extend_rows(store, states, rows: list[tuple]) -> list[tuple]:
    """One join step: every row extended by each stored triple it matches.

    ``states`` are resolved (constants are ids); the access path follows
    from which positions are known.  The probes append to one list: a
    comprehension per row costs more than a small row's probe.
    """
    (s_tag, s_val), (p_tag, p_val), (o_tag, o_val) = states
    s_const, p_const, o_const = s_tag == CONST, p_tag == CONST, o_tag == CONST
    out: list[tuple] = []
    append = out.append

    if p_tag != FREE:
        if s_tag != FREE and o_tag != FREE:
            for row in rows:
                s = s_val if s_const else row[s_val]
                p = p_val if p_const else row[p_val]
                o = o_val if o_const else row[o_val]
                if (s, p, o) in store:
                    append(row)
            return out
        if s_tag != FREE:  # bind the object from the PSO permutation
            objects = store.objects
            for row in rows:
                s = s_val if s_const else row[s_val]
                p = p_val if p_const else row[p_val]
                for o in objects(p, s):
                    append(row + (o,))
            return out
        if o_tag != FREE:  # bind the subject from the POS permutation
            subjects = store.subjects
            for row in rows:
                p = p_val if p_const else row[p_val]
                o = o_val if o_const else row[o_val]
                for s in subjects(p, o):
                    append(row + (s,))
            return out
        # Predicate known, both ends free: walk the predicate partition.
        pairs = store.pairs_for_predicate
        for row in rows:
            p = p_val if p_const else row[p_val]
            if s_val == o_val:
                for s, o in pairs(p):
                    if s == o:
                        append(row + (s,))
            else:
                for pair in pairs(p):
                    append(row + pair)
        return out

    # Free predicate variable: use the SPO / OSP permutations.
    if s_tag != FREE and o_tag != FREE:
        between = store.predicates_between
        for row in rows:
            s = s_val if s_const else row[s_val]
            o = o_val if o_const else row[o_val]
            for p in between(s, o):
                append(row + (p,))
        return out
    program = match_program(states)
    if s_tag != FREE:
        for row in rows:
            s = s_val if s_const else row[s_val]
            out.extend(match_rows(program, store.triples_for_subject(s), row))
        return out
    if o_tag != FREE:
        for row in rows:
            o = o_val if o_const else row[o_val]
            out.extend(match_rows(program, store.triples_for_object(o), row))
        return out
    # Nothing known: full scan.
    all_triples = store.match()
    for row in rows:
        out.extend(match_rows(program, all_triples, row))
    return out


def join_rows(store, states, rows: list[tuple]) -> list[tuple]:
    """:func:`extend_rows` for a batch: the same rows (grouped by row; with
    only the object bound, a row's extensions may come in another order).

    When the step has a constant predicate and a bound end, and there are
    at least :data:`KERNEL_MIN_BATCH` rows and at most
    ``_HASH_MAX_RATIO`` partition triples per row, the partition is
    fetched once and grouped by the bound end, and every row extends by
    one dictionary lookup; otherwise each row probes the store.
    """
    if len(rows) < KERNEL_MIN_BATCH:
        return extend_rows(store, states, rows)
    (s_tag, s_val), (p_tag, p_val), (o_tag, o_val) = states
    if (
        p_tag != CONST
        or BOUND not in (s_tag, o_tag)
        or store.count_predicate(p_val) > _HASH_MAX_RATIO * len(rows)
    ):
        return extend_rows(store, states, rows)
    pairs = store.pairs_for_predicate(p_val)
    if s_tag == CONST:
        pairs = [pair for pair in pairs if pair[0] == s_val]
    if o_tag == CONST:
        pairs = [pair for pair in pairs if pair[1] == o_val]
    if s_tag == BOUND and o_tag == BOUND:
        stored = set(pairs)
        return [row for row in rows if (row[s_val], row[o_val]) in stored]
    # One end is bound: group by it; the other end is fresh or a constant.
    if s_tag == BOUND:
        key, slot, fresh = 0, s_val, o_tag == FREE
    else:
        key, slot, fresh = 1, o_val, s_tag == FREE
    index: dict = {}
    if fresh:
        other = 1 - key
        for pair in pairs:
            index.setdefault(pair[key], []).append((pair[other],))
    else:
        for pair in pairs:
            index[pair[key]] = ((),)
    out: list[tuple] = []
    for row in rows:
        extensions = index.get(row[slot])
        if extensions:
            out.extend([row + extension for extension in extensions])
    return out


def order_steps(patterns: Sequence, slots: dict, variable: type) -> tuple:
    """The step states of ``patterns``, most-bound first (fewest unbound
    variable positions once the earlier ones are bound), ties in body
    order.  ``slots`` maps each variable to its row slot and gains the
    new ones; ``variable`` is the patterns' variable type."""
    remaining, steps = list(patterns), []
    while remaining:
        best = min(
            remaining,
            key=lambda p: sum(isinstance(t, variable) and t not in slots for t in p),
        )
        remaining.remove(best)
        steps.append(slot_states(best, slots, variable))
    return tuple(steps)


def compile_conjunction(body: Sequence, variable: type) -> tuple:
    """A conjunction of patterns compiled for :func:`seeded_rows`, one
    entry per body position: ``(seed match program, partitions to ask
    before seeding, partitions to ask after, step states, layout)``.

    Constants must be ids.  The partitions are the other patterns'
    constant predicates: when one is empty no row can extend through
    it.  A seed with a constant predicate is matched first (few batch
    triples carry it); one with a variable predicate matches the whole
    batch, so the partitions are asked first.  A seed row is the batch
    triple itself, each seed variable at its first position; the steps
    append slots from 3 on.  The layout names the variable of each
    slot, ``None`` for a seed position holding a constant or a repeat.
    """
    body = tuple(tuple(pattern) for pattern in body)
    entries = []
    for index, pattern in enumerate(body):
        rest = body[:index] + body[index + 1:]
        slots: dict = {}
        for position, term in enumerate(pattern):
            if isinstance(term, variable) and term not in slots:
                slots[term] = position
            else:
                slots[("seed", position)] = position  # a constant or repeat
        steps = order_steps(rest, slots, variable)
        layout = tuple(term if isinstance(term, variable) else None for term in slots)
        seed = match_program(slot_states(pattern, {}, variable))
        partitions = tuple(dict.fromkeys(
            p[1] for p in rest if not isinstance(p[1], variable)
        ))
        if isinstance(pattern[1], variable):
            entries.append((seed, partitions, (), steps, layout))
        else:
            entries.append((seed, (), partitions, steps, layout))
    return tuple(entries)


def seeded_rows(store, entry, triples) -> Sequence:
    """The rows of one :func:`compile_conjunction` entry: its pattern
    over ``triples`` joined with the other patterns over ``store``.

    Empty without a seed when another pattern's partition is empty; if
    a triple matching it arrives later, *its* entry finds ``triples``
    already stored.
    """
    seed, before, after, steps, _ = entry
    if before and not all(map(store.has_predicate, before)):
        return ()
    rows = match_triples(seed, triples)
    if not rows or after and not all(map(store.has_predicate, after)):
        return ()
    for states in steps:
        if not rows:
            break
        rows = join_rows(store, states, rows)
    return rows


def has_row(store, steps: Sequence, rows: list[tuple], start: int = 0) -> bool:
    """Does some row survive ``steps[start:]``?

    Depth first, one row at a time, returning on the first witness —
    the existence probe behind DRed's support check.
    """
    if start == len(steps):
        return bool(rows)
    states = steps[start]
    if start == len(steps) - 1:
        return _extends(store, states, rows)
    for row in rows:
        if has_row(store, steps, extend_rows(store, states, [row]), start + 1):
            return True
    return False


def _extends(store, states, rows: list[tuple]) -> bool:
    """Does some row extend through a last step?  Without a repeated
    fresh variable, any stored triple matching a row's known positions
    does, so the store's ``has_match`` existence probe answers without
    building the extensions (``bool(match(...))`` on a store without
    one)."""
    fresh = [value for tag, value in states if tag == FREE]
    if len(set(fresh)) < len(fresh):
        return any(extend_rows(store, states, [row]) for row in rows)
    probe = getattr(store, "has_match", None) or store.match
    for row in rows:
        key = [
            None if tag == FREE else row[value] if tag == BOUND else value
            for tag, value in states
        ]
        if probe(*key):
            return True
    return False
