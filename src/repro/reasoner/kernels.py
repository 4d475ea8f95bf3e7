"""Compiled rule firings: positional plans instead of binding dicts.

The textbook inner loop of Algorithm 1 (:meth:`JoinRule._half_join`)
matches each new triple into a binding dict, derives a lookup key,
re-matches every stored partner to extend the binding and instantiates
the head from it — per-triple interpreter work on the hottest path of
the reasoner.

This module compiles every rule body once into a positional program —
constants to check, slots to join on, how to build the head — so a
firing is index probes and tuple indexing only:

* :class:`HalfJoinPlan` — one direction of a two-pattern body.  Each
  pass picks its kernel by operand cardinality:

  - **galloping merge join** (columnar stores): the partner partition
    is a sorted ``memoryview`` column of the mapped snapshot, so the
    batch is sorted by join key and intersected with the column by
    exponential (galloping) search — no partner materialization;
  - **hash join** (batches of at least :data:`KERNEL_MIN_BATCH`, the
    partition at most 64x the batch): fetch the stored partition once,
    group it by join key, stream the batch through dict lookups;
  - **positional probe loop** (everything else): one index probe per
    new triple keyed straight from its positions — ``objects`` or
    ``subjects`` for one bound slot, a membership test for two, and
    ``match`` when the stored side's predicate is itself a variable
    (the schema directions of rdfs2/3/7, prp-symp, prp-inv, eq-rep).

* :class:`ProjectionPlan` — a one-pattern body: filter the batch by
  constant and repeated-variable checks, then project each survivor
  onto the head.

Every plan applies the same RDF well-formedness guards as
``Rule._emit``, so the derived closure is identical triple-for-triple
to the binding-dict interpreter, which remains for goal-directed
(:meth:`Rule.supports`) and whole-store (``derive_all``) evaluation
and for plan-less custom rules.

Snapshotting the partner partition at firing start is as complete as
live probing: a partner inserted mid-pass is routed to this rule
itself, and *its* half-join finds today's batch already in the store
(the same argument that justifies the empty-partition short-circuit).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Sequence

from ..dictionary.encoder import EncodedTriple

__all__ = [
    "KERNEL_MIN_BATCH",
    "HalfJoinPlan",
    "ProjectionPlan",
    "compile_half_join",
    "compile_projection",
    "gallop_left",
    "intersect_sorted",
]

#: Below this (filtered) batch size a pass probes per triple instead of
#: building a partition index.
KERNEL_MIN_BATCH = 8

#: Skip the hash kernel when the stored partition is more than this many
#: times larger than the batch — per-triple probes touch less of it.
_INDEX_MAX_RATIO = 64

# Probe-key slot kinds.
_CONST = 0   # value is the constant itself
_NEW = 1     # value indexes the new triple (0..2)
_FREE = 2    # slot left open (value is None)


def gallop_left(column, value, lo: int, hi: int) -> int:
    """Leftmost index in sorted ``column[lo:hi]`` with ``column[i] >= value``.

    Exponential (galloping) search: doubles the probe distance from
    ``lo`` before binary-searching the bracketed window — O(log d) for a
    partner d positions ahead, which is what makes a merge join over a
    long sorted column proportional to the *output*, not the column.
    """
    if lo >= hi or column[lo] >= value:
        return lo
    step = 1
    while lo + step < hi and column[lo + step] < value:
        step <<= 1
    return bisect_left(column, value, lo + (step >> 1) + 1, min(lo + step, hi))


def intersect_sorted(a, b) -> list:
    """Galloping intersection of two sorted, duplicate-free sequences.

    Works over any indexable sequence — lists, arrays, or the
    ``memoryview`` id columns of a mapped columnar snapshot.
    """
    out: list = []
    i, j = 0, 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        va, vb = a[i], b[j]
        if va == vb:
            out.append(va)
            i += 1
            j += 1
        elif va < vb:
            i = gallop_left(a, vb, i + 1, len_a)
        else:
            j = gallop_left(b, va, j + 1, len_b)
    return out


class HalfJoinPlan:
    """One compiled half-join direction of a two-pattern rule body.

    Positional program: every check and probe key is a (slot, value)
    pair and the head a :class:`HeadTemplate` projection — no binding
    dicts, no pattern re-matching.  Built once per rule by
    :func:`compile_half_join`; ``execute`` runs one firing's batch,
    whatever its size.

    ``store_pred`` is ``None`` when the stored side's predicate is a
    variable: partners are then whole triples fetched by ``match`` and
    every partner index is a triple position; otherwise partners are
    ``(subject, object)`` pairs of the one stored partition.
    """

    __slots__ = (
        "store_pred",
        "new_pred",
        "new_checks",
        "new_eq",
        "partner_checks",
        "partner_eq",
        "probe",
        "key",
        "head",
    )

    def __init__(self, store_pred, new_pred, new_checks, new_eq,
                 partner_checks, partner_eq, probe, key, head):
        self.store_pred = store_pred
        self.new_pred = new_pred
        self.new_checks = tuple(new_checks)
        self.new_eq = tuple(new_eq)
        self.partner_checks = tuple(partner_checks)
        self.partner_eq = tuple(partner_eq)
        self.probe = tuple(probe)
        self.key = tuple(key)
        self.head = head

    def _partner_ok(self, pair) -> bool:
        for ppos, val in self.partner_checks:
            if pair[ppos] != val:
                return False
        for i, j in self.partner_eq:
            if pair[i] != pair[j]:
                return False
        return True

    def _emit(self, t, partners, is_literal, out) -> None:
        """Emit the head instance of ``t`` joined with each partner."""
        head = self.head
        project, guarded, emit = head.project, head.guarded, out.emit
        ext = t + head.consts
        for partner in partners:
            triple = project(ext + partner)
            for pos in guarded:
                if is_literal(triple[pos]):
                    break
            else:
                emit(triple)

    # --- execution ---------------------------------------------------------
    def execute(self, store, new_triples, is_literal, out) -> None:
        """Run one firing batch, picking the kernel by cardinality."""
        batch = _filter(new_triples, self.new_pred, self.new_checks, self.new_eq)
        if not batch or self.head.never(is_literal):
            return  # nothing can join, or no head instance is valid RDF
        if self.store_pred is None:
            self._match_loop(store, batch, is_literal, out)
            return
        if not store.has_predicate(self.store_pred):
            return  # empty partition short-circuit, as in _half_join
        if len(batch) < KERNEL_MIN_BATCH:
            self._probe_loop(store, batch, is_literal, out)
            return
        partition = getattr(store, "pos_partition", None)
        if partition is not None and len(self.probe) == 1 and self.probe[0][0] == 1:
            self._merge_join_columnar(partition(self.store_pred), batch,
                                      is_literal, out)
        elif store.count_predicate(self.store_pred) > _INDEX_MAX_RATIO * len(batch):
            self._probe_loop(store, batch, is_literal, out)
        else:
            self._hash_join(store, batch, is_literal, out)

    def _probe_loop(self, store, batch, is_literal, out) -> None:
        """One index probe per new triple, keyed from its positions.

        The key's constants (the stored side's ground subject/object)
        are bound in the probe itself, so every partner it returns
        already passes ``_partner_ok``.
        """
        (ks, vs), (ko, vo) = self.key
        pred = self.store_pred
        emit = self._emit
        if ko == _FREE:  # subject bound (by the new triple): objects()
            objects = store.objects
            for t in batch:
                s = t[vs]
                emit(t, [(s, o) for o in objects(pred, s)], is_literal, out)
        elif ks == _FREE:  # object bound: subjects()
            subjects = store.subjects
            for t in batch:
                o = t[vo]
                emit(t, [(s, o) for s in subjects(pred, o)], is_literal, out)
        else:  # both bound: a membership test
            for t in batch:
                s = vs if ks == _CONST else t[vs]
                o = vo if ko == _CONST else t[vo]
                if (s, pred, o) in store:
                    emit(t, ((s, o),), is_literal, out)

    def _match_loop(self, store, batch, is_literal, out) -> None:
        """Probe loop for a variable stored predicate: ``match`` per triple."""
        key = self.key
        partner_eq = self.partner_eq
        match = store.match
        for t in batch:
            partners = match(*[t[v] if k == _NEW else v for k, v in key])
            if partner_eq:
                partners = [p for p in partners if self._partner_ok(p)]
            self._emit(t, partners, is_literal, out)

    def _hash_join(self, store, batch, is_literal, out) -> None:
        """Group the stored partition by join key, stream the batch through."""
        probe = self.probe
        index: dict = {}
        if len(probe) == 1:
            ppos, new_pos = probe[0]
            for pair in store.pairs_for_predicate(self.store_pred):
                if self._partner_ok(pair):
                    index.setdefault(pair[ppos], []).append(pair)
            for t in batch:
                partners = index.get(t[new_pos])
                if partners:
                    self._emit(t, partners, is_literal, out)
            return
        for pair in store.pairs_for_predicate(self.store_pred):
            if self._partner_ok(pair):
                key = tuple(pair[ppos] for ppos, _ in probe)
                index.setdefault(key, []).append(pair)
        for t in batch:
            partners = index.get(tuple(t[new_pos] for _, new_pos in probe))
            if partners:
                self._emit(t, partners, is_literal, out)

    def _merge_join_columnar(self, partition, batch, is_literal, out) -> None:
        """Gallop the sorted batch along the mapped partition columns.

        ``partition`` is ``(o_col, s_col, lo, hi)`` — the predicate's
        span of the POS ordering, sorted by object then subject, served
        as zero-copy ``memoryview`` windows.  The batch is sorted by its
        probe value, so the cursor only ever moves forward.
        """
        o_col, s_col, lo, hi = partition
        _, new_pos = self.probe[0]
        batch = sorted(batch, key=lambda t: t[new_pos])
        partner_ok = self._partner_ok
        for t in batch:
            value = t[new_pos]
            lo = gallop_left(o_col, value, lo, hi)
            i = lo
            partners = []
            while i < hi and o_col[i] == value:
                pair = (s_col[i], value)
                if partner_ok(pair):
                    partners.append(pair)
                i += 1
            self._emit(t, partners, is_literal, out)


def compile_half_join(new_side, store_side, head) -> HalfJoinPlan | None:
    """Compile one half-join direction into a plan, or ``None``.

    ``None`` means the body is cartesian (no slot of the stored side is
    bound by the new triple): such a direction stays on the classic
    loop.  No built-in fragment declares one.  Import is deferred by
    the caller; this function only needs the pattern structure.
    """
    from .rules import Var  # local import: rules imports this module

    new_pred, new_checks, new_eq, new_vars = _compile_new_side(new_side)

    store_pred = store_side.predicate
    if isinstance(store_pred, Var):
        store_pred = None
        slots = tuple(store_side)  # partners are whole triples
    else:
        slots = (store_side.subject, store_side.object)  # (s, o) pairs

    partner_checks: list = []
    partner_eq: list = []
    probe: list = []
    key: list = []
    partner_vars: dict = {}
    for ppos, slot in enumerate(slots):
        if not isinstance(slot, Var):
            partner_checks.append((ppos, slot))
            key.append((_CONST, slot))
        elif slot.name in new_vars:
            probe.append((ppos, new_vars[slot.name]))
            key.append((_NEW, new_vars[slot.name]))
        else:
            first = partner_vars.setdefault(slot.name, ppos)
            if first != ppos:
                partner_eq.append((first, ppos))
            key.append((_FREE, None))
    if not probe:
        return None  # cartesian body: stay on the classic loop

    return HalfJoinPlan(
        store_pred, new_pred, new_checks, new_eq,
        partner_checks, partner_eq, probe, key,
        HeadTemplate.compile(head, new_vars, partner_vars),
    )


class HeadTemplate:
    """A head compiled to a projection of the firing's positional inputs.

    A head instance is ``project(t + consts + partner)``: one
    ``itemgetter`` over the new triple, the head's constants and (for a
    join) the partner — two C calls per instance, no binding dict.
    The RDF well-formedness guards of ``Rule._emit`` split the same way:
    a constant subject or predicate is checked once per firing
    (:meth:`never`), a variable one per instance (``guarded``).
    """

    __slots__ = ("consts", "project", "guarded", "fixed")

    def __init__(self, consts, positions, guarded, fixed):
        self.consts = tuple(consts)
        self.project = itemgetter(*positions)
        self.guarded = tuple(guarded)
        self.fixed = tuple(fixed)

    def never(self, is_literal) -> bool:
        """True when a constant subject or predicate is a literal."""
        return any(is_literal(term) for term in self.fixed)

    @classmethod
    def compile(cls, head, new_vars: dict, partner_vars: dict | None = None):
        """Compile ``head`` against the body's variable positions.

        ``Rule`` rejects a head variable the body does not bind, and a
        probed stored-side variable is, by construction, also a new-side
        one, so every head variable resolves through ``new_vars`` or
        ``partner_vars``.
        """
        from .rules import Var  # local import: rules imports this module

        slots = tuple(head)
        consts = [slot for slot in slots if not isinstance(slot, Var)]
        partner_base = 3 + len(consts)
        positions: list = []
        for slot in slots:
            if not isinstance(slot, Var):
                positions.append(3 + consts.index(slot))
            elif slot.name in new_vars:
                positions.append(new_vars[slot.name])
            else:
                positions.append(partner_base + partner_vars[slot.name])
        guarded = [pos for pos in (0, 1) if isinstance(slots[pos], Var)]
        fixed = [slot for slot in slots[:2] if not isinstance(slot, Var)]
        return cls(consts, positions, guarded, fixed)


class ProjectionPlan:
    """A compiled one-pattern body: batch filters plus a head template."""

    __slots__ = ("new_pred", "new_checks", "new_eq", "head")

    def __init__(self, new_pred, new_checks, new_eq, head: HeadTemplate):
        self.new_pred = new_pred
        self.new_checks = tuple(new_checks)
        self.new_eq = tuple(new_eq)
        self.head = head

    def execute(self, new_triples, is_literal, out) -> None:
        """Emit the head instance of every new triple matching the body.

        Same order as ``Rule._emit``: dedup first, then the guards.
        """
        batch = _filter(new_triples, self.new_pred, self.new_checks, self.new_eq)
        head = self.head
        if not batch or head.never(is_literal):
            return
        project, consts, guarded = head.project, head.consts, head.guarded
        for triple in [project(t + consts) for t in batch]:
            if triple in out:
                continue
            for pos in guarded:
                if is_literal(triple[pos]):
                    break
            else:
                out.emit(triple)


def compile_projection(pattern, head) -> ProjectionPlan:
    """Compile a one-pattern body and its head into a :class:`ProjectionPlan`."""
    new_pred, new_checks, new_eq, new_vars = _compile_new_side(pattern)
    return ProjectionPlan(
        new_pred, new_checks, new_eq, HeadTemplate.compile(head, new_vars)
    )


def _compile_new_side(pattern):
    """``(predicate, constant checks, repeated-variable checks, vars)``
    for the pattern a new triple must match; ``vars`` maps each variable
    name to its first position."""
    from .rules import Var  # local import: rules imports this module

    checks: list = []
    eq: list = []
    variables: dict = {}
    predicate = None
    for pos, slot in enumerate(pattern):
        if isinstance(slot, Var):
            first = variables.setdefault(slot.name, pos)
            if first != pos:
                eq.append((first, pos))
        elif pos == 1:
            predicate = slot
        else:
            checks.append((pos, slot))
    return predicate, checks, eq, variables


def _filter(
    new_triples: Sequence[EncodedTriple], predicate, checks, eq
) -> list[EncodedTriple]:
    """The new triples passing a compiled new side's checks, in order."""
    batch = new_triples
    if predicate is not None:
        batch = [t for t in batch if t[1] == predicate]
    for pos, val in checks:
        batch = [t for t in batch if t[pos] == val]
    for i, j in eq:
        batch = [t for t in batch if t[i] == t[j]]
    return batch if isinstance(batch, list) else list(batch)
