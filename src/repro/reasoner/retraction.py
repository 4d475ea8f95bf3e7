"""Incremental retraction: the DRed (delete-and-rederive) algorithm.

The paper's related work (§1) notes that most stream-reasoning systems
"limit the amount of data in the knowledge base by eliminating former
triples" — but Slider itself only adds.  This module supplies the
missing operation as the classic DRed algorithm (Gupta, Mumick &
Subrahmanian, SIGMOD'93), adapted to the engine's rule framework:

1. **Over-delete.**  Starting from the explicitly retracted triples,
   repeatedly apply every rule with the deletion frontier as the delta
   (against the *pre-deletion* store): anything derivable *from* a
   deleted triple is a candidate.  Explicitly asserted triples are
   immune — an assertion never depends on a derivation.
2. **Delete** the whole over-estimate from the store.
3. **Re-derive.**  Some candidates are still supported by the surviving
   triples through other derivations.  Each candidate is *probed*, not
   recomputed: it is unified with the head of every rule that could
   produce its predicate and :meth:`~repro.reasoner.rules.Rule.supports`
   looks for one body instantiation of that very triple in the
   post-deletion store (most-bound pattern first, first witness wins —
   for cax-sco on ``<x type c2>`` that is ``match(?, subClassOf, c2)``
   plus a membership probe of ``<x type c1>``).  Supported candidates
   are re-added and seed the ordinary delta joins, which restore any
   support that runs through another re-derived triple; what they put
   back then propagates through the engine's dispatch.

The cost of a retraction is therefore O(|over-deleted| × fan-in of the
probed patterns), independent of the size of the store.  The
over-estimate itself (phase 1) is unchanged and still decides how many
candidates there are to probe.

Correctness (pinned by property tests): for any ontology A and any
subset B ⊆ A, ``materialize(A); retract(B)`` leaves exactly
``closure(A \\ B)`` in the store.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..dictionary.encoder import EncodedTriple
from ..store.backends.base import TripleStore
from .rules import OutputBuffer, Rule, apply_rule_into, derive_all
from .vocabulary import Vocabulary

__all__ = ["dred_retract"]


def _rules_producing(rules: Sequence[Rule], predicates: set[int]) -> list[Rule]:
    """Rules whose head could produce a triple with one of ``predicates``."""
    relevant = []
    for rule in rules:
        outputs = rule.output_predicates
        if outputs is None or outputs & predicates:
            relevant.append(rule)
    return relevant


def dred_retract(
    store: TripleStore,
    rules: Sequence[Rule],
    vocab: Vocabulary,
    explicit: set[EncodedTriple],
    retracted: Iterable[EncodedTriple],
    redispatch: Callable[[list[EncodedTriple]], None] | None = None,
) -> tuple[list[EncodedTriple], list[EncodedTriple], int]:
    """Run DRed over ``store``.  Returns ``(deleted, re-derived, probes)``.

    The first list holds every triple phase 2 actually removed from the
    store, the second every triple phase 3 put back — the engine's
    change log nets the two into the revision's exact removal set.
    ``probes`` counts the head-bound support checks phase 3 ran: the
    retraction's cost in units that do not depend on the store's size.

    ``explicit`` is the live set of asserted triples; the retracted ones
    are removed from it.  ``redispatch`` (the engine's dispatcher) is
    called with the re-derived seeds so their consequences propagate
    incrementally; pass ``None`` for store-only use (the caller must
    then reach the fixpoint itself — the batch tests do).
    """
    frontier = [t for t in dict.fromkeys(retracted) if t in store]
    if not frontier:
        return ([], [], 0)
    for triple in frontier:
        explicit.discard(triple)

    # Phase 1: over-delete (against the still-intact store).  One reusable
    # output buffer serves every round; it also dedups across rules, so a
    # candidate derived by two rules is filtered once here rather than
    # twice downstream.  The over-estimate is kept in discovery order,
    # which makes phase 3's seed order (and so the whole retraction)
    # deterministic.
    scratch = OutputBuffer()
    overdeleted: dict[EncodedTriple, None] = dict.fromkeys(frontier)
    while frontier:
        for rule in rules:
            apply_rule_into(rule, store, frontier, vocab, scratch)
        candidates = scratch.take()
        frontier = [
            t
            for t in candidates
            if t in store and t not in overdeleted and t not in explicit
        ]
        overdeleted.update(dict.fromkeys(frontier))

    # Phase 2: delete the over-estimate.
    deleted = store.remove_all(overdeleted)

    # Phase 3: re-derive survivors.  A candidate with one surviving body
    # instantiation under some producing rule is put back; its
    # consequences then flow through the normal incremental path.
    producers = _rules_producing(rules, {t[1] for t in overdeleted})
    outputs = [rule.output_predicates for rule in producers]
    evaluated: dict[int, set[EncodedTriple]] = {}

    def supported(rule: Rule, triple: EncodedTriple) -> bool:
        check = getattr(rule, "supports", None)
        if check is not None:
            return check(store, triple, vocab)
        # A duck-typed rule exposing only apply() has no head to unify
        # the candidate with: evaluate it once over the surviving store.
        derived = evaluated.get(id(rule))
        if derived is None:
            derived = evaluated[id(rule)] = set(derive_all(rule, store, vocab))
        return triple in derived

    probes = 0
    seeds: list[EncodedTriple] = []
    for triple in overdeleted:
        for rule, produced in zip(producers, outputs):
            if produced is not None and triple[1] not in produced:
                continue
            probes += 1
            if supported(rule, triple):
                seeds.append(triple)
                break
    rederived = store.add_all(seeds)
    pending = set(overdeleted).difference(rederived)
    # Re-added triples may support further pending candidates; propagate
    # incrementally (delta joins) until the re-derivation frontier dries.
    frontier = list(rederived)
    while frontier and pending:
        for rule in producers:
            apply_rule_into(rule, store, frontier, vocab, scratch)
        found = [triple for triple in scratch.take() if triple in pending]
        frontier = store.add_all(found)
        pending.difference_update(frontier)
        rederived.extend(frontier)

    if redispatch is not None and rederived:
        redispatch(rederived)
    return (deleted, rederived, probes)
