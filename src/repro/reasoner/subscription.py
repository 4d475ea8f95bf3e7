"""Standing BGP queries, maintained incrementally from revision deltas.

Polling the graph after every update throws away the information an
incremental reasoner computes for free: the delta.  A
:class:`Subscription` registers a conjunctive triple pattern (the same
BGP language as :mod:`repro.store.query`) and is re-evaluated against
each committed revision's :class:`~repro.reasoner.delta.InferenceReport`
— *incrementally*:

* **additions** — a standing BGP is a headless rule: at registration
  it compiles into an :class:`~repro.store.planner.IncrementalBGPPlan`
  on the rules' own compiled conjunction.  Each pattern matches the
  added triples *in encoded integer space*; each hit is a row that the
  other patterns extend over the store in a static most-bound order,
  so work scales with the delta and the body, not with the graph — and
  nothing is planned per revision;
* **removals** — a maintained solution dies iff one of its (fully
  instantiated, hence unique) supporting triples is in the revision's
  net-removed set; no re-join is needed because a net-removed triple is
  by definition absent from the new graph.  A *support index*
  (instantiated pattern triple → the solutions resting on it) turns
  that into one dictionary probe per removed triple, so a removal costs
  what it kills, not a pass over every maintained solution.

Events carry binding-level diffs (added / removed solutions); a
subscription whose patterns cannot match any delta triple is never
woken, so there are no spurious notifications.

>>> x = Variable("x")
>>> sub = reasoner.subscribe([(x, RDF.type, EX.Alert)], on_alert)
>>> ...                     # every commit with matching bindings fires
>>> sub.cancel()
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

from ..rdf.terms import Term, Triple, Variable
from ..store.graph import Graph
from ..store.planner import IncrementalBGPPlan
from ..store.query import Binding, TriplePattern
from .delta import InferenceReport

__all__ = ["Subscription", "SubscriptionEvent"]


def _key(binding: Binding) -> frozenset:
    """A solution as a hashable key (order-free set of (variable, term))."""
    return frozenset(binding.items())


class SubscriptionEvent:
    """One notification: the binding-level diff of one revision."""

    __slots__ = ("revision", "added", "removed")

    def __init__(
        self,
        revision: int,
        added: tuple[Binding, ...],
        removed: tuple[Binding, ...],
    ):
        self.revision = revision
        self.added = added
        self.removed = removed

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)

    def __repr__(self):
        return (
            f"<SubscriptionEvent rev={self.revision} "
            f"+{len(self.added)} -{len(self.removed)} bindings>"
        )


class Subscription:
    """A standing BGP over the reasoner's closure.

    Created through :meth:`~repro.reasoner.engine.Slider.subscribe`; the
    current solution set is materialized once at registration, then
    maintained from deltas.  With a ``callback`` the subscription pushes
    each :class:`SubscriptionEvent` synchronously from the committing
    thread; without one, events queue on :attr:`events` for polling via
    :meth:`drain`.  A callback exception is captured on :attr:`error`
    (the engine is never poisoned by a subscriber).
    """

    def __init__(
        self,
        patterns: Sequence[TriplePattern],
        callback: Callable[[SubscriptionEvent], None] | None = None,
        graph: Term | None = None,
    ):
        patterns = tuple(tuple(p) for p in patterns)
        for pattern in patterns:
            if len(pattern) != 3:
                raise ValueError(f"patterns must be (s, p, o) triples, got {pattern!r}")
        if not patterns:
            raise ValueError("a subscription needs at least one pattern")
        self.patterns: tuple[TriplePattern, ...] = patterns
        self.callback = callback
        #: Named-graph delivery filter: when set, only revisions whose
        #: delta targeted this graph are folded in (tenant isolation).
        self.graph = graph
        self.active = True
        #: The revision the initial solution set was materialized at
        #: (set by the engine under the commit lock during registration).
        self.seeded_revision = 0
        self.error: BaseException | None = None
        self.events: list[SubscriptionEvent] = []
        self._lock = threading.Lock()
        #: Solution key → (admission rank, binding).  Ranks order a
        #: revision's dead solutions oldest-first without a scan.
        self._solutions: dict[frozenset, tuple[int, Binding]] = {}
        self._admitted = 0
        #: The support index: every instantiated pattern triple of every
        #: live solution → the keys of the solutions resting on it.
        self._support: dict[tuple[Term, Term, Term], dict[frozenset, None]] = {}
        #: The BGP as a headless rule: its full evaluation seeds the
        #: solutions, its compiled conjunction folds each delta in.
        self._plan = IncrementalBGPPlan(self.patterns)
        # Constant predicates let the delta be filtered in integer space
        # before decoding; any variable predicate disables the filter.
        predicates = [p[1] for p in patterns]
        self._predicates: tuple[Term, ...] | None = (
            None
            if any(isinstance(p, Variable) for p in predicates)
            else tuple(dict.fromkeys(predicates))
        )
        self._predicate_set: frozenset[Term] | None = (
            None if self._predicates is None else frozenset(self._predicates)
        )

    def _wants(self, touched: frozenset[Term]) -> bool:
        """Can a revision touching exactly ``touched`` predicates change
        this subscription's solutions?  O(min(|touched|, |patterns|)) —
        the engine's routing check, run for every subscription on every
        commit, so it must stay trivially cheap."""
        return self._predicate_set is None or not touched.isdisjoint(
            self._predicate_set
        )

    # --- lifecycle ---------------------------------------------------------
    def cancel(self) -> None:
        """Stop receiving events; the engine prunes cancelled entries."""
        self.active = False

    def drain(self) -> list[SubscriptionEvent]:
        """Pop and return all queued events (callback-less mode)."""
        with self._lock:
            events, self.events = self.events, []
        return events

    @property
    def solutions(self) -> list[Binding]:
        """A copy of the currently maintained solution set."""
        with self._lock:
            return [dict(s) for _rank, s in self._solutions.values()]

    # --- engine side -------------------------------------------------------
    def _seed(self, graph: Graph) -> None:
        """Materialize the initial solution set (no event is emitted) and
        compile the conjunction the deltas fold in through."""
        with self._lock:
            self._plan.compile(graph)
            self._solutions.clear()
            self._support.clear()
            for solution in self._plan.solutions(graph):
                self._admit(solution)

    def _deliver(self, report: InferenceReport, graph: Graph) -> SubscriptionEvent | None:
        """Fold one revision's delta in; return the binding diff (or None)."""
        added_encoded = report.added_matching_encoded(self._predicates)
        removed_triples = report.removed_matching(self._predicates)
        if not added_encoded and not removed_triples:
            return None

        with self._lock:
            removed_bindings = self._fold_removals(removed_triples)
            added_bindings = self._fold_additions(added_encoded, graph)
        if not removed_bindings and not added_bindings:
            return None
        event = SubscriptionEvent(
            report.revision, tuple(added_bindings), tuple(removed_bindings)
        )
        self._emit(event)
        return event

    def _admit(self, solution: Binding) -> bool:
        """Index one solution; False when it is already maintained."""
        key = _key(solution)
        if key in self._solutions:
            return False
        self._admitted += 1
        self._solutions[key] = (self._admitted, solution)
        support = self._support
        for triple in self._supporting(solution):
            support.setdefault(triple, {})[key] = None
        return True

    def _supporting(self, solution: Binding) -> list[tuple[Term, Term, Term]]:
        """The pattern triples ``solution`` instantiates (its support)."""
        bound = solution.get  # variables substitute, constants stand
        return [(bound(s, s), bound(p, p), bound(o, o)) for s, p, o in self.patterns]

    def _fold_removals(self, removed_triples: Iterable[Triple]) -> list[Binding]:
        support = self._support
        dead: list[tuple[int, Binding]] = []
        for removed in removed_triples:
            for key in support.pop(tuple(removed), ()):
                entry = self._solutions.pop(key)
                dead.append(entry)
                for triple in self._supporting(entry[1]):
                    resting = support.get(triple)
                    if resting is not None:
                        resting.pop(key, None)
                        if not resting:
                            del support[triple]
        dead.sort(key=lambda entry: entry[0])
        return [solution for _rank, solution in dead]

    def _fold_additions(
        self, added_encoded: Sequence[tuple[int, int, int]], graph: Graph
    ) -> list[Binding]:
        if not added_encoded:
            return []
        return [
            solution
            for solution in self._plan.additions(graph, added_encoded)
            if self._admit(solution)
        ]

    def _emit(self, event: SubscriptionEvent) -> None:
        if self.callback is None:
            with self._lock:
                self.events.append(event)
            return
        try:
            self.callback(event)
        except Exception as error:  # noqa: BLE001 - isolate subscriber bugs
            self.error = error

    def __repr__(self):
        state = "active" if self.active else "cancelled"
        return (
            f"<Subscription {state} patterns={len(self.patterns)} "
            f"solutions={len(self._solutions)}>"
        )
