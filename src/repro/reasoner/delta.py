"""The delta-centric transaction API: deltas, transactions, reports.

Slider computes *what changed* on every update anyway — that is the
whole point of incremental maintenance.  This module makes that
information a first-class part of the public API (in the spirit of
query answering under updates, Berkholz et al., PODS'17):

* :class:`Delta` — one batch of mutations (assertions + retractions),
  net-normalized: a triple both asserted and retracted in the same
  delta cancels out to a no-op.
* :func:`net_deltas` — folds a *sequence* of deltas (independent
  submissions drained together) into one, last-writer-wins in arrival
  order; the one netting rule every batched commit path shares.
* :class:`Transaction` — the ``with reasoner.transaction() as tx:``
  builder collecting ``tx.add(...)`` / ``tx.retract(...)`` calls into a
  single :class:`Delta`, committed atomically on exit.
* :class:`InferenceReport` — the structured result of committing a
  revision: exactly which triples entered the store (explicit vs
  inferred), which left it under DRed retraction, re-derivation counts,
  per-rule-module timings, and a monotonically increasing revision id.
  The triple sets are decoded lazily, so a report over a million-triple
  load costs nothing until someone looks at the triples themselves.
* :class:`Ticket` — the handle returned by
  :meth:`~repro.reasoner.engine.Slider.flush_async`, resolved with the
  revision's report once the barrier completes.
* :class:`ChangeLog` — the engine-internal accumulator that every store
  mutation funnels through; it nets additions against removals so a
  report's diff is exactly ``graph(revision n) - graph(revision n-1)``.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Iterable

from ..dictionary.encoder import EncodedTriple, TermDictionary
from ..rdf.terms import BNode, IRI, Quad, Term, Triple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from .engine import Slider

__all__ = ["Delta", "net_deltas", "Transaction", "InferenceReport", "Ticket", "ChangeLog"]


def _as_statements(
    statements: "Iterable[Triple | Quad] | Triple | Quad",
    graphs_seen: set,
) -> list[Triple]:
    """Normalize a mixed Triple/Quad batch into triples.

    Quads contribute their graph label to ``graphs_seen`` (``None`` for
    default-graph quads); bare triples are graph-agnostic and adopt the
    delta's graph.  The caller reconciles ``graphs_seen`` against the
    explicit ``graph=`` argument — a delta targets exactly one graph.
    """
    if isinstance(statements, (Triple, Quad)):
        statements = [statements]
    items: list[Triple] = []
    for item in statements:
        if isinstance(item, Quad):
            graphs_seen.add(item.graph)
            items.append(item.triple())
        elif isinstance(item, Triple):
            items.append(item)
        else:
            raise TypeError(
                f"deltas take Triples or Quads, got {type(item).__name__}: {item!r}"
            )
    return items


class Delta:
    """One batch of mutations: triples to assert and triples to retract.

    Deltas are *net-normalized* on construction: duplicates are dropped
    (first occurrence wins, order preserved) and a triple appearing on
    both sides cancels entirely — asserting and retracting the same
    triple within one transaction is a no-op, regardless of call order.

    A delta targets exactly one graph of the RDF dataset: ``graph=None``
    (the default graph, fully backward compatible) or one named graph
    (:class:`~repro.rdf.terms.IRI` / :class:`~repro.rdf.terms.BNode`
    label).  :class:`~repro.rdf.terms.Quad` statements are accepted on
    either side; their graph labels must agree with each other and with
    ``graph=`` when given (default-graph quads adopt the delta's graph,
    like bare triples do).
    """

    __slots__ = ("assertions", "retractions", "graph")

    def __init__(
        self,
        assertions: "Iterable[Triple | Quad] | Triple | Quad" = (),
        retractions: "Iterable[Triple | Quad] | Triple | Quad" = (),
        graph: "IRI | BNode | None" = None,
    ):
        if graph is not None and not isinstance(graph, (IRI, BNode)):
            raise TypeError(
                f"delta graph must be IRI, BNode or None, got {type(graph).__name__}"
            )
        graphs_seen: set = set()
        adds = list(dict.fromkeys(_as_statements(assertions, graphs_seen)))
        rems = list(dict.fromkeys(_as_statements(retractions, graphs_seen)))
        graphs_seen.discard(None)  # default-graph quads adopt the delta's graph
        if len(graphs_seen) > 1:
            labels = ", ".join(sorted(g.n3() for g in graphs_seen))
            raise ValueError(
                f"a delta targets exactly one graph; quads span: {labels}"
            )
        if graphs_seen:
            quad_graph = next(iter(graphs_seen))
            if graph is not None and graph != quad_graph:
                raise ValueError(
                    f"delta graph {graph.n3()} conflicts with quad graph "
                    f"{quad_graph.n3()}"
                )
            graph = quad_graph
        common = set(adds) & set(rems)
        if common:
            adds = [t for t in adds if t not in common]
            rems = [t for t in rems if t not in common]
        self.assertions: tuple[Triple, ...] = tuple(adds)
        self.retractions: tuple[Triple, ...] = tuple(rems)
        self.graph: "IRI | BNode | None" = graph

    def __bool__(self) -> bool:
        return bool(self.assertions or self.retractions)

    def __len__(self) -> int:
        return len(self.assertions) + len(self.retractions)

    def __repr__(self):
        scope = f" graph={self.graph.n3()}" if self.graph is not None else ""
        return (
            f"<Delta +{len(self.assertions)} -{len(self.retractions)}{scope}>"
        )


def net_deltas(
    deltas: "Iterable[Delta]", graph: "IRI | BNode | None" = None
) -> Delta:
    """Fold independently submitted deltas into one, in arrival order.

    Netting is **last-writer-wins** — exactly the state a sequential
    execution of the submissions would reach:

    * a retraction cancels any earlier assertion of the same triple (and
      stands, in case the triple is already stored);
    * an assertion cancels any earlier retraction and stands.

    This is deliberately *not* ``Delta``'s symmetric cancellation: with
    independent callers, "A asserted t, then B retracted t" must end
    with t absent even if t predates the batch, so order decides.

    The result targets one graph: ``graph`` and the deltas' own labels
    must agree (unlabelled deltas adopt the label, like bare triples in
    a ``Delta``).
    """
    assertions: dict[Triple, None] = {}
    retractions: dict[Triple, None] = {}
    graphs = {graph}
    for delta in deltas:
        if not isinstance(delta, Delta):
            raise TypeError(f"net_deltas takes Deltas, got {type(delta).__name__}")
        graphs.add(delta.graph)
        for triple in delta.retractions:
            assertions.pop(triple, None)
            retractions[triple] = None
        for triple in delta.assertions:
            retractions.pop(triple, None)
            assertions[triple] = None
    graphs.discard(None)
    if len(graphs) > 1:
        labels = ", ".join(sorted(g.n3() for g in graphs))
        raise ValueError(f"a netted batch targets exactly one graph; got: {labels}")
    return Delta(tuple(assertions), tuple(retractions), graph=next(iter(graphs), None))


class Transaction:
    """Collects mutations and commits them as one :class:`Delta`.

    >>> with reasoner.transaction() as tx:
    ...     tx.add(new_triples)
    ...     tx.retract(stale_triples)
    >>> tx.report.inferred_added_count

    The commit happens on clean ``with``-block exit (or via an explicit
    :meth:`commit`); an exception inside the block, or :meth:`abort`,
    discards the transaction without touching the engine.  After the
    commit, :attr:`report` carries the revision's
    :class:`InferenceReport`.
    """

    __slots__ = (
        "_reasoner", "_assertions", "_retractions", "_graph", "_graphs_seen",
        "_state", "_report",
    )

    def __init__(self, reasoner: "Slider", graph: "IRI | BNode | None" = None):
        self._reasoner = reasoner
        self._assertions: list[Triple] = []
        self._retractions: list[Triple] = []
        self._graph = graph
        self._graphs_seen: set = set()
        self._state = "open"
        self._report: InferenceReport | None = None

    # --- building ---------------------------------------------------------
    def add(self, triples: "Iterable[Triple | Quad] | Triple | Quad") -> "Transaction":
        """Stage assertions (triples or quads); returns self for chaining."""
        self._require_open()
        self._assertions.extend(_as_statements(triples, self._graphs_seen))
        return self

    def retract(self, triples: "Iterable[Triple | Quad] | Triple | Quad") -> "Transaction":
        """Stage retractions (triples or quads); returns self for chaining."""
        self._require_open()
        self._retractions.extend(_as_statements(triples, self._graphs_seen))
        return self

    def delta(self) -> Delta:
        """The net-normalized delta staged so far."""
        graph = self._graph
        named = {g for g in self._graphs_seen if g is not None}
        if named:
            if len(named) > 1 or (graph is not None and graph not in named):
                labels = sorted(g.n3() for g in named | ({graph} if graph else set()))
                raise ValueError(
                    f"a transaction targets exactly one graph; saw: {', '.join(labels)}"
                )
            graph = next(iter(named))
        return Delta(self._assertions, self._retractions, graph=graph)

    # --- lifecycle --------------------------------------------------------
    def commit(self) -> "InferenceReport":
        """Apply the staged delta; returns (and stores) the report."""
        self._require_open()
        self._state = "committed"
        self._report = self._reasoner.apply(self.delta())
        return self._report

    def abort(self) -> None:
        """Discard the transaction; exiting the block will not commit."""
        self._require_open()
        self._state = "aborted"

    @property
    def state(self) -> str:
        """``"open"``, ``"committed"`` or ``"aborted"``."""
        return self._state

    @property
    def report(self) -> "InferenceReport | None":
        """The commit's :class:`InferenceReport` (``None`` until then)."""
        return self._report

    def _require_open(self) -> None:
        if self._state != "open":
            raise RuntimeError(f"transaction already {self._state}")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._state = "aborted"
        elif self._state == "open":
            self.commit()

    def __repr__(self):
        return (
            f"<Transaction {self._state} +{len(self._assertions)} "
            f"-{len(self._retractions)}>"
        )


class InferenceReport:
    """What one committed revision changed, exactly.

    The triple-level views (:attr:`explicit_added`, :attr:`inferred_added`,
    :attr:`removed`) are decoded from the engine's integer space on first
    access and cached; the ``*_count`` properties are always free.  The
    guarantee backing the whole delta API: the union of added triples
    minus the removed triples is precisely the set difference between the
    store at this revision and at the previous one.
    """

    __slots__ = (
        "revision",
        "seconds",
        "timings",
        "dred_deleted",
        "dred_rederived",
        "dred_probes",
        "graph",
        "_dictionary",
        "_explicit_encoded",
        "_inferred_encoded",
        "_removed_encoded",
        "_decoded",
        "_touched_predicates",
    )

    def __init__(
        self,
        revision: int,
        seconds: float,
        timings: dict[str, float],
        dictionary: TermDictionary,
        explicit_encoded: tuple[EncodedTriple, ...],
        inferred_encoded: tuple[EncodedTriple, ...],
        removed_encoded: tuple[EncodedTriple, ...],
        dred_deleted: int = 0,
        dred_rederived: int = 0,
        graph: "IRI | BNode | None" = None,
        dred_probes: int = 0,
    ):
        self.revision = revision
        self.seconds = seconds
        self.timings = timings
        self.dred_deleted = dred_deleted
        self.dred_rederived = dred_rederived
        #: Head-bound support checks DRed ran this revision (0 when the
        #: revision retracted nothing): retraction work in units that do
        #: not depend on the size of the store.
        self.dred_probes = dred_probes
        #: The graph the committed delta targeted (None = default graph).
        #: Inferred triples always land in the default graph — rule
        #: conclusions are dataset-wide — so this scopes the *explicit*
        #: side of the revision.
        self.graph = graph
        self._dictionary = dictionary
        self._explicit_encoded = explicit_encoded
        self._inferred_encoded = inferred_encoded
        self._removed_encoded = removed_encoded
        self._decoded: dict[str, tuple[Triple, ...]] = {}
        self._touched_predicates: frozenset[Term] | None = None

    # --- counts (always cheap) --------------------------------------------
    @property
    def explicit_added_count(self) -> int:
        return len(self._explicit_encoded)

    @property
    def inferred_added_count(self) -> int:
        return len(self._inferred_encoded)

    @property
    def added_count(self) -> int:
        return len(self._explicit_encoded) + len(self._inferred_encoded)

    @property
    def removed_count(self) -> int:
        return len(self._removed_encoded)

    @property
    def net_change(self) -> int:
        """Store-size delta of this revision (may be negative)."""
        return self.added_count - self.removed_count

    def __bool__(self) -> bool:
        """True iff the revision changed the store at all."""
        return bool(
            self._explicit_encoded or self._inferred_encoded or self._removed_encoded
        )

    # --- triple views (lazy) ----------------------------------------------
    def _decode(self, key: str, encoded: tuple[EncodedTriple, ...]) -> tuple[Triple, ...]:
        cached = self._decoded.get(key)
        if cached is None:
            decode = self._dictionary.decode_triple
            cached = self._decoded[key] = tuple(decode(t) for t in encoded)
        return cached

    @property
    def explicit_added(self) -> tuple[Triple, ...]:
        """Asserted triples that were new to the store."""
        return self._decode("explicit", self._explicit_encoded)

    @property
    def inferred_added(self) -> tuple[Triple, ...]:
        """Rule-derived triples that were new to the store."""
        return self._decode("inferred", self._inferred_encoded)

    @property
    def added(self) -> tuple[Triple, ...]:
        """All triples that entered the store (explicit + inferred)."""
        return self.explicit_added + self.inferred_added

    @property
    def removed(self) -> tuple[Triple, ...]:
        """Triples DRed removed and that were not re-derived."""
        return self._decode("removed", self._removed_encoded)

    # --- encoded views (zero-decode consumers: read views, replicas) --------
    @property
    def added_encoded(self) -> tuple[EncodedTriple, ...]:
        """All added triples in the engine's integer space (no decoding).

        Consumers that maintain derived state per revision — the server's
        snapshot read views, external replicas — fold diffs in integer
        space; term ids are stable for the lifetime of the dictionary.
        """
        return self._explicit_encoded + self._inferred_encoded

    @property
    def removed_encoded(self) -> tuple[EncodedTriple, ...]:
        """Net-removed triples in the engine's integer space."""
        return self._removed_encoded

    # --- filtered views (for subscriptions) --------------------------------
    def _filtered(
        self,
        encoded: Iterable[EncodedTriple],
        predicate_ids: set[int] | None,
    ) -> list[Triple]:
        decode = self._dictionary.decode_triple
        if predicate_ids is None:
            return [decode(t) for t in encoded]
        return [decode(t) for t in encoded if t[1] in predicate_ids]

    def _predicate_ids(self, predicates: Iterable[Term] | None) -> set[int] | None:
        if predicates is None:
            return None
        lookup = self._dictionary.lookup
        ids = {lookup(p) for p in predicates}
        ids.discard(None)
        return ids  # type: ignore[return-value]

    def removed_matching(self, predicates: Iterable[Term] | None = None) -> list[Triple]:
        """Removed triples whose predicate is in ``predicates`` (None = all)."""
        ids = self._predicate_ids(predicates)
        return self._filtered(self._removed_encoded, ids)

    def added_matching_encoded(
        self, predicates: Iterable[Term] | None = None
    ) -> list[EncodedTriple]:
        """Added triples matching the predicate filter, *without* decoding.

        The incremental subscription plans join deltas in integer space;
        handing them encoded triples keeps the whole maintenance path
        decode-free until final bindings are produced.
        """
        encoded = self._explicit_encoded + self._inferred_encoded
        ids = self._predicate_ids(predicates)
        if ids is None:
            return list(encoded)
        return [triple for triple in encoded if triple[1] in ids]

    def touched_predicates(self) -> frozenset[Term]:
        """The distinct predicate terms this revision added *or* removed.

        Cached after the first call: the engine uses it to route the
        revision to interested subscriptions only, so with thousands of
        standing queries a commit pays one decode pass over the delta's
        distinct predicates instead of one filter pass per subscription.
        """
        if self._touched_predicates is None:
            ids = {
                triple[1]
                for batch in (
                    self._explicit_encoded,
                    self._inferred_encoded,
                    self._removed_encoded,
                )
                for triple in batch
            }
            decode = self._dictionary.decode
            self._touched_predicates = frozenset(decode(i) for i in ids)
        return self._touched_predicates

    # --- serialization ------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serializable summary (counts + timings, no triples)."""
        return {
            "revision": self.revision,
            "seconds": self.seconds,
            "graph": self.graph.n3() if self.graph is not None else None,
            "explicit_added": self.explicit_added_count,
            "inferred_added": self.inferred_added_count,
            "removed": self.removed_count,
            "net_change": self.net_change,
            "dred_deleted": self.dred_deleted,
            "dred_rederived": self.dred_rederived,
            "dred_probes": self.dred_probes,
            "timings": dict(sorted(self.timings.items())),
        }

    def __repr__(self):
        return (
            f"<InferenceReport rev={self.revision} "
            f"+{self.explicit_added_count}e/+{self.inferred_added_count}i "
            f"-{self.removed_count} in {self.seconds:.3f}s>"
        )


class Ticket:
    """Handle for a pipelined (non-blocking) flush.

    Returned by :meth:`~repro.reasoner.engine.Slider.flush_async`; call
    :meth:`result` to wait for the barrier and get the revision's
    :class:`InferenceReport` (re-raising any engine error).
    """

    __slots__ = ("_event", "_report", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._report: InferenceReport | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Has the flush completed (successfully or not)?"""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> InferenceReport:
        """Block until the flush completes; return its report."""
        if not self._event.wait(timeout):
            raise TimeoutError("flush did not complete in time")
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report

    def _resolve(self, report: InferenceReport) -> None:
        self._report = report
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def __repr__(self):
        state = "done" if self.done() else "pending"
        return f"<Ticket {state}>"


class ChangeLog:
    """Nets every store mutation of the current revision epoch.

    All writes funnel through three recorders (explicit adds from the
    input manager, inferred adds from the distributors, removals from
    DRed); the log cancels opposite mutations of the same triple so the
    snapshot taken at commit time is the exact store diff:

    * removed then re-added (re-derivation)  → no net change;
    * added then removed inside the epoch    → no net change;
    * everything else lands in exactly one of the three diff sets.

    Thread-safe: distributors record from worker threads.
    """

    __slots__ = (
        "_lock",
        "_explicit",
        "_inferred",
        "_removed",
        "_dred_deleted",
        "_dred_rederived",
        "_dred_probes",
        "_timings",
        "_started",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self._explicit: dict[EncodedTriple, None] = {}
        self._inferred: dict[EncodedTriple, None] = {}
        self._removed: dict[EncodedTriple, None] = {}
        self._dred_deleted = 0
        self._dred_rederived = 0
        self._dred_probes = 0
        self._timings: dict[str, float] = {}
        self._started = time.perf_counter()

    def record_added(
        self, triples: Iterable[EncodedTriple], explicit: bool
    ) -> None:
        """Record store-new triples (callers pass post-dedup lists)."""
        target = self._explicit if explicit else self._inferred
        with self._lock:
            removed = self._removed
            for triple in triples:
                if triple in removed:
                    del removed[triple]  # was present at epoch start: no net change
                else:
                    target[triple] = None

    def record_removed(self, triples: Iterable[EncodedTriple]) -> None:
        """Record triples actually deleted from the store."""
        with self._lock:
            explicit, inferred, removed = self._explicit, self._inferred, self._removed
            count = 0
            for triple in triples:
                count += 1
                if triple in explicit:
                    del explicit[triple]  # added this epoch: net no-op
                elif triple in inferred:
                    del inferred[triple]
                else:
                    removed[triple] = None
            self._dred_deleted += count

    def record_rederived(self, triples: Iterable[EncodedTriple], probes: int) -> None:
        """DRed phase-3 re-adds: cancel the over-deletion, count them
        and the support checks that found them."""
        triples = list(triples)
        with self._lock:
            self._dred_rederived += len(triples)
            self._dred_probes += probes
        self.record_added(triples, explicit=False)

    def record_timing(self, rule: str, seconds: float) -> None:
        """Accumulate one rule-module firing's wall time."""
        with self._lock:
            self._timings[rule] = self._timings.get(rule, 0.0) + seconds

    @property
    def has_changes(self) -> bool:
        """Would committing now produce a content-bearing report?"""
        with self._lock:
            return bool(self._explicit or self._inferred or self._removed)

    def snapshot(
        self,
        revision: int,
        dictionary: TermDictionary,
        graph: "IRI | BNode | None" = None,
    ) -> InferenceReport:
        """Close the epoch: build the revision's report and reset."""
        with self._lock:
            report = InferenceReport(
                revision=revision,
                seconds=time.perf_counter() - self._started,
                timings=self._timings,
                dictionary=dictionary,
                explicit_encoded=tuple(self._explicit),
                inferred_encoded=tuple(self._inferred),
                removed_encoded=tuple(self._removed),
                dred_deleted=self._dred_deleted,
                dred_rederived=self._dred_rederived,
                dred_probes=self._dred_probes,
                graph=graph,
            )
            self._reset()
        return report
