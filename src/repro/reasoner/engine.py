"""The Slider engine: the paper's architecture, end to end (Figure 1).

:class:`Slider` wires together every component of the paper's §2:

* an :class:`~repro.reasoner.input_manager.InputManager` encoding and
  storing incoming triples,
* one :class:`~repro.reasoner.buffers.TripleBuffer` +
  :class:`~repro.reasoner.modules.RuleModule` +
  :class:`~repro.reasoner.distributor.Distributor` per rule of the
  configured fragment,
* a predicate routing table and the rules dependency graph
  (:mod:`~repro.reasoner.dependency`),
* a thread pool executing the rule-module instances of buffers that fill
  (or go stale), while a buffer drained below capacity by the commit
  barrier fires on the committing thread — so a small delta's whole
  fixpoint never leaves the caller (``workers=0`` runs full buffers
  through a deterministic inline executor too),
* an optional timeout sweeper flushing stale buffers, and
* an optional :class:`~repro.reasoner.trace.Trace` feeding the demo.

Completeness invariant
----------------------

Every triple is inserted into the store *before* it is routed to any
buffer, and every routed triple is eventually part of a firing, which
runs strictly after the triple is stored.  That makes firing every body
position complete; the :mod:`~repro.reasoner.rules` docstring gives the
argument.  The one triple a buffer is spared is a closed-inheritance
rule's own conclusion (rdfs9's ``<x type d>``), which over a
transitively closed hierarchy can only re-derive what the rule already
derived (argued there too).
:meth:`Slider.flush` drains all buffers and waits for quiescence, after
which the store holds the full fixpoint (tests verify equality with the
batch baselines' closure).

Delta-centric API
-----------------

Every mutation — assertions, retractions, stream chunks, window expiry
— flows through one transactional entry point, :meth:`Slider.apply`,
which commits a *revision* and returns an
:class:`~repro.reasoner.delta.InferenceReport` describing exactly what
changed (explicit/inferred additions, DRed removals, re-derivations,
per-module timings).  :meth:`Slider.transaction` builds a delta
incrementally; :meth:`Slider.subscribe` registers standing BGP queries
notified with binding-level diffs; :meth:`Slider.flush_async` pipelines
the commit barrier.  :meth:`add` is the streaming ingest path
(:class:`~repro.reasoner.stream.StreamPump`,
:class:`~repro.reasoner.window.WindowedReasoner` and
:func:`~repro.bench.harness.run_slider` feed through it): it stages
assertions without the barrier, and the next :meth:`flush` or
:meth:`apply` commits them.  :meth:`retract` is a one-shot
retraction-only :meth:`apply`.

>>> from repro import Slider
>>> reasoner = Slider(fragment="rhodf", workers=0)
>>> with reasoner.transaction() as tx:   # one delta, one revision
...     tx.add(new_triples)
...     tx.retract(stale_triples)
>>> tx.report.inferred_added_count       # what the commit changed
>>> reasoner.add(triples)                # streaming ingest, deferred
>>> reasoner.flush()                     # barrier: commits the revision

Durability
----------

``Slider(persist_dir=...)`` makes the engine restartable: every commit
is journaled to an fsynced write-ahead changelog before :meth:`apply`
returns, and a threshold (or an explicit :meth:`Slider.snapshot` call)
compacts the changelog into an atomic binary snapshot.  Start-up over a
non-empty directory *recovers* the way a replica starts: the engine is
built in-memory, the snapshot goes in through :meth:`restore_snapshot`
and every journaled revision re-commits through :meth:`apply_at`; only
then is the journal attached.  A killed process resumes at the exact
closure and revision id it had committed (see :mod:`repro.persist` and
:class:`RecoveryInfo`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..dictionary.encoder import EncodedTriple, TermDictionary, encode_batch
from ..obs import TRACER, instruments as _obs
from ..persist.columnar import encode_columnar_snapshot
from ..persist.manager import DEFAULT_COMPACT_BYTES, PersistenceManager
from ..persist.snapshot import Snapshot
from ..rdf.terms import BNode, IRI, Term, Triple
from ..store.backends import TripleStore, create_store
from ..store.graph import Graph
from ..store.query import TriplePattern
from .adaptive import AdaptiveBufferController
from .buffers import TripleBuffer
from .delta import ChangeLog, Delta, InferenceReport, Ticket, Transaction, net_deltas
from .dependency import (
    DependencyGraph,
    build_routing_table,
    closed_inheritance,
    own_output_routing,
)
from .distributor import Distributor
from .fragments import Fragment, get_fragment
from .input_manager import InputManager
from .modules import RuleModule
from .retraction import dred_retract
from .subscription import Subscription
from .trace import NullTrace, Trace
from .vocabulary import Vocabulary

__all__ = ["Slider", "SliderError", "RecoveryInfo"]

# Causes a firing can have; surfaced in trace events and counters.
_CAUSE_SIZE = "size"
_CAUSE_TIMEOUT = "timeout"
_CAUSE_FLUSH = "flush"

# Where a firing ran, resolved once: the counter ticks on every firing.
_FIRINGS_INLINE = _obs.ENGINE_FIRINGS.labels("inline")
_FIRINGS_POOL = _obs.ENGINE_FIRINGS.labels("pool")


class SliderError(RuntimeError):
    """A rule-module instance failed; carries the underlying cause."""


@dataclass(eq=False)
class RecoveryInfo:
    """What a durable engine restored at start-up.

    Exposed as :attr:`Slider.recovery` when ``persist_dir`` held state;
    ``None`` for a cold (empty-directory) start.
    """

    snapshot_revision: int
    snapshot_triples: int
    replayed_records: int
    #: The reports the journal replay re-fired, in revision order —
    #: deterministic re-runs of the lost process's commits.
    reports: list[InferenceReport]
    torn_bytes_dropped: int

    @property
    def recovered_revision(self) -> int:
        """The revision the engine stands at after recovery."""
        if self.reports:
            return self.reports[-1].revision
        return self.snapshot_revision

    def as_dict(self) -> dict:
        return {
            "snapshot_revision": self.snapshot_revision,
            "snapshot_triples": self.snapshot_triples,
            "replayed_records": self.replayed_records,
            "recovered_revision": self.recovered_revision,
            "torn_bytes_dropped": self.torn_bytes_dropped,
        }

    def __repr__(self):
        return (
            f"<RecoveryInfo snapshot_rev={self.snapshot_revision} "
            f"replayed={self.replayed_records} "
            f"recovered_rev={self.recovered_revision}>"
        )


def _closed_hook(triples: Sequence[EncodedTriple]) -> None:
    """Dispatch and change-log hook of a closed engine: drops the batch."""


class _InlineExecutor:
    """Synchronous executor: runs tasks in submission order, iteratively.

    Tasks submitted while another task runs are queued, not recursed into,
    so arbitrarily deep derivation chains cannot overflow the stack.
    Deterministic: single thread, FIFO order.
    """

    def __init__(self):
        self._queue: deque = deque()
        self._draining = False

    def submit(self, fn, *args) -> None:
        self._queue.append((fn, args))
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                task, task_args = self._queue.popleft()
                task(*task_args)
        finally:
            self._draining = False

    def shutdown(self, wait: bool = True) -> None:
        self._queue.clear()


class Slider:
    """The incremental reasoner.

    Parameters
    ----------
    fragment:
        Fragment name (``"rhodf"``, ``"rdfs"``, ``"rdfs-full"``,
        ``"owl-horst"``) or a :class:`~repro.reasoner.fragments.Fragment`.
    buffer_size:
        Triples needed to fire a rule execution (paper demo parameter).
        A full buffer fires in the thread pool; whatever is left below
        capacity at the commit barrier fires on the committing thread.
    timeout:
        Seconds of buffer inactivity before a forced flush into the
        thread pool; ``None`` disables the sweeper (an explicit
        :meth:`flush` still drains, on the calling thread).
    workers:
        Thread-pool size for full and stale buffers; ``0`` runs them
        inline too (deterministic).
    trace:
        A :class:`~repro.reasoner.trace.Trace` to record events into, or
        ``None`` for no tracing.
    routing:
        ``"predicate"`` (default) routes triples only to rules whose
        input signature matches, via the dependency-graph-derived table;
        ``"broadcast"`` offers every triple to every rule — the ablation
        for the paper's routing design (§2.3).
    adaptive:
        An :class:`~repro.reasoner.adaptive.AdaptiveBufferController`
        (or ``True`` for one with default settings) enabling run-time
        buffer retuning — the paper's future-work "just-in-time
        optimisation of the rules execution's scheduling".  ``None``
        (default) keeps the static plan.
    store:
        A pre-existing store instance to share substrate (e.g. to reason
        over an already-loaded :class:`~repro.store.graph.Graph`), or
        ``None`` (default) for a fresh
        :class:`~repro.store.backends.hashdict.HashDictStore`.  Backend
        spec strings were removed and raise :class:`TypeError`.
    dictionary:
        Optionally share a pre-existing term dictionary.
    persist_dir:
        A directory for durable state.  When given, every committed
        revision is journaled to an fsynced write-ahead changelog
        before :meth:`apply` returns, and start-up *recovers*: the
        latest snapshot is loaded and the changelog tail is replayed
        through :meth:`apply_at`, the replica path (reports re-fire
        deterministically; see :attr:`recovery`).  ``None`` (default)
        keeps the engine purely in-memory.
    persist_fsync:
        ``False`` trades the fsync-per-commit durability guarantee for
        write speed (page-cache durability only) — for benchmarks and
        tests, not for production state.
    compact_journal_bytes:
        Changelog size that triggers automatic compaction (snapshot +
        journal truncate) at the next commit; ``None`` disables the
        threshold (explicit :meth:`snapshot` calls still compact).
    """

    def __init__(
        self,
        fragment: str | Fragment = "rhodf",
        buffer_size: int = 50,
        timeout: float | None = 0.05,
        workers: int = 4,
        trace: Trace | None = None,
        dictionary: TermDictionary | None = None,
        store: TripleStore | None = None,
        routing: str = "predicate",
        adaptive: "AdaptiveBufferController | bool | None" = None,
        persist_dir: "str | Path | None" = None,
        persist_fsync: bool = True,
        compact_journal_bytes: int | None = DEFAULT_COMPACT_BYTES,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {timeout}")
        if routing not in ("predicate", "broadcast"):
            raise ValueError(f"routing must be 'predicate' or 'broadcast', got {routing!r}")
        self.fragment = fragment if isinstance(fragment, Fragment) else get_fragment(fragment)
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self.store = create_store(store)
        # Durability is attached last (see _recover): until then this is
        # an in-memory engine, so recovery journals nothing.
        self._persist: PersistenceManager | None = None
        self._staged_assertions: list[Triple] = []
        self._staged_retractions: list[Triple] = []
        self.recovery: RecoveryInfo | None = None
        manager = None
        if persist_dir is not None:
            if not isinstance(self.dictionary, TermDictionary):
                raise SliderError(
                    "persistence requires a TermDictionary "
                    f"(got {type(self.dictionary).__name__})"
                )
            manager = PersistenceManager(
                persist_dir,
                fsync=persist_fsync,
                compact_bytes=compact_journal_bytes,
                fragment=self.fragment.name,
            )
        self.vocab = Vocabulary(self.dictionary)
        self.trace = trace if trace is not None else NullTrace()
        self.buffer_size = buffer_size
        self.timeout = timeout
        self.workers = workers

        self.rules = self.fragment.rules(self.vocab)
        self.dependency_graph = DependencyGraph(self.rules)
        self.routing = routing
        if routing == "broadcast":
            self._routing, self._universal = {}, tuple(range(len(self.rules)))
        else:
            self._routing, self._universal = build_routing_table(self.rules)
        # A closed-inheritance rule's distributor routes by a table
        # without that rule, bar its edge predicate (see dependency.py).
        own_tables = {
            index: own_output_routing(self._routing, self._universal, index, relation)
            for index, relation in closed_inheritance(self.rules).items()
        }
        # Lazy activation for universal rules: while a rule's constant
        # body predicates have no stored triples, only triples carrying
        # one of those predicates are delivered to it (they activate the
        # rule; everything else is already in the store and will be found
        # by the activating triple's own firing).
        self._activation: dict[int, frozenset[int] | None] = {
            # getattr: duck-typed custom rules without the property are
            # treated as always-active (the conservative choice).
            index: getattr(self.rules[index], "activation_predicates", None)
            for index in self._universal
        }
        # Delta pipeline state: every store mutation is recorded in the
        # change log; commits snapshot it into an InferenceReport.
        # Two locks, always acquired commit-then-tx: _commit_lock
        # serializes whole commits (apply/flush) against each other,
        # while _tx_lock is the short writer gate — writers (the add
        # ingest path) hold it per batch, and a commit only holds it for
        # the final quiet-check + snapshot, so a background flush_async can
        # compute the fixpoint while service threads keep queueing.
        self._changes = ChangeLog()
        self._revision = 0
        # Per-rule-module metric children, resolved lazily on the first
        # commit and reused on every one after (see _commit_revision).
        self._obs_rule_children: dict[str, object] = {}
        self._commit_lock = threading.RLock()
        self._tx_lock = threading.RLock()
        self._subscriptions: list[Subscription] = []
        # Commit listeners observe each content-bearing revision's
        # *requested* term-level delta — exactly what the changelog
        # journals — so a replication change feed ships records a
        # follower can replay through apply() byte-for-byte like
        # recovery does.  Registering a listener turns on the same
        # staging machinery persistence uses.
        self._commit_listeners: list[Callable[[int, tuple, tuple], None]] = []

        self.modules: list[RuleModule] = [
            RuleModule(rule, TripleBuffer(rule.name, capacity=buffer_size))
            for rule in self.rules
        ]
        self.distributors: list[Distributor] = [
            Distributor(
                module,
                self.store,
                dispatch=(
                    partial(self._dispatch, table=own_tables[index])
                    if index in own_tables
                    else self._dispatch
                ),
                dependents=self.dependency_graph.successors(module.rule.name),
                trace=self.trace,
                on_new=self._record_inferred,
            )
            for index, module in enumerate(self.modules)
        ]
        self.input_manager = InputManager(
            self.dictionary,
            self.store,
            dispatch=self._dispatch,
            trace=self.trace,
            on_new=self._record_explicit,
        )
        if adaptive is True:
            adaptive = AdaptiveBufferController()
        self.adaptive = adaptive or None
        if self.adaptive is not None:
            self.adaptive.attach(self.modules)

        self._pending = 0
        self._idle = threading.Condition()
        self._errors: list[BaseException] = []
        self._closed = False
        if workers == 0:
            self._executor = _InlineExecutor()
        else:
            self._executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="slider-rule"
            )
        self._sweeper: threading.Thread | None = None
        self._sweeper_stop = threading.Event()
        if timeout is not None and workers > 0:
            self._sweeper = threading.Thread(
                target=self._sweep_timeouts, name="slider-sweeper", daemon=True
            )
            self._sweeper.start()

        # Explicit baseline for the input/inferred split (demo panel 3).
        self._axiom_count = 0
        axioms = self.fragment.axioms()
        if axioms:
            self._axiom_count = self.input_manager.add(axioms)
        if manager is not None:
            self._recover(manager)

    # --- delta pipeline (the transactional entry point) ---------------------
    def apply(self, delta: Delta) -> InferenceReport:
        """Commit one :class:`~repro.reasoner.delta.Delta` as a revision.

        The single mutation path of the engine: retractions run through
        DRed against the quiesced closure, assertions flow through the
        input manager, and the commit barrier waits for the fixpoint.
        Returns the revision's
        :class:`~repro.reasoner.delta.InferenceReport` — the exact store
        diff (explicit/inferred added, removed, re-derivation counts,
        per-module timings) — and notifies every live subscription with
        its binding-level delta.

        Deltas are net-normalized: a triple asserted *and* retracted in
        the same delta is a no-op.  Any mutations deferred earlier (the
        streaming :meth:`add` ingest) are folded into this revision, so
        the report remains the precise diff against the previous
        revision.

        A graph-scoped delta (``Delta(graph=...)``) additionally tags
        the revision's newly-explicit assertions — including any folded
        deferred mutations, which join the revision *and* its scope —
        into the named graph's sparse store column, journals the graph
        label with the revision's changelog record, and stamps it on
        the returned report.  Inferred consequences stay in the default
        graph: rule conclusions are dataset-wide.
        """
        self._check_open()
        if not isinstance(delta, Delta):
            raise TypeError(f"apply() takes a Delta, got {type(delta).__name__}")
        with self._commit_lock, self._tx_lock:
            staged_mark = (len(self._staged_assertions), len(self._staged_retractions))
            fresh: list[Triple] | None = None
            if self._staging_enabled or delta.graph is not None:
                # Re-asserting an already-explicit triple is a complete
                # no-op; journaling (and graph-tagging) only the rest
                # keeps re-ingestion of a persisted dataset from
                # bloating the changelog while still recording
                # explicitness *promotions* (assertion of a
                # currently-inferred triple).
                explicit = self.input_manager.explicit
                encode = self.dictionary.encode_triple
                fresh = [t for t in delta.assertions if encode(t) not in explicit]
            if self._staging_enabled:
                self._staged_assertions.extend(fresh)
                self._staged_retractions.extend(delta.retractions)
            try:
                if delta.retractions:
                    self._quiesce()  # retraction is defined against a closure
                    self._retract_encoded(
                        [self.dictionary.encode_triple(t) for t in delta.retractions]
                    )
                if delta.assertions:
                    self.input_manager.add(delta.assertions)
                self._quiesce()
                if delta.graph is not None:
                    # Tag everything this commit will journal, so a
                    # recovered engine (which re-tags each record's
                    # assertions) reproduces the column exactly.
                    to_tag = (
                        self._staged_assertions if self._staging_enabled else fresh
                    )
                    self._tag_graph(to_tag, delta.graph)
                return self._commit_revision(graph=delta.graph)
            except BaseException:
                # A failed apply must not poison the *next* commit's
                # journal record with this delta's staged mutations.
                del self._staged_assertions[staged_mark[0]:]
                del self._staged_retractions[staged_mark[1]:]
                raise

    def apply_many(self, deltas: Sequence[Delta]) -> InferenceReport:
        """Commit a drained batch of deltas as **one** revision.

        The engine half of the write pipeline's protocol (shared with
        :class:`~repro.sharding.cluster.ShardedReasoner`): the batch is
        netted last-writer-wins in arrival order
        (:func:`~repro.reasoner.delta.net_deltas`) and the result goes
        through :meth:`apply`.
        """
        return self.apply(net_deltas(deltas))

    def transaction(self, graph: Term | None = None) -> Transaction:
        """Open a :class:`~repro.reasoner.delta.Transaction` builder.

        ``graph`` scopes the whole transaction to one named graph — the
        built delta carries it exactly as ``Delta(graph=...)`` would.

        >>> with reasoner.transaction() as tx:
        ...     tx.add(fresh_triples)
        ...     tx.retract(stale_triples)
        >>> tx.report.revision
        """
        self._check_open()
        return Transaction(self, graph=graph)

    def subscribe(
        self,
        patterns: Sequence[TriplePattern],
        callback: Callable[..., None] | None = None,
        graph: Term | None = None,
    ) -> Subscription:
        """Register a standing BGP, notified with binding-level deltas.

        ``patterns`` is a conjunction of (s, p, o) triples over
        :class:`~repro.rdf.terms.Variable` terms — the same language as
        :func:`repro.store.query.solve`.  The current solutions are
        materialized once at registration; afterwards each committed
        revision is folded in incrementally (work proportional to the
        delta) and the subscription receives a
        :class:`~repro.reasoner.subscription.SubscriptionEvent` whenever
        — and only when — its solution set actually changed.  With no
        ``callback``, events queue on the subscription for polling.

        ``graph`` filters delivery by commit scope: the subscription
        only sees revisions whose delta targeted that named graph —
        the tenant-isolation primitive of the serving layer.  (Default
        ``None`` delivers every revision, regardless of scope.)
        """
        self._check_open()
        with self._commit_lock, self._tx_lock:
            self._quiesce()
            subscription = Subscription(patterns, callback, graph=graph)
            subscription._seed(self.graph)
            # Recorded under the commit lock: the solution set above is
            # exactly the state of this revision (consumers pair the two,
            # e.g. the SSE hello event).
            subscription.seeded_revision = self._revision
            self._subscriptions.append(subscription)
        return subscription

    def flush_async(self) -> Ticket:
        """Pipeline the commit barrier: flush on a background thread.

        Returns immediately with a :class:`~repro.reasoner.delta.Ticket`
        that resolves to the revision's report, so a service thread can
        keep queueing writes while the fixpoint completes.
        """
        self._check_open()
        ticket = Ticket()

        def run() -> None:
            try:
                ticket._resolve(self.flush())
            except BaseException as error:
                ticket._fail(error)

        threading.Thread(target=run, name="slider-flush", daemon=True).start()
        return ticket

    @property
    def revision(self) -> int:
        """The id of the last committed revision (0 before any commit)."""
        return self._revision

    # --- replication hooks --------------------------------------------------
    @property
    def _staging_enabled(self) -> bool:
        """Must requested deltas be staged for the journal / feed?"""
        return self._persist is not None or bool(self._commit_listeners)

    def add_commit_listener(
        self, listener: Callable[[int, tuple, tuple], None]
    ) -> None:
        """Observe every content-bearing commit's requested delta.

        ``listener(revision, assertions, retractions)`` is called under
        the commit lock, after the revision is journaled (when durable)
        and before subscriptions are notified.  The tuples carry the
        *requested* term-level mutations — the same record the
        write-ahead changelog stores — so a replication feed built on
        this hook ships deltas a follower replays through
        :meth:`apply_at` to reach the identical closure and revision
        ids.  Register listeners before accepting writes: mutations
        staged while no listener (and no persistence) is active are not
        retroactively observable.
        """
        with self._commit_lock, self._tx_lock:
            self._commit_listeners.append(listener)

    def remove_commit_listener(
        self, listener: Callable[[int, tuple, tuple], None]
    ) -> None:
        """Detach a commit listener (no-op when not registered)."""
        with self._commit_lock, self._tx_lock:
            if listener in self._commit_listeners:
                self._commit_listeners.remove(listener)

    def apply_at(self, revision: int, delta: Delta) -> InferenceReport:
        """Commit ``delta`` as exactly revision ``revision`` (replicas,
        changelog replay).

        The revision counter fast-forwards over the gap (unjournaled
        empty revisions on the leader) and the delta commits through the
        ordinary :meth:`apply` pipeline, so a replica — or a durable
        engine replaying its own changelog at start-up — reaches the
        same closure under the same revision id and fires the same
        reports and subscription events; a durable replica journals the
        same record.  ``revision`` must be ahead of the engine's current
        revision; replicated and journaled streams only move forward.
        """
        self._check_open()
        with self._commit_lock, self._tx_lock:
            if revision <= self._revision:
                raise SliderError(
                    f"revision {revision} is not ahead of "
                    f"engine revision {self._revision}"
                )
            previous = self._revision
            self._revision = revision - 1
            try:
                report = self.apply(delta)
            except BaseException:
                # A failed replicated apply must not leave the counter
                # fast-forwarded: a later local commit would consume the
                # leader's id and wedge every retry of this record.
                self._revision = previous
                raise
            assert report.revision == revision
            return report

    def settle(self) -> None:
        """Drain every buffer and reach the fixpoint *without* committing.

        Replication helper: a replica must be quiescent before serving
        (read views image the store) yet must not consume a revision id
        of its own — ids are assigned by the leader's commits.  Anything
        settled here folds into the next committed revision's report.
        """
        self._check_open()
        with self._commit_lock, self._tx_lock:
            self._quiesce()

    def restore_snapshot(self, snapshot: Snapshot) -> None:
        """Load a binary snapshot image into this engine (replica bootstrap).

        Only valid on an engine that has never committed a revision: the
        snapshot's closure, explicit partition, axiom baseline and
        revision id *become* the engine's state; a durable engine
        restores its own ``snapshot.slider`` at start-up through here
        too.  The fragment's own axioms (ingested at construction) are
        already part of the image, so the union is the snapshot closure
        bit-for-bit.  With a journal attached (a durable follower's
        bootstrap) the restored image is sealed to disk immediately, so
        a restart recovers locally instead of re-bootstrapping; start-up
        recovery attaches its journal only afterwards, so it never
        re-seals the image it loaded.
        """
        self._check_open()
        if snapshot.fragment and snapshot.fragment != self.fragment.name:
            raise SliderError(
                f"snapshot was built under fragment {snapshot.fragment!r}, "
                f"engine runs {self.fragment.name!r}"
            )
        with self._commit_lock, self._tx_lock:
            if self._revision != 0:
                raise SliderError(
                    "restore_snapshot needs a fresh engine "
                    f"(already at revision {self._revision})"
                )
            self._quiesce()  # finish the axiom ingestion; discarded below
            explicit = snapshot.restore(self.dictionary, self.store)
            self.input_manager.explicit.update(explicit)
            self._axiom_count = snapshot.axiom_count
            self._revision = snapshot.revision
            # Bootstrap is state transfer, not a revision: the epoch's
            # recorded changes (axiom closure) are part of the image.
            self._changes = ChangeLog()
            self._staged_assertions = []
            self._staged_retractions = []
            if self._persist is not None:
                self._persist.write_snapshot(**self._image_state())

    def snapshot_bytes(self) -> bytes:
        """The committed state as one self-verifying snapshot blob.

        Serves replica bootstrap (the leader's ``GET /snapshot``)
        without touching the durable files or truncating the changelog.
        The engine is locked for the duration, so the image is exactly
        the last committed revision.  (Mutations deferred through the
        streaming ``add`` ingest are settled into the image without a
        commit — on the coalesced service path every write commits, so
        the image and revision always agree.)
        """
        self._check_open()
        with self._commit_lock, self._tx_lock:
            self._quiesce()
            return encode_columnar_snapshot(**self._image_state())

    # --- durability ---------------------------------------------------------
    @property
    def persist_dir(self) -> Path | None:
        """The durable state directory, or ``None`` when in-memory."""
        return self._persist.directory if self._persist is not None else None

    @property
    def persistence(self) -> PersistenceManager | None:
        """The :class:`PersistenceManager`, or ``None`` when in-memory.

        Exposed for infrastructure that composes with durability — the
        replication change feed reads the WAL retention floor from it.
        """
        return self._persist

    def snapshot(self) -> Path:
        """Compact now: commit pending work, snapshot, truncate the journal.

        Safe to call from any thread (it takes the commit locks, like
        :meth:`flush`), so a service can run compaction from a
        background scheduler instead of waiting for the
        ``compact_journal_bytes`` threshold.  Returns the snapshot path.

        Compaction consumes no revision id of its own: pending work is
        committed first (as with :meth:`flush`), but an already-quiesced
        engine seals the current revision as-is — so the revision
        counter, the serving layer's read views, and any replication
        followers all stay aligned across compactions.
        """
        self._check_open()
        if self._persist is None:
            raise SliderError("persistence is not enabled (pass persist_dir=...)")
        with self._commit_lock:
            while True:
                self._quiesce()
                with self._tx_lock:
                    if self._pending == 0 and all(
                        len(m.buffer) == 0 for m in self.modules
                    ):
                        if (
                            self._changes.has_changes
                            or self._staged_assertions
                            or self._staged_retractions
                        ):
                            self._commit_revision()
                        self._persist.write_snapshot(**self._image_state())
                        return self._persist.snapshot_path

    def _image_state(self) -> dict:
        """The quiesced state as the snapshot encoder's keyword
        arguments (callers hold both locks)."""
        explicit = set(self.input_manager.explicit)
        # The store's sparse named-graph column: empty without the quad
        # protocol or when everything lives in the default graph.
        assignments = getattr(self.store, "graph_assignments", None)
        graphs = [] if assignments is None else [
            (s, p, o, g) for (s, p, o), g in assignments().items()
        ]
        return dict(
            revision=self._revision,
            fragment=self.fragment.name,
            axiom_count=self._axiom_count,
            terms=self.dictionary.snapshot_terms(),
            explicit=explicit,
            inferred=(t for t in self.store if t not in explicit),
            graphs=graphs,
        )

    def _recover(self, manager: PersistenceManager) -> None:
        """Start a durable engine the way a replica starts, then attach it.

        Runs last in ``__init__``, on an engine that is still in-memory:
        the snapshot (if any) goes in through :meth:`restore_snapshot`
        and each journaled revision re-commits through :meth:`apply_at`,
        exactly as a follower reaches its leader's closure and revision
        ids.  Only then is ``manager`` attached, so replay journals
        nothing, feeds no listener and never re-seals the snapshot it
        just loaded.  A failed start-up stops the engine and releases
        the directory lock, so a retry can open the directory at once.
        """
        image = None
        try:
            image, records = manager.load()
            recorded = manager.journal_fragment
            if recorded is not None and recorded != self.fragment.name:
                # Replaying under different rules would silently produce
                # a different closure (restore_snapshot refuses a
                # mismatched image the same way).
                raise SliderError(
                    f"changelog in {manager.directory} was built under "
                    f"fragment {recorded!r}, engine runs {self.fragment.name!r}"
                )
            if image is not None:
                self.restore_snapshot(image)
            reports = [
                self.apply_at(
                    record.revision,
                    Delta(record.assertions, record.retractions, graph=record.graph),
                )
                for record in records
            ]
            if image is not None or records or manager.torn_bytes_dropped:
                self.recovery = RecoveryInfo(
                    snapshot_revision=image.revision if image is not None else 0,
                    snapshot_triples=image.triple_count if image is not None else 0,
                    replayed_records=len(records),
                    reports=reports,
                    torn_bytes_dropped=manager.torn_bytes_dropped,
                )
        except BaseException:
            manager.close()
            self._shut_down(wait=True)
            raise
        finally:
            close_image = getattr(image, "close", None)
            if close_image is not None:  # columnar images hold an mmap
                close_image()
        self._persist = manager

    # --- streaming ingest and the one-shot retraction ----------------------
    def add(self, triples: Iterable[Triple] | Triple) -> int:
        """Feed explicit triples (incremental). Returns how many were new.

        The streaming ingest path: equivalent to staging
        ``Delta(assertions=triples)`` without the commit barrier, so
        full buffers fire while the stream keeps arriving; the triples
        land in the revision committed by the next :meth:`flush` /
        :meth:`apply`.  Use :meth:`transaction` (or :meth:`apply`) to
        get an :class:`~repro.reasoner.delta.InferenceReport` back.
        """
        self._check_open()
        if isinstance(triples, Triple):
            triples = (triples,)
        with self._tx_lock:
            if not self._staging_enabled:
                return self.input_manager.add(triples)
            triples = list(triples)
            encoded = encode_batch(self.dictionary, triples)
            explicit = self.input_manager.explicit
            fresh = [triples[i] for i, t in enumerate(encoded) if t not in explicit]
            accepted = self.input_manager.add_encoded(encoded)
            # Staged only after the ingest succeeded, so a failed batch
            # never leaks into the next commit's journal record; and
            # only the not-yet-explicit triples — re-asserting an
            # explicit triple is a no-op not worth journal bytes.
            self._staged_assertions.extend(fresh)
            return accepted

    def load(self, path) -> int:
        """Load an N-Triples (``.nt``) or Turtle (``.ttl``) file."""
        from ..rdf.ntriples import parse_ntriples_file
        from ..rdf.turtle import parse_turtle_file

        text_path = str(path)
        if text_path.endswith((".ttl", ".turtle")):
            return self.add(parse_turtle_file(path))
        return self.add(parse_ntriples_file(path))

    def flush(self) -> InferenceReport:
        """Barrier: force-fire every buffer, wait for quiescence, commit.

        On return the store contains the complete fixpoint of everything
        added so far, and the pending changes are committed as a
        revision whose :class:`~repro.reasoner.delta.InferenceReport` is
        returned (subscriptions are notified).  Raises
        :class:`SliderError` if any rule module failed.

        Writers are only excluded during the brief quiet-check +
        snapshot at the end — the fixpoint computation itself runs with
        the writer gate open, so concurrent :meth:`add` calls (and the
        service threads behind :meth:`flush_async`) keep flowing; a
        batch that slips in before the commit point simply joins this
        revision.
        """
        self._check_open()
        with self._commit_lock:
            while True:
                self._quiesce()
                with self._tx_lock:
                    # Quiet only if no writer snuck a batch in between
                    # the drain and the gate: then the change log and
                    # the store agree, and the snapshot is exact.
                    if self._pending == 0 and all(
                        len(m.buffer) == 0 for m in self.modules
                    ):
                        return self._commit_revision()

    def _quiesce(self) -> None:
        """Drain every buffer and wait for the fixpoint (no commit).

        A drained batch is below its buffer's capacity by construction,
        so it fires right here on the calling thread; only buffers that
        fill meanwhile (:meth:`_deliver`) or go stale (the sweeper) hand
        work to the pool, whose tasks each round waits for.
        """
        if self.trace.enabled:
            self.trace.record("flush")
        while True:
            fired = False
            for index, module in enumerate(self.modules):
                batch = module.buffer.drain()
                if batch:
                    fired = True
                    self._run_module(index, batch, _CAUSE_FLUSH)
            self._wait_idle()
            self._raise_errors()
            if not fired and all(len(m.buffer) == 0 for m in self.modules):
                break
        if self.trace.enabled:
            self.trace.record("done", store_size=len(self.store))

    def create_input_manager(self) -> InputManager:
        """A fresh input manager wired to this engine.

        "Multiple instances of input manager allows to retrieve data
        from various sources" (§2): each source thread can own one, with
        independent received/accepted statistics; they all feed the same
        store and buffers.  Note the per-manager ``explicit`` sets —
        retraction consults the *primary* manager, so assertions made
        through secondary managers are merged into it.

        On a durable engine the manager's ingest is additionally staged
        for the changelog (under the writer gate), so multi-source
        ingestion survives recovery like every other mutation path.
        """
        self._check_open()
        manager = InputManager(
            self.dictionary,
            self.store,
            dispatch=self._dispatch,
            trace=self.trace,
            on_new=self._record_explicit,
        )
        manager.explicit = self.input_manager.explicit  # shared assertion set
        inner_add_encoded = manager.add_encoded

        def add_encoded_staged(encoded: Sequence[EncodedTriple]) -> int:
            with self._tx_lock:
                if not self._staging_enabled:
                    return inner_add_encoded(encoded)
                decode = self.dictionary.decode_triple
                explicit = manager.explicit
                staged = [decode(t) for t in encoded if t not in explicit]
                accepted = inner_add_encoded(encoded)
                self._staged_assertions.extend(staged)
                return accepted

        # Term-level add() funnels through add_encoded, so patching the
        # one entry point covers both ingest paths; the staging check is
        # deferred to call time so a commit listener (replication feed)
        # attached after this manager was created still sees its ingest.
        manager.add_encoded = add_encoded_staged
        return manager

    def retract(self, triples: Iterable[Triple] | Triple) -> int:
        """Remove asserted triples *and* everything that depended on them.

        Implements DRed (see :mod:`repro.reasoner.retraction`): the
        retracted assertions and their no-longer-supported consequences
        leave the store; consequences that are still derivable another
        way survive.  Returns the number of triples actually deleted
        (after re-derivation).

        .. deprecated::
            Thin shim over :meth:`apply` with a retraction-only
            :class:`~repro.reasoner.delta.Delta`; prefer
            :meth:`transaction` / :meth:`apply` to get the revision's
            full :class:`~repro.reasoner.delta.InferenceReport`.
        """
        if isinstance(triples, Triple):
            triples = (triples,)
        report = self.apply(Delta(retractions=triples))
        return report.dred_deleted - report.dred_rederived

    def _retract_encoded(self, encoded: list[EncodedTriple]) -> None:
        """DRed one batch of retractions (under the transaction lock,
        against an already-quiesced closure), recording the changes."""
        deleted, rederived, probes = dred_retract(
            self.store,
            self.rules,
            self.vocab,
            self.input_manager.explicit,
            encoded,
            redispatch=self._dispatch,
        )
        self._changes.record_removed(deleted)
        self._changes.record_rederived(rederived, probes)
        if self.trace.enabled:
            self.trace.record(
                "retract",
                requested=len(encoded),
                deleted=len(deleted),
                rederived=len(rederived),
                store_size=len(self.store),
            )

    def reinfer(self) -> None:
        """Route every stored triple through the rules once, then flush.

        Use this to reason over a store that was populated *outside* the
        engine (e.g. a shared :class:`~repro.store.graph.Graph`): adding
        a triple that is already stored is a no-op by design, so
        pre-existing triples never reach the buffers otherwise.
        """
        self._check_open()
        snapshot = list(self.store)
        if snapshot:
            self._dispatch(snapshot)
        self.flush()

    def materialize(self, triples: Iterable[Triple]) -> int:
        """Convenience: add + flush.  Returns the number of new triples."""
        new = self.add(triples)
        self.flush()
        return new

    def close(self) -> None:
        """Flush outstanding work and release the thread pool."""
        if self._closed:
            return
        try:
            self.flush()
        finally:
            self._shut_down(wait=True)

    def __enter__(self) -> "Slider":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # don't mask the original error with a flush failure
            self._shut_down(wait=False)

    def _shut_down(self, wait: bool) -> None:
        """Stop the sweeper and the pool, release the durable files and
        unhook; ``wait`` joins the threads."""
        self._closed = True
        self._sweeper_stop.set()
        if wait and self._sweeper is not None:
            self._sweeper.join(timeout=2.0)
        self._executor.shutdown(wait=wait)
        if self._persist is not None:
            self._persist.close()
        self._unhook()

    # --- inspection ----------------------------------------------------------
    def __len__(self) -> int:
        """Total stored triples (explicit + axioms + inferred)."""
        return len(self.store)

    @property
    def graph(self) -> Graph:
        """Term-level view over the reasoner's dictionary + store."""
        return Graph(self.dictionary, self.store)

    # --- named graphs --------------------------------------------------------
    def _tag_graph(self, triples: Sequence[Triple], graph: Term) -> None:
        """Tag ``triples`` into ``graph``'s sparse store column."""
        set_graphs = getattr(self.store, "set_graphs", None)
        if set_graphs is None:
            raise SliderError(
                f"store backend {type(self.store).__name__} does not support "
                "named graphs (no set_graphs)"
            )
        if triples:
            encode = self.dictionary.encode_triple
            set_graphs([encode(t) for t in triples], self.dictionary.encode(graph))

    def graph_counts(self) -> dict[Term, int]:
        """Per-named-graph explicit triple counts, at term level.

        The default graph is not listed (its size is the store total
        minus every named graph's).  Backends without the quad protocol
        report no named graphs — everything is default-graph.
        """
        self._check_open()
        counts = getattr(self.store, "graph_counts", None)
        if counts is None:
            return {}
        decode = self.dictionary.decode
        return {decode(graph_id): count for graph_id, count in counts().items()}

    def triples_in_graph(self, graph: Term | None) -> list[Triple]:
        """One named graph's explicit triples (``None``: the default graph,
        i.e. every stored triple not tagged into any named graph)."""
        self._check_open()
        if graph is not None and not isinstance(graph, (IRI, BNode)):
            raise TypeError(f"graph must be an IRI, BNode or None, got {graph!r}")
        in_graph = getattr(self.store, "triples_in_graph", None)
        if in_graph is None:
            encoded = list(self.store) if graph is None else []
        else:
            graph_id = None if graph is None else self.dictionary.encode(graph)
            encoded = in_graph(graph_id)
        decode = self.dictionary.decode_triple
        return [decode(t) for t in encoded]

    @property
    def input_count(self) -> int:
        """Live asserted triples (excluding fragment axioms).

        Counted from the assertion set, so retraction is reflected.
        """
        return len(self.input_manager.explicit) - self._axiom_count

    @property
    def inferred_count(self) -> int:
        """Live derived triples (store minus assertions and axioms)."""
        return len(self.store) - len(self.input_manager.explicit)

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-rule counters (demo GUI): buffer + module statistics."""
        merged: dict[str, dict[str, int]] = {}
        for module in self.modules:
            stats = module.stats()
            stats.update(module.buffer.counters())
            merged[module.rule.name] = stats
        return merged

    def module(self, rule_name: str) -> RuleModule:
        """The module for one rule (raises ``KeyError`` if absent)."""
        for candidate in self.modules:
            if candidate.rule.name == rule_name:
                return candidate
        raise KeyError(rule_name)

    def __repr__(self):
        return (
            f"<Slider fragment={self.fragment.name!r} rules={len(self.rules)} "
            f"store={len(self.store)} workers={self.workers}>"
        )

    # --- internals -----------------------------------------------------------
    def _record_explicit(self, triples: Sequence[EncodedTriple]) -> None:
        """Change-log hook: store-new triples from an input manager."""
        self._changes.record_added(triples, explicit=True)

    def _record_inferred(self, triples: Sequence[EncodedTriple]) -> None:
        """Change-log hook: store-new triples from a distributor."""
        self._changes.record_added(triples, explicit=False)

    def _commit_revision(self, graph: Term | None = None) -> InferenceReport:
        """Seal the current change epoch into a numbered revision.

        ``graph`` is the named graph a graph-scoped ``apply`` targeted;
        it is stamped on the report and journaled with the record so
        recovery re-tags the store column.
        """
        self._revision += 1
        report = self._changes.snapshot(self._revision, self.dictionary, graph=graph)
        # Drain the staged requested delta; journal it only for
        # content-bearing commits — a completely empty revision (a bare
        # flush, e.g. the implicit one in close()) writes no record:
        # journaling it would cost an fsync per no-op cycle, and both
        # replay and followers fast-forward the revision counter over
        # gaps.  Recovery replays before the journal is attached, so it
        # journals nothing.
        assertions = self._staged_assertions
        retractions = self._staged_retractions
        self._staged_assertions = []
        self._staged_retractions = []
        if self._persist is not None and (assertions or retractions or report):
            self._persist.journal_commit(
                self._revision, assertions, retractions, graph=graph
            )
            if self._persist.should_compact():
                self._persist.write_snapshot(**self._image_state())
        if self._commit_listeners:
            # Every live commit, content-bearing or not: an empty
            # revision still consumes a revision id, and the feed must
            # advance its watermark so followers can track the leader's
            # revision counter without receiving (nonexistent) records.
            for listener in list(self._commit_listeners):
                listener(self._revision, tuple(assertions), tuple(retractions))
        if self.trace.enabled:
            self.trace.record(
                "commit",
                revision=report.revision,
                explicit_added=report.explicit_added_count,
                inferred_added=report.inferred_added_count,
                removed=report.removed_count,
                store_size=len(self.store),
            )
        if _obs.REGISTRY.enabled:
            _obs.ENGINE_COMMITS.inc()
            _obs.ENGINE_APPLY_SECONDS.observe(report.seconds)
            if report.dred_deleted:
                _obs.ENGINE_DRED_DELETED.inc(report.dred_deleted)
            if report.dred_rederived:
                _obs.ENGINE_DRED_REDERIVED.inc(report.dred_rederived)
            if report.dred_probes:
                _obs.ENGINE_DRED_PROBES.inc(report.dred_probes)
            # The rule-module set is fixed per engine, so the label
            # children are resolved once and cached — this loop runs on
            # every commit.
            children = self._obs_rule_children
            for module_name, module_seconds in report.timings.items():
                child = children.get(module_name)
                if child is None:
                    child = _obs.ENGINE_RULE_SECONDS.labels(module_name)
                    children[module_name] = child
                child.inc(module_seconds)
        self._notify_subscribers(report)
        return report

    def _notify_subscribers(self, report: InferenceReport) -> None:
        if not self._subscriptions:
            return
        with TRACER.span(
            "subscription.delivery",
            revision=report.revision,
            subscriptions=len(self._subscriptions),
        ):
            self._notify_subscribers_traced(report)

    def _notify_subscribers_traced(self, report: InferenceReport) -> None:
        graph = self.graph
        # Route by predicate: a revision is delivered only to the
        # subscriptions whose constant predicates intersect the delta's
        # touched set (variable-predicate subscriptions always match), so
        # thousands of standing queries cost one set probe each, not one
        # delta filter pass each.
        changed = bool(report)
        touched = report.touched_predicates() if changed else frozenset()
        alive = []
        for subscription in self._subscriptions:
            if not subscription.active:
                continue  # pruned
            alive.append(subscription)
            if not changed or not subscription._wants(touched):
                continue
            if subscription.graph is not None and report.graph != subscription.graph:
                continue  # scoped to another graph's commits
            try:
                subscription._deliver(report, graph)
            except Exception as error:  # a subscriber must never poison a commit
                subscription.error = error
        self._subscriptions = alive

    def _unhook(self) -> None:
        """Replace the bound-method hooks the distributors and the input
        manager hold with a no-op.  Those hooks point back at the engine,
        so while they stand a closed engine, its store and its dictionary
        wait for a full garbage collection; without them reference
        counting frees it.  Reads that need no hook keep working."""
        for hooked in (*self.distributors, self.input_manager):
            hooked.dispatch = hooked.on_new = _closed_hook

    def _check_open(self) -> None:
        if self._closed:
            raise SliderError("reasoner is closed")
        self._raise_errors()

    def _raise_errors(self) -> None:
        # Fail closed: a failed firing leaves the store and the change
        # log holding a partial delta that no journal record describes,
        # so every later call raises rather than report or replicate it.
        if self._errors:
            cause = self._errors[0]
            raise SliderError(f"rule module failed: {cause!r}") from cause

    def _dispatch(
        self,
        triples: Sequence[EncodedTriple],
        table: tuple[dict[int, tuple[int, ...]], tuple[int, ...]] | None = None,
    ) -> None:
        """Route new stored triples to every matching rule buffer.

        Dispatch is the concatenation of the predicate routing table and
        the universal-input rules (paper Figure 2's "Universal Input").
        ``table`` replaces both for a closed-inheritance rule's own
        conclusions, which skip that rule unless they carry its edge
        predicate.
        """
        if table is None:
            routing, universal = self._routing, self._universal
        else:
            routing, universal = table
        if routing:
            per_rule: dict[int, list[EncodedTriple]] = {}
            for triple in triples:
                targets = routing.get(triple[1])
                if targets:
                    for index in targets:
                        per_rule.setdefault(index, []).append(triple)
            for index, batch in per_rule.items():
                self._deliver(index, batch)
        activations = self._activation
        for index in universal:
            activation = activations[index]
            if activation is not None:
                if not any(self.store.has_predicate(p) for p in activation):
                    activating = [t for t in triples if t[1] in activation]
                    if activating:
                        self._deliver(index, activating)
                    continue
                # Active once, live for good: delivering everything is
                # always complete (the filter only saves work), so the
                # store is never probed for this rule again.
                activations[index] = None
            self._deliver(index, triples)

    def _deliver(self, index: int, batch: Sequence[EncodedTriple]) -> None:
        buffer = self.modules[index].buffer
        for full_batch in buffer.put_many(batch):
            if self.trace.enabled:
                self.trace.record(
                    "buffer_full",
                    rule=self.modules[index].rule.name,
                    size=len(full_batch),
                )
            self._schedule(index, full_batch, _CAUSE_SIZE)

    def _schedule(self, index: int, batch: list[EncodedTriple], cause: str) -> None:
        """Hand a full or stale buffer's batch to the pool."""
        with self._idle:
            self._pending += 1
        self._executor.submit(self._run_module, index, batch, cause)

    def _run_module(
        self, index: int, batch: list[EncodedTriple], cause: str
    ) -> None:
        """One rule-module instance: a pool task, or (cause ``flush``) a
        drained batch firing on the committing thread, which stays out of
        the ``_pending`` / ``_idle`` accounting."""
        pooled = cause != _CAUSE_FLUSH
        try:
            if _obs.REGISTRY.enabled:
                (_FIRINGS_POOL if pooled else _FIRINGS_INLINE).inc()
            module = self.modules[index]
            if self.trace.enabled:
                self.trace.record(
                    "rule_start", rule=module.rule.name, size=len(batch), cause=cause
                )
            started = time.perf_counter()
            derived = module.execute(self.store, batch, self.vocab)
            kept = self.distributors[index].collect(derived)
            self._changes.record_timing(
                module.rule.name, time.perf_counter() - started
            )
            if self.trace.enabled:
                self.trace.record(
                    "rule_end",
                    rule=module.rule.name,
                    derived=len(derived),
                    kept=len(kept),
                )
            if self.adaptive is not None:
                adjusted = self.adaptive.observe(
                    module.rule.name, len(batch), len(kept)
                )
                if adjusted and self.trace.enabled:
                    self.trace.record(
                        "adapt",
                        adjustments=self.adaptive.adjustments,
                        capacities=self.adaptive.capacities(),
                    )
        except BaseException as error:  # surfaced at the next flush/add
            self._errors.append(error)
        finally:
            if pooled:
                with self._idle:
                    self._pending -= 1
                    if self._pending == 0:
                        self._idle.notify_all()

    def _wait_idle(self) -> None:
        # Every pool task this thread caused counted itself in before it
        # was submitted, so a zero read needs no lock.
        if not self._pending:
            return
        with self._idle:
            while self._pending > 0:
                self._idle.wait()

    def _sweep_timeouts(self) -> None:
        """Background sweeper: flush buffers inactive beyond the timeout."""
        interval = max(self.timeout / 4.0, 0.005)
        while not self._sweeper_stop.wait(interval):
            for index, module in enumerate(self.modules):
                batch = module.buffer.flush_if_stale(self.timeout)
                if batch:
                    if self.trace.enabled:
                        self.trace.record(
                            "buffer_timeout", rule=module.rule.name, size=len(batch)
                        )
                    self._schedule(index, batch, _CAUSE_TIMEOUT)
