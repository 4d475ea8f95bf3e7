"""The concurrent reasoning service: one engine, many readers and writers.

:class:`ReasoningService` is the transport-independent core of the
serving layer (the HTTP front end in :mod:`repro.server.http` is a thin
skin over it; tests and embedders drive it directly):

* **reads** are snapshot-isolated — every query runs against a pinned
  :class:`~repro.server.views.ReadView` (see that module), so readers
  observe exactly one committed revision, never an in-flight apply, and
  never block the write path;
* **writes** funnel through the
  :class:`~repro.server.coalescer.WriteCoalescer` pipeline — concurrent
  ``apply`` calls drained in one tick commit as one revision through
  the engine's ``apply_many`` (a lone ``Slider`` and a sharded cluster
  implement the same protocol), the read views advance, and each
  caller gets the shared revision's
  :class:`~repro.reasoner.delta.InferenceReport`;
* **subscriptions** bridge the engine's standing BGPs to pull-style
  consumers: :meth:`subscribe_channel` queues each revision's binding
  delta for one client (the SSE endpoint drains one channel per
  connection).

Read-your-writes holds: the read views advance *before* a write's
``wait()`` returns, so a client that committed revision N can
immediately query ``at=N`` (or the current view, which is >= N).

With ``persist_dir`` the engine journals every commit; :meth:`close`
drains the write queue and flushes the WAL, so a SIGTERM'd service
leaves a recoverable directory (surfaced in :meth:`stats` after
restart).
"""

from __future__ import annotations

import queue
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..obs import process_rss_bytes
from ..rdf.terms import Triple
from ..reasoner.delta import Delta, InferenceReport
from ..reasoner.engine import Slider
from ..reasoner.subscription import Subscription, SubscriptionEvent
from ..sharding import ShardedReasoner
from ..store.graph import Graph
from ..store.query import TriplePattern
from .coalescer import CommitResult, PendingWrite, WriteCoalescer
from .views import ReadView, ViewRegistry

__all__ = ["ReasoningService", "SubscriptionChannel", "ServiceClosedError"]


class ServiceClosedError(RuntimeError):
    """The service has been shut down."""


#: Sentinel a channel queue delivers when the stream ends.
_CHANNEL_CLOSED = object()

#: Events a subscription channel may buffer before its consumer is
#: declared too slow and disconnected (an unbounded queue would let one
#: stalled SSE client grow memory without limit under sustained writes).
SUBSCRIPTION_QUEUE_LIMIT = 1024


class SubscriptionChannel:
    """One client's queue of :class:`SubscriptionEvent` binding deltas.

    The engine pushes events from the committing thread; the consumer
    pops them with :meth:`get` at its own pace.  ``None`` from
    :meth:`get` means "no event within the timeout" (emit a heartbeat
    and keep waiting); :attr:`closed` turning true means the stream
    ended (client cancel or service shutdown).

    The queue is bounded: a consumer that falls
    :data:`SUBSCRIPTION_QUEUE_LIMIT` events behind is disconnected
    (subscription cancelled, channel closed) rather than allowed to
    buffer the write stream without limit.

    ``subscribe(push)`` registers the standing query with ``push`` as
    its callback and returns the :class:`Subscription` — the shared
    service and a tenant scope differ only in that callable.
    """

    def __init__(
        self,
        subscribe: Callable[[Callable[[SubscriptionEvent], None]], Subscription],
    ):
        # The queue exists before the subscription so a commit landing
        # right after registration cannot race construction.
        self._queue: "queue.Queue" = queue.Queue(maxsize=SUBSCRIPTION_QUEUE_LIMIT)
        self.closed = False
        self.subscription: Subscription | None = None  # until registration returns
        self.subscription = subscribe(self._push)

    def _push(self, event: SubscriptionEvent) -> None:
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            # Slow-consumer policy: drop the subscriber, never the
            # committing thread.
            if self.subscription is not None:
                self.close()

    @property
    def seeded_revision(self) -> int:
        """The revision :meth:`initial_solutions` was materialized at
        (recorded by the engine under the commit lock, so the pair is
        consistent even with commits racing the registration)."""
        return self.subscription.seeded_revision

    def get(self, timeout: float | None = None) -> SubscriptionEvent | None:
        """Next event, ``None`` on timeout; raises nothing on close (the
        caller observes :attr:`closed`)."""
        if self.closed and self._queue.empty():
            return None
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _CHANNEL_CLOSED:
            self.closed = True
            return None
        return item

    def close(self) -> None:
        """Cancel the underlying subscription and end the stream.

        Never blocks (it is also called from the committing thread when
        a consumer falls too far behind): the sentinel is best-effort,
        :attr:`closed` is authoritative.
        """
        if not self.closed:
            self.subscription.cancel()
            self.closed = True
            try:
                self._queue.put_nowait(_CHANNEL_CLOSED)
            except queue.Full:
                pass  # consumer sees `closed` at its next poll

    def initial_solutions(self) -> list[dict]:
        """The solution set materialized at registration time."""
        return self.subscription.solutions


class ReasoningService:
    """Concurrency front end over one :class:`~repro.reasoner.engine.Slider`.

    Parameters mirror ``Slider`` (``fragment``, ``workers``,
    ``persist_dir``, ...) and are forwarded; alternatively pass a
    pre-built engine as ``reasoner`` (the service takes ownership and
    closes it).  ``coalesce_tick`` is the write-batching window in
    seconds; ``retain_views`` is how many recent revisions stay pinnable
    via ``view(at=...)``.

    ``shards > 1`` builds a partitioned
    :class:`~repro.sharding.cluster.ShardedReasoner` instead of a
    single engine; the write pipeline is the same one, and the
    cluster's ``apply_many`` commits each drain tick's submissions as
    concurrent per-shard sub-deltas (one global revision).  The
    read/subscription surface is unchanged — the cluster duck-types
    the engine.  ``router`` picks the partition key
    (``"subject"`` or ``"predicate"``); it is ignored for ``shards=1``.
    A pre-built :class:`ShardedReasoner` may equally be passed as
    ``reasoner``.
    """

    def __init__(
        self,
        reasoner: Slider | None = None,
        coalesce_tick: float = 0.002,
        retain_views: int = 8,
        role: str = "leader",
        quiesce: bool = True,
        shards: int = 1,
        router: str = "subject",
        **slider_options,
    ):
        if reasoner is not None and slider_options:
            raise ValueError(
                "pass either a pre-built reasoner or Slider options, not both"
            )
        if reasoner is not None and shards != 1:
            raise ValueError(
                "pass either a pre-built reasoner or shards, not both"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if role not in ("leader", "follower"):
            raise ValueError(f"role must be 'leader' or 'follower', got {role!r}")
        if reasoner is None:
            if shards > 1:
                reasoner = ShardedReasoner(
                    shards=shards, router=router, **slider_options
                )
            else:
                reasoner = Slider(**slider_options)
        self.reasoner = reasoner
        self._closed = False
        self._lock = threading.Lock()
        #: Unix time this service came up; feeds ``stats()``'s
        #: ``uptime_seconds``.
        self.started_at = time.time()
        self._channels: list[SubscriptionChannel] = []
        #: ``"leader"`` (accepts writes) or ``"follower"`` (read replica
        #: — the HTTP layer rejects/forwards ``/apply``).
        self.role = role
        #: The leader's base URL (followers; used for 307 forwarding).
        self.leader_url: str | None = None
        #: Live :class:`~repro.replication.follower.ReplicationStatus`
        #: on followers; ``None`` on leaders/standalone nodes.
        self.replication = None
        #: The attached :class:`~repro.replication.feed.ChangeFeed`
        #: (nodes that can be followed), or ``None``.
        self.feed = None
        # Quiesce before the first view: axioms (and any preloaded data)
        # must be part of the initial image, recovery replay is already
        # complete by construction.  Replicas skip the flush — their
        # engine is settled by the follower and must not consume a
        # revision id of its own (ids belong to the leader).
        if quiesce:
            self.reasoner.flush()
        self.views = ViewRegistry(
            ReadView.from_store(self.reasoner.revision, self.reasoner.store),
            retain=retain_views,
        )
        self.writes = WriteCoalescer(self._commit, tick=coalesce_tick)

    # --- write path ---------------------------------------------------------
    def _commit(self, key: None, deltas: Sequence[Delta]) -> InferenceReport:
        """Drain-thread hook: one engine revision for the drained batch
        (the default graph is the pipeline's only key), then view
        publication — before any waiter resumes."""
        report = self.reasoner.apply_many(deltas)
        self.views.advance(report)
        return report

    def apply(
        self,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        timeout: float | None = 30.0,
        trace_id: str | None = None,
    ) -> CommitResult:
        """Commit a write batch (coalesced); blocks for its revision.

        Returns the :class:`~repro.server.coalescer.CommitResult` whose
        report covers the whole coalesced revision this write joined.
        ``trace_id`` rides into the shared commit span (see
        :mod:`repro.obs.tracing`).
        """
        self._check_open()
        return self.writes.apply(
            assertions, retractions, timeout=timeout, trace_id=trace_id
        )

    def submit(
        self,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        trace_id: str | None = None,
    ) -> PendingWrite:
        """Queue a write without waiting (pipelined callers)."""
        self._check_open()
        return self.writes.submit(assertions, retractions, trace_id=trace_id)

    def commit_replicated(self, revision: int, delta: Delta) -> InferenceReport:
        """Commit one leader revision on a replica (bypasses coalescing).

        The follower's single-threaded tail calls this for each feed
        record: the engine commits under the leader's exact revision id
        (:meth:`~repro.reasoner.engine.Slider.apply_at`) and the read
        views advance, so ``at=N`` pins, subscriptions and stats behave
        identically to the leader's.
        """
        self._check_open()
        report = self.reasoner.apply_at(revision, delta)
        self.views.advance(report)
        return report

    # --- replication wiring -------------------------------------------------
    def attach_feed(self, feed) -> None:
        """Install the node's outgoing change feed (``GET /feed``)."""
        self.feed = feed

    @property
    def ready(self) -> bool:
        """Readiness (``/readyz``): leaders are ready once constructed
        (recovery happens in ``__init__``); followers once caught up."""
        if self._closed:
            return False
        if self.replication is not None:
            return bool(self.replication.ready)
        return True

    @property
    def replication_lag(self) -> int:
        """Revisions behind the leader (0 on leaders/standalone)."""
        if self.replication is not None:
            return self.replication.lag
        return 0

    # --- read path ----------------------------------------------------------
    def view(self, at: int | None = None) -> ReadView:
        """A snapshot view: the current revision, or pinned ``at`` one.

        Raises :class:`~repro.server.views.RevisionGoneError` when the
        pinned revision has left the retention ring.
        """
        self._check_open()
        if at is None:
            return self.views.current()
        return self.views.at(at)

    def graph(self, at: int | None = None) -> Graph:
        """A term-level :class:`Graph` over a snapshot view.

        The graph shares the engine's dictionary (term ids only grow,
        so decoding against a historical view is always safe) but its
        store is the immutable view — BGP evaluation, pattern matching
        and serialization all run without touching the live store.
        """
        return Graph(self.reasoner.dictionary, self.view(at))

    # --- subscriptions ------------------------------------------------------
    def subscribe(
        self,
        patterns: Sequence[TriplePattern],
        callback: Callable[[SubscriptionEvent], None] | None = None,
    ) -> Subscription:
        """Engine-level subscription passthrough (in-process consumers)."""
        self._check_open()
        return self.reasoner.subscribe(patterns, callback)

    def subscribe_channel(
        self, patterns: Sequence[TriplePattern]
    ) -> SubscriptionChannel:
        """A queue-backed (bounded) subscription for one streaming client."""
        self._check_open()
        channel = SubscriptionChannel(
            lambda push: self.reasoner.subscribe(patterns, push)
        )
        with self._lock:
            self._channels.append(channel)
            self._channels = [c for c in self._channels if not c.closed]
        return channel

    # --- inspection ---------------------------------------------------------
    @property
    def revision(self) -> int:
        """The latest published (readable) revision."""
        return self.views.current().revision

    @property
    def persist_dir(self) -> Path | None:
        """The engine's durable state directory (``None`` when in-memory)."""
        return self.reasoner.persist_dir

    def snapshot_bytes(self) -> bytes:
        """The committed state as one snapshot blob (replica bootstrap)."""
        self._check_open()
        return self.reasoner.snapshot_bytes()

    @property
    def sharding(self) -> dict | None:
        """The cluster's topology/counter block, ``None`` on single-node."""
        cluster_stats = getattr(self.reasoner, "cluster_stats", None)
        if cluster_stats is None:
            return None
        return cluster_stats()

    def stats(self) -> dict:
        """One JSON-ready dict: consistency state, engine, writes, views."""
        self._check_open()
        view = self.views.current()
        reasoner = self.reasoner
        recovery = reasoner.recovery
        return {
            "revision": view.revision,
            "role": self.role,
            "ready": self.ready,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "process": {
                "rss_bytes": process_rss_bytes(),
                "started_at": round(self.started_at, 3),
            },
            "sharding": self.sharding,
            "replication": (
                None if self.replication is None else self.replication.as_dict()
            ),
            "feed": None if self.feed is None else self.feed.stats(),
            "triples": len(view),
            "engine": {
                "fragment": reasoner.fragment.name,
                "rules": len(reasoner.rules),
                "workers": reasoner.workers,
                "revision": reasoner.revision,
                "input": reasoner.input_count,
                "inferred": reasoner.inferred_count,
                "store": reasoner.store.stats(),
            },
            "views": {
                "retained": self.views.revisions(),
                "current": view.revision,
                "predicates": view.stats()["predicates"],
            },
            "writes": self.writes.stats(),
            "subscriptions": sum(
                1 for channel in self._channels if not channel.closed
            ),
            "persist": (
                None
                if reasoner.persist_dir is None
                else {"dir": str(reasoner.persist_dir)}
            ),
            "recovery": None if recovery is None else recovery.as_dict(),
        }

    # --- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True after :meth:`close`; further calls raise ``ServiceClosed``."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("reasoning service is closed")

    def close(self) -> None:
        """Drain queued writes, end streams, flush + close the engine.

        Clean-shutdown contract: every write accepted before ``close``
        is committed (and journaled, when durable) before this returns —
        a SIGTERM'd durable service leaves a directory that recovers to
        its exact final revision.
        """
        if self._closed:
            return
        self._closed = True
        self.writes.close()
        if self.feed is not None:
            self.feed.close()
        with self._lock:
            channels, self._channels = self._channels, []
        for channel in channels:
            channel.close()
        self.reasoner.close()

    def __enter__(self) -> "ReasoningService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self):
        state = "closed" if self._closed else f"revision={self.revision}"
        return f"<ReasoningService {state} engine={self.reasoner!r}>"
