"""The write pipeline: many callers, one commit per key per drain round.

Every ``POST /apply`` costs a full commit — quiesce, fixpoint, change-log
snapshot, journal fsync when durable.  Under concurrent writers that
cost should be paid *per round*, not per caller: the pipeline queues
submissions, takes a round of them on a dedicated drain thread, hands
each key's batch to ``commit_fn(key, deltas)`` as the sequence of
submitted :class:`~repro.reasoner.delta.Delta` objects, and resolves
every waiter of the batch with the shared revision's
:class:`~repro.reasoner.delta.InferenceReport`.

This is the only drain loop in the system.  Queues are **keyed**: the
default graph is the single key ``None``; the multi-tenant front end
(:class:`~repro.tenancy.fairshare.FairShareCoalescer`) keys by tenant.
A round is **deficit round robin** over the backlogged keys — each earns
``weight * quantum`` credits and spends them popping submissions — and
an unbounded quantum with one key *is* "take the whole queue" FIFO, so
one policy serves both.

Netting a batch to its user-level outcome is the engine's job
(``apply_many`` on a :class:`~repro.reasoner.engine.Slider` or a
:class:`~repro.sharding.cluster.ShardedReasoner`), through the one rule
in :func:`~repro.reasoner.delta.net_deltas`: **last-writer-wins in
arrival order**, the state a sequential execution of the submissions
would reach.  Within one submission the usual transactional semantics
hold (its delta is net-normalized on construction).
"""

from __future__ import annotations

import contextlib
import math
import threading
from collections import deque
from typing import Callable, Hashable, Iterable, Sequence

from ..obs import TRACER, instruments as _obs
from ..rdf.terms import Triple
from ..reasoner.delta import Delta, InferenceReport

__all__ = ["CommitResult", "PendingWrite", "WriteCoalescer", "CoalescerClosedError"]


class CoalescerClosedError(RuntimeError):
    """The write queue is shut down; no further submissions accepted."""


class CommitResult:
    """What one drained batch committed: shared by all its submitters."""

    __slots__ = ("revision", "report", "coalesced")

    def __init__(self, revision: int, report: InferenceReport, coalesced: int):
        self.revision = revision
        self.report = report
        #: How many submissions were netted into this revision.
        self.coalesced = coalesced

    def __repr__(self):
        return f"<CommitResult revision={self.revision} coalesced={self.coalesced}>"


class PendingWrite:
    """A queued submission; :meth:`wait` blocks until its commit lands."""

    __slots__ = ("delta", "trace_id", "_event", "_result", "_error")

    def __init__(self, delta: Delta, trace_id: str | None = None):
        self.delta = delta
        #: Client trace id riding this write into its coalesced commit
        #: span (minted/honored at the HTTP edge; may be ``None``).
        self.trace_id = trace_id
        self._event = threading.Event()
        self._result: CommitResult | None = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """True once the write committed or failed (``wait`` won't block)."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> CommitResult:
        """Block until the commit containing this write completes."""
        if self._event.is_set():
            waited = False
        else:
            waited = True
            _obs.COALESCER_WAITERS.inc()
        try:
            if not self._event.wait(timeout):
                raise TimeoutError("write was not committed in time")
        finally:
            if waited:
                _obs.COALESCER_WAITERS.dec()
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: CommitResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


class _KeyQueue:
    """One key's pending writes plus its DRR and counter bookkeeping."""

    __slots__ = ("pending", "deficit", "submitted", "commits", "rejected")

    def __init__(self):
        self.pending: deque[PendingWrite] = deque()
        #: Unspent service credits (carried while backlogged, forfeited
        #: when the queue empties — classic DRR).
        self.deficit = 0.0
        self.submitted = 0
        self.commits = 0
        self.rejected = 0


class WriteCoalescer:
    """Single-drainer keyed write queue in front of a commit pipeline.

    ``commit_fn(key, deltas)`` is called on the drain thread with one
    key's drained batch — the submitted deltas in arrival order — and
    must commit them as one revision and return its report.  The service
    passes a closure that also advances the read views before waiters
    resume, so a caller can immediately read its own write.  Only the
    drain thread ever calls it, so checks inside it cannot race another
    writer of the same engine.

    ``tick`` is the coalescing window: after waking on the first queued
    submission the drainer sleeps this long so a burst can pile up.

    The scheduling policy is deficit round robin: per round, each
    backlogged key drains up to ``weight_fn(key) * quantum`` submissions.
    The defaults — one key, an unbounded quantum — are the plain FIFO
    coalescer: each round takes the whole queue.  Bounding a queue is
    admission policy, which a subclass supplies (:meth:`_admit`).
    """

    def __init__(
        self,
        commit_fn: Callable[[Hashable, Sequence[Delta]], InferenceReport],
        tick: float = 0.002,
        weight_fn: Callable[[Hashable], float] | None = None,
        quantum: float = math.inf,
    ):
        if tick < 0:
            raise ValueError(f"tick must be >= 0, got {tick}")
        if quantum < 1:
            raise ValueError(f"quantum must be >= 1, got {quantum}")
        self._commit = commit_fn
        self._tick = tick
        self._weight = weight_fn or (lambda key: 1.0)
        self._quantum = quantum
        self._cond = threading.Condition()
        self._queues: dict[Hashable, _KeyQueue] = {}
        #: Key service order; rotated one step per round so no key is
        #: permanently first.
        self._rotation: deque[Hashable] = deque()
        self._queued = 0
        self._closed = False
        self._paused = False
        # Statistics (drain-thread writes, reader races are benign).
        self.commits = 0
        self.submitted = 0
        self.failed = 0
        self.rounds = 0
        self.max_coalesced = 0
        self._drainer = threading.Thread(
            target=self._drain_loop, name="slider-write-coalescer", daemon=True
        )
        self._drainer.start()

    # --- submission ---------------------------------------------------------
    def submit(
        self,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        trace_id: str | None = None,
        key: Hashable = None,
    ) -> PendingWrite:
        """Queue one write on ``key``'s queue; returns immediately
        with its pending handle."""
        pending = PendingWrite(Delta(assertions, retractions), trace_id)
        with self._cond:
            if self._closed:
                raise CoalescerClosedError("write queue is closed")
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = _KeyQueue()
                self._rotation.append(key)
            self._admit(key, queue)
            queue.pending.append(pending)
            queue.submitted += 1
            self.submitted += 1
            self._queued += 1
            _obs.COALESCER_SUBMITTED.inc()
            _obs.COALESCER_QUEUE_DEPTH.inc()
            self._cond.notify_all()
        return pending

    def apply(self, *write, timeout: float | None = 30.0, **options) -> CommitResult:
        """Submit and wait: the blocking convenience most callers want.

        Takes exactly :meth:`submit`'s arguments (``trace_id=``
        included) plus the ``timeout`` for the wait.
        """
        return self.submit(*write, **options).wait(timeout)

    def _admit(self, key: Hashable, queue: _KeyQueue) -> None:
        """Admission hook, under the lock just before the write joins
        ``queue``: raise to shed it.  The base admits everything."""

    def _drained(self, key: Hashable, queue: _KeyQueue) -> None:
        """Hook, under the lock, after a round popped from ``queue``."""

    # --- test/ops hooks -----------------------------------------------------
    @contextlib.contextmanager
    def paused(self):
        """Hold the drain loop; queued writes coalesce until release.

        Deterministic coalescing for tests and for operational batching
        (e.g. pause during a bulk load, resume for one big commit).
        """
        with self._cond:
            self._paused = True
        try:
            yield self
        finally:
            with self._cond:
                self._paused = False
                self._cond.notify_all()

    def stats(self) -> dict[str, int | float]:
        """Queue counters (submitted/commits/failed/queued) for ``/stats``."""
        return {
            "submitted": self.submitted,
            "commits": self.commits,
            "failed": self.failed,
            "max_coalesced": self.max_coalesced,
            "queued": self._queued,
            "tick_seconds": self._tick,
        }

    # --- lifecycle ----------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Stop accepting writes, drain what is queued, join the drainer."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._paused = False
            self._cond.notify_all()
        self._drainer.join(timeout)

    # --- drain loop ---------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closed and (not self._queued or self._paused):
                    self._cond.wait()
                if self._closed and not self._queued:
                    return
                draining_on_close = self._closed
            if self._tick and not draining_on_close:
                # The coalescing window: let a burst accumulate.  Closing
                # skips it — shutdown drains immediately.
                threading.Event().wait(self._tick)
            with self._cond:
                # A pause can begin while the tick sleep runs; draining
                # anyway would split the paused caller's batch across two
                # commits and break arrival-order coalescing.  Hold here
                # until resumed (or closing, which must drain).
                while not self._closed and self._paused:
                    self._cond.wait()
                batches = self._take_round()
            for key, batch in batches:
                self._commit_batch(key, batch)

    def _take_round(self) -> list[tuple[Hashable, list[PendingWrite]]]:
        """One DRR service round (called under the lock).

        Every backlogged key earns ``weight * quantum`` credits and
        spends them popping submissions; the rotation advances one step
        so round-start position is itself fair.
        """
        batches: list[tuple[Hashable, list[PendingWrite]]] = []
        for key in self._rotation:
            queue = self._queues[key]
            if not queue.pending:
                queue.deficit = 0.0
                continue
            queue.deficit += max(self._weight(key), 1e-9) * self._quantum
            take = int(min(len(queue.pending), queue.deficit))
            if take < 1:
                continue
            queue.deficit -= take
            batches.append((key, [queue.pending.popleft() for _ in range(take)]))
            self._queued -= take
            # inc/dec, not set: the gauge is process-wide and a server
            # may run two pipelines (default graph + tenants).
            _obs.COALESCER_QUEUE_DEPTH.dec(take)
            self._drained(key, queue)
            if not queue.pending:
                queue.deficit = 0.0
        self._rotation.rotate(-1)
        self.rounds += 1
        return batches

    def _commit_batch(self, key: Hashable, batch: list[PendingWrite]) -> None:
        # One commit span shared by every writer of this batch: the
        # engine/sharding/subscription spans opened while commit_fn runs
        # on this drain thread nest under it, so a client trace id is
        # findable on the whole commit subtree.
        attrs = {"coalesced": len(batch)}
        if key is not None:  # the default graph's span carries no key
            attrs["tenant"] = key
        trace_ids = [p.trace_id for p in batch if p.trace_id]
        with TRACER.span("commit", trace_ids=trace_ids, **attrs) as span:
            try:
                report = self._commit(key, [pending.delta for pending in batch])
            except BaseException as error:  # noqa: BLE001 - waiters get the cause
                # Fail the batch, not the loop: the drainer keeps serving.
                span.set(error=type(error).__name__)
                self.failed += len(batch)
                _obs.COALESCER_FAILED.inc(len(batch))
                for pending in batch:
                    pending._fail(error)
                return
            span.set(revision=report.revision)
            self.commits += 1
            self.max_coalesced = max(self.max_coalesced, len(batch))
            queue = self._queues.get(key)  # None once forgotten
            if queue is not None:
                queue.commits += 1
            _obs.COALESCER_COMMITS.inc()
            _obs.COALESCER_BATCH_SIZE.observe(len(batch))
            result = CommitResult(report.revision, report, len(batch))
            for pending in batch:
                pending._resolve(result)

    def __repr__(self):
        return (
            f"<{type(self).__name__} keys={len(self._queues)} "
            f"commits={self.commits} submitted={self.submitted} "
            f"queued={self._queued}>"
        )
