"""Fair-share write coalescing: the tenancy policy on the write pipeline.

A single shared queue is exactly wrong for multi-tenant serving: one
bulk loader submitting thousands of writes fills it and every other
tenant's latency rides behind.  The :class:`FairShareCoalescer` is the
one write pipeline (:class:`~repro.server.coalescer.WriteCoalescer`:
queues, drain loop, commit span, waiter fan-out, pause, close) keyed by
tenant, with the policy that makes it fair:

* **weights and a finite quantum** — the pipeline's deficit round robin
  then divides drain bandwidth by quota weight no matter how deep any
  one queue gets, and a one-write interactive tenant commits within a
  round or two of arriving even while a neighbour has thousands queued;
* **a bounded queue per tenant** — the backpressure half of admission
  control: a full queue rejects with
  :class:`~repro.tenancy.errors.AdmissionRejectedError` (HTTP 429)
  carrying a drain-time ``retry_after`` estimate, so overload sheds at
  submit instead of growing memory without bound;
* **per-tenant visibility** — queue counters, ``saturation()`` for
  ``/healthz``, the per-tenant depth gauge, ``forget()`` on removal.

Each tenant's drained batch reaches ``commit_fn(tenant, deltas)`` — one
commit per tenant per round, on the tenant's own engine.  Because only
the drain thread ever calls ``commit_fn``, pre-commit quota checks
inside it are race-free.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

from ..obs import instruments as _obs
from ..rdf.terms import Triple
from ..reasoner.delta import Delta, InferenceReport
from ..server.coalescer import PendingWrite, WriteCoalescer
from .errors import AdmissionRejectedError

__all__ = ["FairShareCoalescer"]


class FairShareCoalescer(WriteCoalescer):
    """Weighted-fair write coalescer over per-tenant engines.

    ``commit_fn(tenant, deltas)`` commits one tenant's drained batch and
    returns the report; ``weight_fn(tenant)`` supplies the tenant's
    fair-share weight (default 1.0 for everyone).  ``queue_limit``
    bounds each tenant's queue; ``quantum`` scales how many submissions
    one weight unit drains per round.
    """

    def __init__(
        self,
        commit_fn: Callable[[str, Sequence[Delta]], InferenceReport],
        weight_fn: Callable[[str], float] | None = None,
        tick: float = 0.002,
        queue_limit: int = 256,
        quantum: int = 8,
    ):
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self._queue_limit = queue_limit
        super().__init__(commit_fn, tick=tick, weight_fn=weight_fn, quantum=quantum)

    # --- submission ---------------------------------------------------------
    def submit(
        self,
        tenant: str,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        trace_id: str | None = None,
    ) -> PendingWrite:
        """Queue one write on the tenant's queue; never blocks.

        Raises :class:`AdmissionRejectedError` when the tenant's queue
        is at ``queue_limit`` — overload is shed here, with a
        ``retry_after`` estimated from the queue depth, the tenant's
        weight, and the drain tick.
        """
        return super().submit(assertions, retractions, trace_id, key=tenant)

    def _admit(self, tenant: str, queue) -> None:
        depth = len(queue.pending)
        if depth >= self._queue_limit:
            queue.rejected += 1
            # Rounds needed to drain the queue at this tenant's bandwidth,
            # times the coalescing window (floor one tick).
            per_round = max(1.0, self._weight(tenant) * self._quantum)
            raise AdmissionRejectedError(
                tenant,
                queued=depth,
                limit=self._queue_limit,
                retry_after=max(
                    self._tick, (depth / per_round) * max(self._tick, 0.001)
                ),
            )
        _obs.TENANCY_ADMITTED.inc()
        _obs.TENANCY_QUEUE_DEPTH.set_labels(tenant, value=depth + 1)

    def _drained(self, tenant: str, queue) -> None:
        _obs.TENANCY_QUEUE_DEPTH.set_labels(tenant, value=len(queue.pending))

    # --- observability ------------------------------------------------------
    def stats(self) -> dict:
        """Global counters plus a per-tenant slice (queue depth, DRR state)."""
        with self._cond:
            return {
                "submitted": self.submitted,
                "commits": self.commits,
                "failed": self.failed,
                "rounds": self.rounds,
                "queue_limit": self._queue_limit,
                "tick_seconds": self._tick,
                "tenants": {
                    tenant: {
                        **self.tenant_stats(tenant),
                        "weight": self._weight(tenant),
                    }
                    for tenant in sorted(self._queues)
                },
            }

    def saturation(self) -> dict:
        """Aggregate queue saturation for ``/healthz`` pre-overload probes.

        ``max_saturation`` is the most saturated tenant's queue depth
        over the per-tenant limit (1.0 = that tenant's next write takes
        a 429); ``queued`` is the total backlog across tenants.
        """
        with self._cond:
            depths = [len(queue.pending) for queue in self._queues.values()]
            return {
                "queued": self._queued,
                "queue_limit": self._queue_limit,
                "tenants_backlogged": sum(1 for depth in depths if depth),
                "max_saturation": round(
                    max(depths, default=0) / self._queue_limit, 4
                ),
            }

    def tenant_stats(self, tenant: str) -> dict:
        """One tenant's queue counters (zeros for unknown tenants)."""
        with self._cond:
            queue = self._queues.get(tenant)
            if queue is None:
                return {"queued": 0, "submitted": 0, "commits": 0, "rejected_queue": 0}
            return {
                "queued": len(queue.pending),
                "submitted": queue.submitted,
                "commits": queue.commits,
                "rejected_queue": queue.rejected,
            }

    def forget(self, tenant: str) -> None:
        """Drop an idle tenant's queue state (tenant removal)."""
        with self._cond:
            queue = self._queues.get(tenant)
            if queue is not None and not queue.pending:
                del self._queues[tenant]
                with contextlib.suppress(ValueError):
                    self._rotation.remove(tenant)
