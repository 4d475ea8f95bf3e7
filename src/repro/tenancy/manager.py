"""The multi-tenant serving facade: one engine per tenant.

Named graphs alone cannot give hard tenant isolation on a shared
engine — two tenants asserting the *same* triple would share one store
row (and one graph tag), and rule conclusions are dataset-wide.  The
:class:`TenantManager` therefore keeps **one Slider per tenant**: each
tenant's closure, change log, journal, snapshot, views and
subscriptions are physically its own, which is what makes the
differential guarantee (N interleaved tenants ≡ N isolated engines)
structural rather than statistical.

Named graphs still do real work inside each tenant engine: every write
is applied as ``Delta(graph=urn:tenant:<name>)``, so the store's graph
column, the WAL's graph label and both snapshot formats are exercised
end-to-end by ordinary tenant traffic, and a tenant's explicit triples
are recoverable as a set (``triples(tenant)``) distinct from the
engine's inferred closure.

The write path stacks the three admission layers in order::

    apply(tenant, ...) ── rate gate (429) ── queue bound (429)
                       ── fair-share DRR drain ── quota gate (413)
                       ── engine.apply(Delta(graph=tenant))

The quota gate runs on the drain thread immediately before the
engine's ``apply`` — the only writer of that engine — so a
quota-rejected batch is atomic: nothing was staged, journaled or
committed.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..rdf.terms import IRI, Triple
from ..reasoner.delta import Delta, InferenceReport, net_deltas
from ..reasoner.engine import Slider
from ..reasoner.subscription import Subscription
from ..server.coalescer import CommitResult, PendingWrite
from ..server.service import SubscriptionChannel
from ..server.views import ReadView, ViewRegistry
from ..store.graph import Graph
from .admission import AdmissionController
from .errors import QuotaExceededError, TenancyError
from .fairshare import FairShareCoalescer
from .registry import TenantRegistry, tenant_graph_iri, validate_tenant_name

__all__ = ["TenantManager", "TenantScope"]


class TenantScope:
    """One tenant's runtime state — engine, views, subscriptions — and
    its serving surface.

    Where a request touches it, the scope is shaped like the shared
    :class:`~repro.server.service.ReasoningService` — ``graph(at)``,
    ``apply(...)``, ``subscribe_channel(patterns)`` — so the HTTP layer
    resolves one scope per request instead of branching per call.
    """

    __slots__ = (
        "manager", "name", "graph_iri", "engine", "views", "subscriptions", "lock"
    )

    def __init__(self, manager: "TenantManager", name: str, engine: Slider):
        self.manager = manager
        self.name = name
        self.graph_iri = IRI(tenant_graph_iri(name))
        self.engine = engine
        initial = ReadView.from_store(engine.revision, engine.store)
        self.views = ViewRegistry(initial, retain=4)
        self.subscriptions: list[Subscription] = []
        self.lock = threading.Lock()

    def view(self, at: int | None = None) -> ReadView:
        """The current snapshot view, or the retained one pinned ``at``."""
        return self.views.current() if at is None else self.views.at(at)

    def graph(self, at: int | None = None) -> Graph:
        """Term-level graph over a snapshot view — the HTTP read path.

        The dictionary is shared with the engine (term ids only grow, so
        decoding against an older view is safe) while the store is the
        immutable pinned view.
        """
        return Graph(self.engine.dictionary, self.view(at))

    def apply(
        self,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        timeout: float | None = 30.0,
        trace_id: str | None = None,
    ) -> CommitResult:
        """Admit, queue and wait for one write (``TenantManager.apply``)."""
        return self.manager.apply(
            self.name, assertions, retractions, timeout=timeout, trace_id=trace_id
        )

    def subscribe_channel(self, patterns: Sequence) -> SubscriptionChannel:
        """A queue-backed subscription for one streaming client.

        The same bounded :class:`~repro.server.service.SubscriptionChannel`
        the shared service hands out; counts against the tenant's
        ``max_subscriptions`` quota like any standing query.
        """
        channel = SubscriptionChannel(
            lambda push: self.manager.subscribe(self.name, patterns, push)
        )
        with self.manager._lock:  # ended by TenantManager.close, as in the service
            self.manager._channels = [c for c in self.manager._channels if not c.closed]
            self.manager._channels.append(channel)
        return channel


class TenantManager:
    """Engine-per-tenant serving with quotas, rate gates and fair share.

    ``registry`` decides membership and quotas (open with a
    ``default_quota``, closed without); ``persist_dir`` — when given —
    holds one state directory per tenant plus the persisted
    ``tenants.json``, so a restarted manager recovers every tenant's
    closure and quota.  ``clock`` is forwarded to the rate gate for
    deterministic tests.  Remaining ``slider_options`` configure each
    tenant's engine (default: ``rhodf`` fragment, inline executor).
    """

    def __init__(
        self,
        registry: TenantRegistry | None = None,
        persist_dir: str | Path | None = None,
        coalesce_tick: float = 0.002,
        queue_limit: int = 256,
        quantum: int = 8,
        clock: Callable[[], float] | None = None,
        **slider_options,
    ):
        slider_options.setdefault("fragment", "rhodf")
        slider_options.setdefault("workers", 0)
        slider_options.setdefault("timeout", None)
        self._options = slider_options
        self._persist_dir = None if persist_dir is None else Path(persist_dir)
        if registry is None:
            registry = self._load_or_default()
        self.registry = registry
        self._save_registry()
        admission_args = {} if clock is None else {"clock": clock}
        self.admission = AdmissionController(registry, **admission_args)
        self.writes = FairShareCoalescer(
            self._commit_tenant,
            weight_fn=lambda tenant: self.registry.quota(tenant).weight,
            tick=coalesce_tick,
            queue_limit=queue_limit,
            quantum=quantum,
        )
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantScope] = {}
        self._channels: list[SubscriptionChannel] = []
        self._closed = False

    def _load_or_default(self) -> TenantRegistry:
        if self._persist_dir is not None:
            path = self._persist_dir / "tenants.json"
            if path.exists():
                return TenantRegistry.load(path)
        return TenantRegistry()

    def _save_registry(self) -> None:
        if self._persist_dir is not None:
            self.registry.save(
                self._persist_dir / "tenants.json",
                fsync=self._options.get("persist_fsync", True),
            )

    # --- membership ---------------------------------------------------------
    def register(self, name: str, quota=None):
        """Register (or re-quota) a tenant; persists the registry."""
        effective = self.registry.register(name, quota)
        self._save_registry()
        return effective

    def remove(self, name: str) -> None:
        """Unregister a tenant and tear down its runtime state.

        The tenant's persisted directory is left on disk (operator
        data-retention call, see docs/operations.md); re-registering
        the same name resumes from it.
        """
        self.registry.unregister(name)
        self._save_registry()
        self.admission.forget(name)
        self.writes.forget(name)
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is not None:
            tenant.engine.close()

    def tenants(self) -> list[str]:
        """Registered tenant names (sorted)."""
        return list(self.registry)

    def tenant_graph(self, name: str) -> IRI:
        """The named-graph IRI scoping ``name``'s explicit triples."""
        return IRI(tenant_graph_iri(validate_tenant_name(name)))

    # --- engine management --------------------------------------------------
    def scope(self, name: str) -> TenantScope:
        """The tenant's runtime state, creating its engine lazily; also
        what the HTTP layer routes ``?tenant=`` requests to."""
        self.registry.quota(name)  # membership gate (may auto-register)
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                # Existing engines stay reachable during close() so the
                # final drain can still commit; only *new* engines are
                # refused once shutdown began.
                if self._closed:
                    raise TenancyError("tenant manager is closed")
                options = dict(self._options)
                if self._persist_dir is not None:
                    state_dir = self._persist_dir / name
                    state_dir.mkdir(parents=True, exist_ok=True)
                    options["persist_dir"] = state_dir
                tenant = TenantScope(self, name, Slider(**options))
                self._tenants[name] = tenant
        return tenant

    def engine(self, name: str) -> Slider:
        """The tenant's engine (tests/benchmarks; serving goes through
        :meth:`apply` / :meth:`view`)."""
        return self.scope(name).engine

    # --- write path ---------------------------------------------------------
    def submit(
        self,
        tenant: str,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        trace_id: str | None = None,
    ) -> PendingWrite:
        """Admit and queue one write; returns its pending handle.

        Raises, in gate order: ``UnknownTenantError`` (closed registry),
        :class:`~repro.tenancy.errors.RateLimitedError` (token bucket),
        :class:`~repro.tenancy.errors.AdmissionRejectedError` (queue
        bound).  Quota violations surface from ``wait()`` as
        :class:`~repro.tenancy.errors.QuotaExceededError`.
        """
        validate_tenant_name(tenant)
        self.scope(tenant)  # membership + engine warm-up
        self.admission.admit(tenant)
        return self.writes.submit(tenant, assertions, retractions, trace_id=trace_id)

    def apply(
        self,
        tenant: str,
        assertions: Iterable[Triple] | Triple = (),
        retractions: Iterable[Triple] | Triple = (),
        timeout: float | None = 30.0,
        trace_id: str | None = None,
    ) -> CommitResult:
        """Submit and wait for the tenant's commit (blocking convenience)."""
        return self.submit(
            tenant, assertions, retractions, trace_id=trace_id
        ).wait(timeout)

    def _commit_tenant(self, name: str, deltas: Sequence[Delta]) -> InferenceReport:
        """Drain-thread commit hook: net, quota gate, then the engine apply.

        Only the fair-share drain thread calls this for any tenant, so
        the explicit-count check cannot race another writer — rejection
        here is atomic (no staging, no journal record, no commit).
        """
        tenant = self.scope(name)
        delta = net_deltas(deltas, graph=tenant.graph_iri)
        quota = self.registry.quota(name)
        if quota.max_triples is not None and delta.assertions:
            current = tenant.engine.input_count
            fresh = _fresh_count(tenant.engine, delta.assertions)
            if current + fresh > quota.max_triples:
                raise QuotaExceededError(
                    name, "max_triples", quota.max_triples, current + fresh
                )
        report = tenant.engine.apply(delta)
        tenant.views.advance(report)
        return report

    # --- read path ----------------------------------------------------------
    def view(self, tenant: str, at: int | None = None) -> ReadView:
        """A snapshot-isolated read view of the tenant's closure."""
        return self.scope(tenant).view(at)

    def graph(self, tenant: str) -> Graph:
        """Term-level (live) graph over the tenant's engine store."""
        return self.scope(tenant).engine.graph

    def triples(self, tenant: str) -> list[Triple]:
        """The tenant's *explicit* triples (its named graph's contents)."""
        state = self.scope(tenant)
        return state.engine.triples_in_graph(state.graph_iri)

    def revision(self, tenant: str) -> int:
        """The tenant's committed revision counter."""
        return self.scope(tenant).engine.revision

    # --- subscriptions ------------------------------------------------------
    def subscribe(self, tenant: str, patterns: Sequence, callback=None) -> Subscription:
        """Register a standing BGP on the tenant's engine.

        Counts against the tenant's ``max_subscriptions`` quota
        (cancelled subscriptions are reaped first, so the quota tracks
        live standing queries).
        """
        state = self.scope(tenant)
        quota = self.registry.quota(tenant)
        with state.lock:
            state.subscriptions = [s for s in state.subscriptions if s.active]
            if (
                quota.max_subscriptions is not None
                and len(state.subscriptions) >= quota.max_subscriptions
            ):
                raise QuotaExceededError(
                    tenant,
                    "max_subscriptions",
                    quota.max_subscriptions,
                    len(state.subscriptions) + 1,
                )
            subscription = state.engine.subscribe(
                patterns, callback, graph=state.graph_iri
            )
            state.subscriptions.append(subscription)
        return subscription

    # --- observability ------------------------------------------------------
    def stats(self) -> dict:
        """Global + per-tenant counters (the server's ``/stats`` slice)."""
        with self._lock:
            active = dict(self._tenants)
        tenants = {}
        for name in self.registry:
            tenants[name] = self.tenant_stats(name, _active=active.get(name))
        return {
            "tenants": len(tenants),
            "active_engines": len(active),
            "writes": self.writes.stats(),
            "per_tenant": tenants,
        }

    def summary(self) -> dict:
        """Aggregate counters only — O(1) in the tenant count, safe to
        embed in the global ``/stats`` body even with thousands of
        tenants (per-tenant detail goes through ``/stats?tenant=``)."""
        writes = self.writes.stats()
        writes.pop("tenants", None)
        with self._lock:
            active = len(self._tenants)
        return {
            "tenants": len(self.registry),
            "active_engines": active,
            "writes": writes,
        }

    def tenant_stats(self, name: str, _active: TenantScope | None = None) -> dict:
        """One tenant's counters: engine, queue and admission slices."""
        if _active is None:
            with self._lock:
                _active = self._tenants.get(name)
        stats = {
            "graph": tenant_graph_iri(name),
            "quota": self.registry.quota(name).as_dict(),
            "queue": self.writes.tenant_stats(name),
            "admission": self.admission.stats(name),
        }
        if _active is None:
            stats["engine"] = None
        else:
            engine = _active.engine
            with _active.lock:
                live_subs = sum(1 for s in _active.subscriptions if s.active)
            stats["engine"] = {
                "revision": engine.revision,
                "triples": engine.input_count,
                "inferred": engine.inferred_count,
                "subscriptions": live_subs,
            }
        return stats

    # --- lifecycle ----------------------------------------------------------
    def close(self, timeout: float = 30.0) -> None:
        """Drain queued writes, end streams, then close every tenant engine."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.writes.close(timeout)
        with self._lock:
            tenants, self._tenants = dict(self._tenants), {}
            channels, self._channels = self._channels, []
        for channel in channels:
            channel.close()
        for tenant in tenants.values():
            tenant.engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        return (
            f"<TenantManager tenants={len(self.registry)} "
            f"active={len(self._tenants)}>"
        )


def _fresh_count(engine: Slider, assertions: Sequence[Triple]) -> int:
    """How many of ``assertions`` are not already explicit — computed
    with the non-inserting ``dictionary.lookup`` so a quota rejection
    leaves the engine (dictionary included) untouched."""
    lookup = engine.dictionary.lookup
    explicit = engine.input_manager.explicit
    fresh = 0
    seen: set = set()
    for triple in assertions:
        ids = (lookup(triple.subject), lookup(triple.predicate), lookup(triple.object))
        if None in ids:
            if triple not in seen:
                fresh += 1
                seen.add(triple)
        elif ids not in explicit and ids not in seen:
            fresh += 1
            seen.add(ids)
    return fresh
