"""TenantManager end-to-end: isolation, quotas, persistence, stats.

Carries the PR's differential acceptance proof: N tenants interleaved
through one manager reach exactly the closures N isolated engines
reach.
"""

import weakref

import pytest

from repro import Delta, Slider
from repro.rdf import IRI, RDF, RDFS, Triple, Variable
from repro.tenancy import (
    QuotaExceededError,
    RateLimitedError,
    TenancyError,
    TenantManager,
    TenantQuota,
    TenantRegistry,
    UnknownTenantError,
)

from ..conftest import EX, each_execution_mode

SCHEMA = [
    Triple(EX.Event, RDFS.subClassOf, EX.Thing),
    Triple(EX.knows, RDFS.domain, EX.Person),
]


def typed(tenant: str, i: int) -> Triple:
    return Triple(EX[f"{tenant}-item{i}"], RDF.type, EX.Event)


def make_manager(**kwargs):
    kwargs.setdefault("registry", TenantRegistry(default_quota=TenantQuota()))
    kwargs.setdefault("coalesce_tick", 0.0)
    return TenantManager(**kwargs)


class TestIsolationAndWrites:
    def test_writes_land_in_the_tenant_graph(self):
        with make_manager() as manager:
            result = manager.apply("acme", assertions=[typed("acme", 1)])
            assert result.report.graph == IRI("urn:tenant:acme")
            assert manager.triples("acme") == [typed("acme", 1)]

    def test_tenants_do_not_see_each_other(self):
        with make_manager() as manager:
            manager.apply("acme", assertions=SCHEMA + [typed("acme", 1)])
            manager.apply("beta", assertions=[typed("beta", 1)])
            inferred = Triple(EX["acme-item1"], RDF.type, EX.Thing)
            assert inferred in manager.graph("acme")
            assert inferred not in manager.graph("beta")
            assert manager.triples("beta") == [typed("beta", 1)]

    def test_same_triple_in_two_tenants_stays_isolated(self):
        # The scenario named graphs alone cannot isolate: identical
        # triples from different tenants.  Engine-per-tenant keeps a
        # private copy (and a private retraction) for each.
        shared = Triple(EX.shared, RDF.type, EX.Event)
        with make_manager() as manager:
            manager.apply("acme", assertions=[shared])
            manager.apply("beta", assertions=[shared])
            manager.apply("acme", retractions=[shared])
            assert manager.triples("acme") == []
            assert manager.triples("beta") == [shared]

    def test_unknown_tenant_rejected_by_closed_registry(self):
        registry = TenantRegistry()
        registry.register("only")
        with make_manager(registry=registry) as manager:
            manager.apply("only", assertions=[typed("only", 1)])
            with pytest.raises(UnknownTenantError):
                manager.apply("ghost", assertions=[typed("ghost", 1)])

    def test_closed_manager_rejects_new_engines(self):
        manager = make_manager()
        manager.close()
        with pytest.raises(TenancyError):
            manager.apply("late", assertions=[typed("late", 1)])


class TestDifferentialProof:
    """N interleaved tenants ≡ N isolated engines."""

    @each_execution_mode
    def test_interleaved_equals_isolated(self, execution):
        scripts = {
            "acme": [
                Delta(assertions=SCHEMA + [typed("acme", i) for i in range(4)]),
                Delta(retractions=[typed("acme", 2)]),
                Delta(assertions=[Triple(EX.a, EX.knows, EX.b)]),
            ],
            "beta": [
                Delta(assertions=[typed("beta", i) for i in range(6)]),
                Delta(retractions=[typed("beta", 0), typed("beta", 1)]),
            ],
            "gamma": [
                Delta(assertions=SCHEMA),
                Delta(assertions=[typed("gamma", 9)]),
                Delta(retractions=[typed("gamma", 9)]),
            ],
        }
        rounds = max(len(s) for s in scripts.values())
        with make_manager(**execution) as manager:
            for step in range(rounds):
                for tenant, deltas in scripts.items():
                    if step < len(deltas):
                        manager.apply(
                            tenant,
                            assertions=deltas[step].assertions,
                            retractions=deltas[step].retractions,
                        )
            shared_closures = {
                tenant: set(manager.graph(tenant)) for tenant in scripts
            }
            shared_explicit = {
                tenant: sorted(manager.triples(tenant)) for tenant in scripts
            }
        for tenant, deltas in scripts.items():
            graph = IRI(f"urn:tenant:{tenant}")
            with Slider(
                fragment="rhodf", timeout=None, **execution
            ) as isolated:
                for delta in deltas:
                    isolated.apply(
                        Delta(delta.assertions, delta.retractions, graph=graph)
                    )
                assert shared_closures[tenant] == set(isolated.graph.triples())
                assert shared_explicit[tenant] == sorted(
                    isolated.triples_in_graph(graph)
                )


class TestQuotas:
    def test_max_triples_rejects_atomically(self):
        registry = TenantRegistry()
        registry.register("small", TenantQuota(max_triples=3))
        with make_manager(registry=registry) as manager:
            manager.apply("small", assertions=[typed("small", i) for i in range(3)])
            before = manager.revision("small")
            with pytest.raises(QuotaExceededError) as info:
                manager.apply(
                    "small", assertions=[typed("small", 3), typed("small", 4)]
                )
            assert info.value.quota == "max_triples"
            # Nothing committed, staged or journaled: revision and
            # contents are exactly the pre-reject state.
            assert manager.revision("small") == before
            assert len(manager.triples("small")) == 3

    def test_reasserting_existing_triples_is_not_charged(self):
        registry = TenantRegistry()
        registry.register("small", TenantQuota(max_triples=2))
        with make_manager(registry=registry) as manager:
            manager.apply("small", assertions=[typed("small", 0), typed("small", 1)])
            # At quota, but re-assertion adds no fresh triples.
            manager.apply("small", assertions=[typed("small", 0)])
            with pytest.raises(QuotaExceededError):
                manager.apply("small", assertions=[typed("small", 2)])

    def test_retraction_frees_quota(self):
        registry = TenantRegistry()
        registry.register("small", TenantQuota(max_triples=2))
        with make_manager(registry=registry) as manager:
            manager.apply("small", assertions=[typed("small", 0), typed("small", 1)])
            manager.apply("small", retractions=[typed("small", 0)])
            manager.apply("small", assertions=[typed("small", 2)])
            assert sorted(manager.triples("small")) == sorted(
                [typed("small", 1), typed("small", 2)]
            )

    def test_write_rate_quota_maps_to_rate_limited(self):
        class FakeClock:
            now = 0.0

            def __call__(self):
                return self.now

        registry = TenantRegistry()
        registry.register("slow", TenantQuota(writes_per_second=1.0, burst=1))
        with make_manager(registry=registry, clock=FakeClock()) as manager:
            manager.apply("slow", assertions=[typed("slow", 0)])
            with pytest.raises(RateLimitedError) as info:
                manager.apply("slow", assertions=[typed("slow", 1)])
            assert info.value.retry_after > 0

    def test_subscription_quota(self):
        registry = TenantRegistry()
        registry.register("subby", TenantQuota(max_subscriptions=1))
        with make_manager(registry=registry) as manager:
            x = Variable("x")
            first = manager.subscribe("subby", [(x, RDF.type, EX.Event)])
            with pytest.raises(QuotaExceededError):
                manager.subscribe("subby", [(x, RDF.type, EX.Thing)])
            # Cancelling frees the slot.
            first.cancel()
            manager.subscribe("subby", [(x, RDF.type, EX.Thing)])


class TestSubscriptions:
    def test_subscription_sees_only_its_tenant(self):
        with make_manager() as manager:
            x = Variable("x")
            sub = manager.subscribe("acme", [(x, RDF.type, EX.Event)])
            manager.apply("acme", assertions=[typed("acme", 1)])
            manager.apply("beta", assertions=[typed("beta", 1)])
            events = sub.drain()
            assert len(events) == 1
            assert [b[x] for b in events[0].added] == [EX["acme-item1"]]


class TestViewsAndStats:
    def test_views_advance_with_commits(self):
        with make_manager() as manager:
            manager.apply("acme", assertions=[typed("acme", 1)])
            view = manager.view("acme")
            revision = view.revision
            manager.apply("acme", assertions=[typed("acme", 2)])
            assert manager.view("acme").revision == revision + 1
            # The pinned older view still serves its frozen state.
            assert manager.view("acme", at=revision).revision == revision

    def test_stats_shape(self):
        with make_manager() as manager:
            manager.apply("acme", assertions=[typed("acme", 1)])
            stats = manager.stats()
            assert stats["tenants"] == 1
            slice_ = stats["per_tenant"]["acme"]
            assert slice_["graph"] == "urn:tenant:acme"
            assert slice_["engine"]["triples"] == 1
            assert slice_["queue"]["commits"] == 1
            assert slice_["admission"]["admitted"] == 1
            # A registered-but-idle tenant reports without an engine.
            manager.register("idle")
            assert manager.stats()["per_tenant"]["idle"]["engine"] is None


class TestPersistence:
    def test_restart_recovers_tenants_and_quotas(self, tmp_path):
        registry = TenantRegistry()
        registry.register("acme", TenantQuota(max_triples=100, weight=2.0))
        manager = make_manager(registry=registry, persist_dir=tmp_path)
        try:
            manager.apply("acme", assertions=SCHEMA + [typed("acme", 1)])
        finally:
            manager.close()
        assert (tmp_path / "tenants.json").exists()
        assert (tmp_path / "acme" / "changelog.wal").exists()

        reborn = TenantManager(persist_dir=tmp_path, coalesce_tick=0.0)
        try:
            assert reborn.tenants() == ["acme"]
            assert reborn.registry.quota("acme").weight == 2.0
            assert typed("acme", 1) in reborn.triples("acme")
            inferred = Triple(EX["acme-item1"], RDF.type, EX.Thing)
            assert inferred in reborn.graph("acme")
        finally:
            reborn.close()

    @pytest.mark.parametrize("persist_fsync", (True, False))
    def test_registry_file_follows_persist_fsync(self, tmp_path, fsynced, persist_fsync):
        manager = make_manager(persist_dir=tmp_path, persist_fsync=persist_fsync)
        try:
            manager.register("acme")
        finally:
            manager.close()
        assert fsynced(tmp_path / "tenants.json") == persist_fsync

    def test_remove_keeps_data_but_forgets_tenant(self, tmp_path):
        manager = make_manager(persist_dir=tmp_path)
        try:
            manager.apply("acme", assertions=[typed("acme", 1)])
            manager.remove("acme")
            assert manager.tenants() == []
            # Data retention: the state directory survives removal.
            assert (tmp_path / "acme").exists()
        finally:
            manager.close()


class TestRemovedTenantIsFreed:
    @each_execution_mode
    def test_engine_is_freed_by_reference_counting(self, gc_disabled, execution):
        # A removed tenant's engine, store and dictionary must not stay
        # resident until the next full garbage collection.
        with make_manager(**execution) as manager:
            manager.apply("acme", assertions=SCHEMA + [typed("acme", 1)])
            manager.apply("beta", assertions=[typed("beta", 1)])
            engine = weakref.ref(manager.engine("acme"))
            store = weakref.ref(manager.engine("acme").store)
            manager.remove("acme")
            assert engine() is None
            assert store() is None
            assert manager.triples("beta") == [typed("beta", 1)]
