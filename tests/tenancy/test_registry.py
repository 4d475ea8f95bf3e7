"""Tenant registry: quotas, name validation, tenants.json round-trip."""

import pytest

from repro.tenancy import (
    TenancyError,
    TenantQuota,
    TenantRegistry,
    UnknownTenantError,
    tenant_graph_iri,
)
from repro.tenancy.registry import validate_tenant_name


class TestQuota:
    def test_defaults_are_unlimited(self):
        quota = TenantQuota()
        assert quota.max_triples is None
        assert quota.writes_per_second is None
        assert quota.weight == 1.0

    def test_round_trips_through_dict(self):
        quota = TenantQuota(max_triples=100, writes_per_second=5.0, weight=2.5)
        assert TenantQuota.from_dict(quota.as_dict()) == quota

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_triples": 0},
            {"max_triples": -1},
            {"max_triples": True},
            {"writes_per_second": 0},
            {"weight": 0},
            {"burst": -5},
        ],
    )
    def test_invalid_limits_rejected(self, kwargs):
        with pytest.raises(TenancyError):
            TenantQuota(**kwargs)

    def test_unknown_fields_rejected(self):
        with pytest.raises(TenancyError):
            TenantQuota.from_dict({"max_tripels": 10})


class TestNames:
    @pytest.mark.parametrize("name", ["acme", "Tenant-1", "a.b_c", "x" * 64])
    def test_valid(self, name):
        assert validate_tenant_name(name) == name

    @pytest.mark.parametrize("name", ["", "-lead", ".lead", "a/b", "a b", "x" * 65, None])
    def test_invalid(self, name):
        with pytest.raises(TenancyError):
            validate_tenant_name(name)

    def test_graph_iri(self):
        assert tenant_graph_iri("acme") == "urn:tenant:acme"


class TestRegistry:
    def test_closed_registry_rejects_unknown(self):
        registry = TenantRegistry()
        with pytest.raises(UnknownTenantError):
            registry.quota("ghost")

    def test_open_registry_auto_registers(self):
        default = TenantQuota(max_triples=10)
        registry = TenantRegistry(default_quota=default)
        assert registry.quota("fresh") == default
        assert "fresh" in registry

    def test_register_and_unregister(self):
        registry = TenantRegistry()
        registry.register("acme", TenantQuota(weight=3.0))
        assert registry.quota("acme").weight == 3.0
        registry.unregister("acme")
        assert "acme" not in registry
        with pytest.raises(UnknownTenantError):
            registry.unregister("acme")

    def test_listing_is_sorted(self):
        registry = TenantRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(name)
        assert list(registry) == ["alpha", "mid", "zeta"]

    def test_tenants_json_round_trip(self, tmp_path):
        registry = TenantRegistry(default_quota=TenantQuota(writes_per_second=2.0))
        registry.register("acme", TenantQuota(max_triples=50, weight=2.0))
        registry.register("beta")
        path = registry.save(tmp_path)
        assert path.name == "tenants.json"
        loaded = TenantRegistry.load(tmp_path)
        assert list(loaded) == ["acme", "beta"]
        assert loaded.quota("acme") == TenantQuota(max_triples=50, weight=2.0)
        assert loaded.default_quota == TenantQuota(writes_per_second=2.0)

    def test_save_is_durable_unless_told_otherwise(self, tmp_path, fsynced):
        """A registration answered 200 must survive a power cut: the
        file is fsynced before the rename and the directory after."""
        registry = TenantRegistry()
        registry.register("acme")
        registry.save(tmp_path / "lax", fsync=False)
        assert not fsynced(tmp_path / "lax") and not fsynced(
            tmp_path / "lax" / "tenants.json"
        )
        path = registry.save(tmp_path / "strict")
        assert fsynced(path) and fsynced(tmp_path / "strict")
        assert not list(tmp_path.rglob("*.tmp"))

    def test_load_rejects_unknown_version(self, tmp_path):
        (tmp_path / "tenants.json").write_text('{"version": 99, "tenants": {}}')
        with pytest.raises(TenancyError):
            TenantRegistry.load(tmp_path)
