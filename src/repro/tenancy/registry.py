"""Tenant identities and quotas, persisted as ``tenants.json``.

A *tenant* is a named, isolated reasoning workspace: its explicit
triples live under the named graph ``urn:tenant:<name>`` inside a
dedicated engine, and every admission decision — write rate, triple
count, standing-query count, queue depth — is taken against the
tenant's :class:`TenantQuota`.

The registry is a single JSON document, written through the atomic
writer every whole-file artifact uses
(:func:`~repro.persist.format.atomic_write`) at start-up and when the
tenant set or a quota changes — never per commit — re-loadable by the CLI and
the server so that a restart serves the same tenant set with the same
limits.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Iterator

from ..persist.format import atomic_write
from .errors import TenancyError, UnknownTenantError

__all__ = ["TenantQuota", "TenantRegistry", "TENANTS_FILENAME", "tenant_graph_iri"]

#: Filename of the persisted registry inside a state directory.
TENANTS_FILENAME = "tenants.json"

#: Tenant names become IRI path segments and directory names, so the
#: alphabet is deliberately narrow.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tenant_graph_iri(name: str) -> str:
    """The named-graph IRI that scopes a tenant's explicit triples."""
    return f"urn:tenant:{name}"


class TenantQuota:
    """Per-tenant limits and the tenant's fair-share weight.

    ``None`` / non-positive limits mean *unlimited*; ``weight`` only
    shapes relative drain bandwidth (it never rejects anything).
    """

    __slots__ = ("max_triples", "max_subscriptions", "writes_per_second", "burst", "weight")

    def __init__(
        self,
        max_triples: int | None = None,
        max_subscriptions: int | None = None,
        writes_per_second: float | None = None,
        burst: int | None = None,
        weight: float = 1.0,
    ):
        self.max_triples = _positive_or_none("max_triples", max_triples)
        self.max_subscriptions = _positive_or_none("max_subscriptions", max_subscriptions)
        if writes_per_second is not None and writes_per_second <= 0:
            raise TenancyError("writes_per_second must be positive (or None)")
        self.writes_per_second = writes_per_second
        #: Token-bucket depth; defaults to one second's worth of writes.
        self.burst = _positive_or_none("burst", burst)
        if weight <= 0:
            raise TenancyError("weight must be positive")
        self.weight = float(weight)

    def as_dict(self) -> dict:
        """JSON-ready form (``tenants.json`` value)."""
        return {
            "max_triples": self.max_triples,
            "max_subscriptions": self.max_subscriptions,
            "writes_per_second": self.writes_per_second,
            "burst": self.burst,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TenantQuota":
        """Inverse of :meth:`as_dict`; unknown keys are rejected."""
        unknown = set(payload) - {slot for slot in cls.__slots__}
        if unknown:
            raise TenancyError(f"unknown quota fields: {sorted(unknown)}")
        return cls(**payload)

    def __eq__(self, other):
        if not isinstance(other, TenantQuota):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"TenantQuota({fields})"


def _positive_or_none(field: str, value: int | None) -> int | None:
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise TenancyError(f"{field} must be a positive int (or None)")
    return value


class TenantRegistry:
    """The mutable, thread-safe map of tenant name -> quota.

    ``default_quota`` (when set) makes the registry *open*: an unknown
    tenant is auto-registered with a copy of the default on first
    touch.  Without it the registry is closed and unknown tenants are
    rejected with :class:`UnknownTenantError` — the multi-tenant
    server's production posture.
    """

    def __init__(self, default_quota: TenantQuota | None = None):
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantQuota] = {}
        self.default_quota = default_quota

    # --- membership --------------------------------------------------------
    def register(self, name: str, quota: TenantQuota | None = None) -> TenantQuota:
        """Add (or re-quota) a tenant; returns the effective quota."""
        validate_tenant_name(name)
        quota = quota or self.default_quota or TenantQuota()
        with self._lock:
            self._tenants[name] = quota
        return quota

    def unregister(self, name: str) -> None:
        """Remove a tenant from the registry (engine teardown is the
        manager's job)."""
        with self._lock:
            if name not in self._tenants:
                raise UnknownTenantError(name)
            del self._tenants[name]

    def quota(self, name: str) -> TenantQuota:
        """The tenant's quota; auto-registers when the registry is open."""
        with self._lock:
            existing = self._tenants.get(name)
        if existing is not None:
            return existing
        if self.default_quota is None:
            raise UnknownTenantError(name)
        return self.register(name)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._tenants))

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def as_dict(self) -> dict:
        """JSON document form (the ``tenants.json`` payload)."""
        with self._lock:
            return {
                "version": 1,
                "default_quota": (
                    None if self.default_quota is None else self.default_quota.as_dict()
                ),
                "tenants": {
                    name: quota.as_dict()
                    for name, quota in sorted(self._tenants.items())
                },
            }

    # --- persistence -------------------------------------------------------
    def save(self, path, fsync: bool = True) -> Path:
        """Atomically and (with ``fsync``) durably write ``tenants.json``
        — a registration answered 200 must survive a power cut; ``path``
        may be the file or its directory."""
        path = _registry_path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write(path, document.encode("utf-8"), fsync=fsync)
        return path

    @classmethod
    def load(cls, path) -> "TenantRegistry":
        """Load a registry previously written by :meth:`save`."""
        path = _registry_path(path)
        payload = json.loads(path.read_text("utf-8"))
        if payload.get("version") != 1:
            raise TenancyError(f"unsupported tenants.json version: {payload.get('version')!r}")
        default = payload.get("default_quota")
        registry = cls(
            default_quota=None if default is None else TenantQuota.from_dict(default)
        )
        for name, quota in payload.get("tenants", {}).items():
            registry.register(name, TenantQuota.from_dict(quota))
        return registry

    def __repr__(self):
        mode = "open" if self.default_quota is not None else "closed"
        return f"<TenantRegistry {mode} tenants={len(self)}>"


def validate_tenant_name(name: str) -> str:
    """Reject names that cannot be an IRI segment / directory name."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise TenancyError(
            f"invalid tenant name {name!r}: expected [A-Za-z0-9][A-Za-z0-9_.-]*, "
            "at most 64 characters"
        )
    return name


def _registry_path(path) -> Path:
    path = Path(path)
    if path.is_dir():
        return path / TENANTS_FILENAME
    return path
