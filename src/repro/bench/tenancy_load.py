"""Multi-tenant load generation: zipfian fan-out, noisy neighbours, 429s.

Three experiments back the tenancy acceptance bar:

* :func:`run_zipfian_tenants` — write throughput across ~1k tenants
  whose popularity follows a zipfian law (a handful of hot tenants, a
  long cold tail), the realistic shape for multi-tenant serving.  Every
  write runs the full per-tenant pipeline: admission, fair-share
  queueing, engine commit under the tenant's named graph.
* :func:`run_noisy_neighbor` — the isolation claim, measured: an
  interactive tenant's p99 commit latency with a bulk-loading
  neighbour, divided by its p99 alone.  Deficit-round-robin drain
  should hold that factor to a small constant; a shared FIFO queue
  would let it grow with the neighbour's queue depth.
* :func:`run_overload` — admission under deliberate overload, through
  the real HTTP server: an over-rate tenant must be shed with 429 +
  ``Retry-After`` (never a hang, never a dropped connection), and a
  client that *honours* the advertised backoff must eventually land
  every write.

:class:`RetryAfterClient` is that honouring client — the bench's
closed-loop HTTP writer, reused by the wire-level tests to pin the
retry contract.
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.client import HTTPConnection
from typing import Callable

from ..rdf.namespaces import RDF
from ..rdf.terms import IRI, Triple
from ..tenancy import TenantManager, TenantQuota, TenantRegistry

__all__ = [
    "RetryAfterClient",
    "TenancyLoadResult",
    "run_zipfian_tenants",
    "run_noisy_neighbor",
    "run_overload",
    "run_tenancy_load",
]

_EX = "http://bench.example.org/"


def _p99(samples_ms: list[float]) -> float:
    if not samples_ms:
        return 0.0
    ordered = sorted(samples_ms)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


class TenancyLoadResult:
    """Combined outcome of the tenancy experiments (one JSON artifact)."""

    __slots__ = (
        "tenants", "writes", "zipf_seconds", "zipf_write_tps",
        "engines_touched", "interactive_p99_alone_ms",
        "interactive_p99_noisy_ms", "noisy_neighbor_p99_factor",
        "overload_attempts", "overload_rejections", "overload_committed",
        "overload_slept_seconds",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields.get(name))

    def as_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in self.__slots__}
        payload["kind"] = "tenancy"
        return payload

    def __repr__(self):
        return (
            f"<TenancyLoadResult {self.zipf_write_tps:,.0f} writes/s over "
            f"{self.engines_touched} tenants, noisy p99 factor "
            f"{self.noisy_neighbor_p99_factor:.2f}>"
        )


def _zipf_population(count: int, exponent: float, rng: random.Random):
    """(names, cumulative weights) for zipfian tenant sampling."""
    names = [f"t{i:04d}" for i in range(count)]
    rng.shuffle(names)  # popularity must not correlate with creation order
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    cumulative, total = [], 0.0
    for weight in weights:
        total += weight
        cumulative.append(total)
    return names, cumulative


def run_zipfian_tenants(
    tenants: int = 1000,
    writes: int = 3000,
    writers: int = 8,
    exponent: float = 1.1,
    seed: int = 42,
) -> dict:
    """Closed-loop zipfian writes across ``tenants`` isolated engines.

    Engines are created lazily on first touch, so the run also measures
    the cold-tenant path; with ~1k tenants and a few thousand writes a
    realistic fraction of the tail stays cold.
    """
    rng = random.Random(seed)
    names, cumulative = _zipf_population(tenants, exponent, rng)
    manager = TenantManager(
        registry=TenantRegistry(default_quota=TenantQuota()),
        coalesce_tick=0.0,
    )
    # Pre-drawn per-writer schedules: sampling stays off the timed path
    # and the run is reproducible under a fixed seed.
    schedules = []
    for w in range(writers):
        share = writes // writers + (1 if w < writes % writers else 0)
        schedules.append(rng.choices(names, cum_weights=cumulative, k=share))
    errors: list[BaseException] = []

    def drive(schedule: list[str], offset: int) -> None:
        try:
            for i, tenant in enumerate(schedule):
                manager.apply(
                    tenant,
                    assertions=[
                        Triple(
                            IRI(f"{_EX}{tenant}/item{offset + i}"),
                            RDF.type,
                            IRI(f"{_EX}Event"),
                        )
                    ],
                )
        except BaseException as error:  # noqa: BLE001 - surfaced to the caller
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=(schedule, 1_000_000 * w), daemon=True)
        for w, schedule in enumerate(schedules)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    try:
        if errors:
            raise errors[0]
        touched = manager.stats()["active_engines"]
    finally:
        manager.close()
    return {
        "tenants": tenants,
        "writes": writes,
        "zipf_seconds": elapsed,
        "zipf_write_tps": writes / elapsed if elapsed > 0 else 0.0,
        "engines_touched": touched,
    }


def run_noisy_neighbor(
    interactive_writes: int = 150,
    bulk_batch: int = 100,
) -> dict:
    """Interactive p99 commit latency, alone vs. beside a bulk loader.

    The bulk tenant floods closed-loop batches of ``bulk_batch``
    triples for the whole measurement window; fair-share drain must
    keep the interactive tenant's p99 within a small factor of its
    solo baseline (the gated ``noisy_neighbor_p99_factor``).
    """

    def measure(with_noise: bool) -> float:
        manager = TenantManager(
            registry=TenantRegistry(default_quota=TenantQuota()),
            coalesce_tick=0.0,
        )
        stop = threading.Event()

        def flood() -> None:
            batch_id = 0
            while not stop.is_set():
                batch = [
                    Triple(
                        IRI(f"{_EX}bulk/b{batch_id}/i{i}"),
                        RDF.type,
                        IRI(f"{_EX}Event"),
                    )
                    for i in range(bulk_batch)
                ]
                batch_id += 1
                manager.apply("bulk", assertions=batch)

        noisy = threading.Thread(target=flood, daemon=True)
        try:
            manager.apply("interactive", assertions=[
                Triple(IRI(f"{_EX}warm"), RDF.type, IRI(f"{_EX}Event"))
            ])
            if with_noise:
                noisy.start()
            latencies = []
            for i in range(interactive_writes):
                triple = Triple(
                    IRI(f"{_EX}interactive/i{i}"), RDF.type, IRI(f"{_EX}Event")
                )
                begun = time.perf_counter()
                manager.apply("interactive", assertions=[triple])
                latencies.append((time.perf_counter() - begun) * 1000.0)
            return _p99(latencies)
        finally:
            stop.set()
            if noisy.is_alive():
                noisy.join(30)
            manager.close()

    alone = measure(with_noise=False)
    beside = measure(with_noise=True)
    return {
        "interactive_p99_alone_ms": alone,
        "interactive_p99_noisy_ms": beside,
        # Floor the denominator at 0.5 ms: solo p99s land around 0.2 ms
        # (inline engines, zero tick), where scheduler jitter alone
        # moves the raw ratio 2-3x between runs.  With the floor the
        # factor reads "p99 beside the bulk loader, in units of 0.5 ms"
        # — stable run to run, and a shared-FIFO regression (p99 grows
        # with the neighbour's queue depth, hundreds of ms) still
        # blows through any sane ceiling.
        "noisy_neighbor_p99_factor": beside / max(alone, 0.5),
    }


class RetryAfterClient:
    """A keep-alive ``/apply`` client that honours ``Retry-After``.

    On 429 it sleeps the advertised backoff (the JSON ``retry_after``
    when present — sub-second precision — else the header) and retries
    the *same* write until admitted; hard failures raise.  Counters
    expose how much backoff the server asked for and got.
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str,
        timeout: float = 10.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.tenant = tenant
        #: How the backoff is slept (tests advance a fake clock instead).
        self._sleep = sleep
        self.attempts = 0
        self.rejections = 0
        self.committed = 0
        self.slept_seconds = 0.0
        self._conn = HTTPConnection(host, port, timeout=timeout)

    def apply(self, statements: list[str], max_retries: int = 50) -> dict:
        """Apply one batch, retrying through 429s; returns the commit body."""
        body = json.dumps({"tenant": self.tenant, "assert": statements})
        for _ in range(max_retries):
            self.attempts += 1
            self._conn.request(
                "POST", "/apply", body, {"Content-Type": "application/json"}
            )
            response = self._conn.getresponse()
            payload = json.loads(response.read())
            if response.status == 200:
                self.committed += 1
                return payload
            if response.status != 429:
                raise RuntimeError(
                    f"apply failed with {response.status}: {payload.get('error')}"
                )
            self.rejections += 1
            wait = payload.get("retry_after")
            if wait is None:
                wait = float(response.getheader("Retry-After") or 1.0)
            self.slept_seconds += wait
            self._sleep(wait)
        raise RuntimeError(f"write for {self.tenant!r} still rejected "
                           f"after {max_retries} retries")

    def close(self) -> None:
        self._conn.close()


def run_overload(
    writes: int = 40,
    rate: float = 50.0,
    burst: int = 5,
) -> dict:
    """Drive an over-rate tenant through the real HTTP server.

    The tenant's token bucket admits ``rate``/s with ``burst`` depth;
    a closed-loop :class:`RetryAfterClient` fires ``writes`` writes as
    fast as admission allows.  Every write must eventually commit, and
    overload must show up as honest 429s, not as latency or errors.
    """
    from ..server import ReasoningService
    from ..server.http import serve

    registry = TenantRegistry(default_quota=TenantQuota())
    registry.register(
        "hot", TenantQuota(writes_per_second=rate, burst=burst)
    )
    manager = TenantManager(registry=registry, coalesce_tick=0.0)
    service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
    server, _thread = serve(service, tenants=manager)
    client = RetryAfterClient("127.0.0.1", server.port, "hot")
    try:
        for i in range(writes):
            client.apply([f"<{_EX}hot/i{i}> {RDF.type.n3()} <{_EX}Event> ."])
        final = json.loads(
            _get(client._conn, "/stats?tenant=hot")
        )
        committed_triples = final["engine"]["triples"]
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        manager.close()
        service.close()
    return {
        "overload_attempts": client.attempts,
        "overload_rejections": client.rejections,
        "overload_committed": committed_triples,
        "overload_slept_seconds": client.slept_seconds,
    }


def _get(conn: HTTPConnection, path: str) -> bytes:
    conn.request("GET", path)
    return conn.getresponse().read()


def run_tenancy_load(**overrides) -> TenancyLoadResult:
    """All three experiments, merged into one comparator artifact."""
    fields = {}
    fields.update(run_zipfian_tenants(**overrides.get("zipf", {})))
    fields.update(run_noisy_neighbor(**overrides.get("noisy", {})))
    fields.update(run_overload(**overrides.get("overload", {})))
    return TenancyLoadResult(**fields)
