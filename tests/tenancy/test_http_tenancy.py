"""Multi-tenant HTTP serving, pinned at the wire level.

The admission contract the docs promise (docs/http-api.md): unknown
tenants are 404, over-rate and queue-full writes are 429 with an
honest ``Retry-After`` header, hard-quota writes are 413 and commit
nothing — and every rejection leaves the keep-alive connection usable,
because the handler drains request bodies before answering.
"""

import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.rdf import RDF
from repro.server import ReasoningService, serve
from repro.tenancy import TenantManager, TenantQuota, TenantRegistry

from ..conftest import EX

RDF_TYPE = RDF.type.n3()


def statement(tenant: str, i: int) -> str:
    return f"{EX[f'{tenant}-item{i}'].n3()} {RDF_TYPE} {EX.Event.n3()} ."


class FakeClock:
    """Injectable admission clock so rate tests never sleep."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def stack(clock):
    registry = TenantRegistry(default_quota=TenantQuota())
    registry.register("small", TenantQuota(max_triples=2))
    registry.register("slow", TenantQuota(writes_per_second=1.0, burst=1))
    manager = TenantManager(registry=registry, coalesce_tick=0.0, clock=clock)
    service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
    server, _thread = serve(service, tenants=manager)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        manager.close()
        service.close()


@pytest.fixture()
def client(stack):
    conn = HTTPConnection("127.0.0.1", stack.port, timeout=10)
    try:
        yield conn
    finally:
        conn.close()


def request(conn, method, path, body=None):
    payload = None if body is None else json.dumps(body)
    conn.request(method, path, payload, {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), json.loads(response.read())


def apply_for(conn, tenant, statements, **extra):
    return request(conn, "POST", "/apply", {"tenant": tenant, "assert": statements, **extra})


class TestTenantRouting:
    def test_apply_and_read_are_tenant_scoped(self, client):
        status, _, body = apply_for(client, "acme", [statement("acme", 1)])
        assert status == 200
        assert body["tenant"] == "acme"
        assert body["report"]["graph"] == "<urn:tenant:acme>"
        query = f"?x {RDF_TYPE} {EX.Event.n3()}"
        status, _, acme = request(
            client, "GET", f"/select?tenant=acme&query={_q(query)}"
        )
        assert status == 200 and len(acme["rows"]) == 1
        status, _, beta = request(
            client, "GET", f"/select?tenant=beta&query={_q(query)}"
        )
        assert status == 200 and beta["rows"] == []

    def test_unknown_tenant_on_closed_route_is_404(self, client, stack):
        stack.tenants.registry.default_quota = None  # close the registry
        try:
            status, _, body = apply_for(client, "ghost", [statement("ghost", 1)])
        finally:
            stack.tenants.registry.default_quota = TenantQuota()
        assert status == 404
        assert "ghost" in body["error"]

    def test_stats_has_tenant_slice_and_global_summary(self, client):
        apply_for(client, "acme", [statement("acme", 1)])
        status, _, tenant_stats = request(client, "GET", "/stats?tenant=acme")
        assert status == 200
        assert tenant_stats["graph"] == "urn:tenant:acme"
        assert tenant_stats["engine"]["triples"] == 1
        assert tenant_stats["admission"]["admitted"] == 1
        status, _, global_stats = request(client, "GET", "/stats")
        assert status == 200
        assert global_stats["tenancy"]["active_engines"] >= 1

    def test_tenants_management_endpoints(self, client):
        status, _, created = request(
            client,
            "POST",
            "/tenants",
            {"name": "managed", "quota": {"max_triples": 9, "weight": 2.0}},
        )
        assert status == 201
        assert created["quota"]["max_triples"] == 9
        status, _, listing = request(client, "GET", "/tenants")
        assert status == 200
        assert any(t["name"] == "managed" for t in listing["tenants"])
        # Re-registering an existing tenant re-quotas: 200, not 201.
        status, _, _ = request(
            client, "POST", "/tenants", {"name": "managed", "quota": {"weight": 3.0}}
        )
        assert status == 200
        status, _, removed = request(client, "DELETE", "/tenants?name=managed")
        assert status == 200 and removed["removed"] == "managed"
        status, _, listing = request(client, "GET", "/tenants")
        assert all(t["name"] != "managed" for t in listing["tenants"])


class TestAdmissionStatuses:
    def test_quota_exceeded_is_atomic_413(self, client):
        status, _, _ = apply_for(
            client, "small", [statement("small", 0), statement("small", 1)]
        )
        assert status == 200
        status, headers, body = apply_for(
            client, "small", [statement("small", 2), statement("small", 3)]
        )
        assert status == 413
        assert "max_triples" in body["error"]
        assert "Retry-After" not in headers  # quota is not a backoff hint
        # Atomicity at the wire: neither of the two rejected statements
        # is visible, and the tenant's revision did not advance.
        query = f"?x {RDF_TYPE} {EX.Event.n3()}"
        status, _, rows = request(
            client, "GET", f"/select?tenant=small&query={_q(query)}"
        )
        assert len(rows["rows"]) == 2
        status, _, stats = request(client, "GET", "/stats?tenant=small")
        assert stats["engine"]["revision"] == 1
        assert stats["engine"]["triples"] == 2

    def test_rate_limited_429_carries_retry_after(self, client, clock):
        status, _, _ = apply_for(client, "slow", [statement("slow", 0)])
        assert status == 200
        status, headers, body = apply_for(client, "slow", [statement("slow", 1)])
        assert status == 429
        assert body["retry_after"] > 0
        assert int(headers["Retry-After"]) >= 1
        # The advertised wait is honest: advance the injected clock past
        # it and the same write is admitted.
        clock.now += body["retry_after"]
        status, _, _ = apply_for(client, "slow", [statement("slow", 1)])
        assert status == 200

    def test_429_bodies_are_drained_on_keepalive(self, client, clock):
        """A rejected POST must not desync the keep-alive connection.

        The handler reads the request body before answering, so the
        next request on the same socket parses cleanly — pinned by
        driving ten 429s and a final success through one connection.
        """
        status, _, _ = apply_for(client, "slow", [statement("slow", 0)])
        assert status == 200
        big_batch = [statement("slow", i) for i in range(1, 200)]
        for _ in range(10):
            status, _, _ = apply_for(client, "slow", big_batch)
            assert status == 429
        # Same connection, still healthy:
        status, _, body = request(client, "GET", "/stats?tenant=slow")
        assert status == 200
        assert body["admission"]["rejected_rate"] == 10
        clock.now += 10.0
        status, _, _ = apply_for(client, "slow", [statement("slow", 1)])
        assert status == 200

    def test_subscribe_streams_only_the_tenants_deltas(self, stack, client):
        query = f"?x {RDF_TYPE} {EX.Event.n3()}"
        events = []
        ready = threading.Event()

        def listen():
            conn = HTTPConnection("127.0.0.1", stack.port, timeout=10)
            try:
                conn.request("GET", f"/subscribe?tenant=acme&query={_q(query)}")
                response = conn.getresponse()
                buffer = b""
                ready.set()
                while len(events) < 2:
                    chunk = response.read1(65536)
                    if not chunk:
                        break
                    buffer += chunk
                    while b"\n\n" in buffer:
                        frame, buffer = buffer.split(b"\n\n", 1)
                        if b"event:" in frame:
                            events.append(frame.decode())
            finally:
                conn.close()

        thread = threading.Thread(target=listen, daemon=True)
        thread.start()
        assert ready.wait(5)
        time.sleep(0.1)  # hello frame flushed before the writes land
        apply_for(client, "beta", [statement("beta", 1)])
        apply_for(client, "acme", [statement("acme", 1)])
        thread.join(5)
        assert not thread.is_alive()
        assert "hello" in events[0]
        assert "delta" in events[1]
        assert "acme-item1" in events[1]
        assert all("beta-item1" not in frame for frame in events)


class TestRetryAfterClient:
    """The bench's closed-loop client honours the advertised backoff."""

    def test_bench_client_survives_overload_without_losing_writes(self, clock):
        # One fake clock drives both the token bucket and the client's
        # sleep: the bucket refills only by what the client was told to
        # wait, so this proves the advertised ``retry_after`` is
        # sufficient — not just present — without wall time deciding
        # anything.  4/s keeps every refill exact in binary floats.
        registry = TenantRegistry(default_quota=TenantQuota())
        registry.register("hot", TenantQuota(writes_per_second=4.0, burst=2))
        manager = TenantManager(registry=registry, coalesce_tick=0.0, clock=clock)
        service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
        server, _thread = serve(service, tenants=manager)
        from repro.bench import RetryAfterClient

        def sleep(seconds: float) -> None:
            clock.now += seconds

        client = RetryAfterClient("127.0.0.1", server.port, "hot", sleep=sleep)
        try:
            for i in range(12):
                body = client.apply([statement("hot", i)])
                assert body["tenant"] == "hot"
            status, _, stats = request_on(server, "/stats?tenant=hot")
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            manager.close()
            service.close()
        # The burst admits two writes; each of the other ten is refused
        # once and admitted after sleeping exactly one token's refill.
        assert client.rejections == 10
        assert client.slept_seconds == 10 * 0.25
        assert client.committed == 12
        assert status == 200
        assert stats["engine"]["triples"] == 12  # nothing lost, nothing doubled
        assert stats["admission"]["rejected_rate"] == client.rejections


def request_on(server, path):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), json.loads(response.read())
    finally:
        conn.close()


def _q(text: str) -> str:
    from urllib.parse import quote

    return quote(text, safe="")
