"""The replication HTTP surface: /feed, /snapshot, /readyz, role gating."""

import contextlib
import json
import socket
import threading
import time
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from repro import Slider, Triple
from repro.persist.snapshot import parse_snapshot
from repro.rdf import RDF
from repro.replication import ChangeFeed, Follower
from repro.replication.follower import ReplicationStatus
from repro.server import ReasoningService, serve

from ..conftest import EX


def triple(n: int) -> Triple:
    return Triple(EX[f"s{n}"], EX.p, EX[f"o{n}"])


@pytest.fixture()
def leader():
    service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
    feed = ChangeFeed(service)
    server, _thread = serve(service)
    try:
        yield service, feed, server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def get(port, path):
    conn = HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read(), dict(response.getheaders())
    finally:
        conn.close()


class FeedReader:
    """Collects parsed SSE events from a /feed stream."""

    def __init__(self, port: int, params: str = ""):
        self.events: list[dict] = []
        self.hello = threading.Event()
        self._seen = threading.Condition()
        self._conn = HTTPConnection("127.0.0.1", port, timeout=20)
        self._conn.connect()
        # The connection hands its socket to the response and forgets it.
        self._sock = self._conn.sock
        self._thread = threading.Thread(
            target=self._run, args=(params,), daemon=True
        )
        self._thread.start()

    def __enter__(self) -> "FeedReader":
        return self

    def __exit__(self, *exc_info) -> None:
        """Hang up and wait for the reading thread to see the end of stream."""
        with contextlib.suppress(OSError):  # the server hung up first
            self._sock.shutdown(socket.SHUT_RDWR)
        self._thread.join(10)
        assert not self._thread.is_alive()

    def _run(self, params: str) -> None:
        conn = self._conn
        try:
            conn.request("GET", f"/feed{params}")
            response = conn.getresponse()
            assert response.status == 200
            current: dict = {}
            data: list[str] = []
            while True:
                raw = response.readline()
                if not raw:
                    return  # the stream ended
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    current["event"] = line[6:].strip()
                elif line.startswith("id:"):
                    current["id"] = int(line[3:].strip())
                elif line.startswith("data:"):
                    chunk = line[5:]
                    data.append(chunk[1:] if chunk.startswith(" ") else chunk)
                elif line == "" and (current or data):
                    current["data"] = "\n".join(data)
                    with self._seen:
                        self.events.append(dict(current))
                        self._seen.notify_all()
                    if current.get("event") == "hello":
                        self.hello.set()
                    current, data = {}, []
        except OSError:
            return
        finally:
            conn.close()

    def wait_for(self, event: str, timeout: float = 10.0) -> dict | None:
        deadline = time.monotonic() + timeout
        with self._seen:
            while True:
                for item in self.events:
                    if item.get("event") == event:
                        return item
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._seen.wait(remaining)


class TestFeedEndpoint:
    def test_hello_commit_and_watermark(self, leader):
        service, feed, server = leader
        base = service.reasoner.revision
        with FeedReader(server.port, f"?from={base}") as reader:
            assert reader.hello.wait(10)
            hello = json.loads(reader.wait_for("hello")["data"])
            assert hello["revision"] == base
            assert hello["fragment"] == "rhodf"

            service.apply([triple(1)])
            commit = reader.wait_for("commit")
            assert commit is not None and commit["id"] == base + 1
            from repro.replication.feed import FeedRecord

            record = FeedRecord.parse(commit["data"])
            assert record.revision == base + 1
            assert record.assertions == (triple(1),)

            service.reasoner.flush()  # empty revision: watermark, no record
            watermark = reader.wait_for("watermark")
            assert watermark is not None
            assert json.loads(watermark["data"])["revision"] == base + 2

    def test_resume_from_compacted_revision_is_410(self, leader):
        service, feed, server = leader
        service.apply([triple(1)])
        # The feed attached at service construction; ask for history from
        # before its floor on a memory-only leader.
        status, body, _ = get(server.port, "/feed?from=0")
        assert status == 410
        assert b"bootstrap" in body

    def test_node_without_feed_is_404(self):
        service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
        server, _thread = serve(service)
        try:
            status, body, _ = get(server.port, "/feed?from=0")
            assert status == 404
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_snapshot_endpoint_round_trips(self, leader):
        service, feed, server = leader
        service.apply([triple(1)])
        service.apply([triple(2)])
        status, blob, headers = get(server.port, "/snapshot")
        assert status == 200
        assert headers["Content-Type"] == "application/octet-stream"
        snapshot = parse_snapshot(blob)
        assert snapshot.revision == service.reasoner.revision
        assert int(headers["X-Slider-Revision"]) == snapshot.revision
        assert snapshot.triple_count == len(service.reasoner.store)
        # Restores into a fresh engine with the identical closure.
        engine = Slider(fragment="rhodf", workers=0, timeout=None)
        engine.restore_snapshot(snapshot)
        assert set(engine.graph) == set(service.reasoner.graph)
        assert engine.revision == snapshot.revision


class TestRoleSurface:
    def test_leader_health_and_readiness(self, leader):
        service, feed, server = leader
        status, body, _ = get(server.port, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["role"] == "leader"
        assert health["replication_lag_revisions"] == 0
        status, body, _ = get(server.port, "/readyz")
        assert status == 200 and json.loads(body)["ready"] is True
        stats = json.loads(get(server.port, "/stats")[1])
        assert stats["role"] == "leader"
        assert stats["feed"]["latest_revision"] == service.reasoner.revision

    def test_follower_not_ready_is_503_and_writes_403(self):
        """A follower that has not caught up is alive but not ready; a
        follower with no known leader refuses writes outright."""
        service = ReasoningService(
            fragment="rhodf", workers=0, timeout=None, role="follower"
        )
        service.replication = ReplicationStatus("http://leader.invalid:9")
        server, _thread = serve(service)
        try:
            assert get(server.port, "/healthz")[0] == 200  # alive...
            status, body, _ = get(server.port, "/readyz")
            assert status == 503  # ...but held out of rotation
            assert json.loads(body)["ready"] is False
            conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                conn.request("POST", "/apply", json.dumps({"assert": []}),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 403
                response.read()
            finally:
                conn.close()
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestFollowerServing:
    def test_follower_serves_reads_and_redirects_writes(self, leader):
        service, feed, server = leader
        service.apply([Triple(EX.tom, RDF.type, EX.Cat)])
        follower = Follower(
            server.url, workers=0, timeout=None, reconnect_delay=0.05
        ).start()
        fserver = None
        try:
            assert follower.wait_ready(30)
            fserver, _thread = follower.serve_http()
            query = quote(f"?x {RDF.type.n3()} {EX.Cat.n3()}", safe="")
            status, body, _ = get(fserver.port, f"/select?query={query}")
            assert status == 200
            assert json.loads(body)["rows"] == [[EX.tom.n3()]]

            status, body, headers = get(fserver.port, "/readyz")
            assert status == 200

            conn = HTTPConnection("127.0.0.1", fserver.port, timeout=10)
            try:
                conn.request("POST", "/apply",
                             json.dumps({"assert": [f"{EX.rex.n3()} {RDF.type.n3()} {EX.Cat.n3()}"]}),
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 307
                assert response.getheader("Location") == f"{server.url}/apply"
                response.read()
            finally:
                conn.close()

            # Leader dies; the follower keeps serving reads at its last
            # replicated revision and stays ready.
            server.shutdown()
            server.server_close()
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and follower.status.connected:
                time.sleep(0.05)
            status, body, _ = get(fserver.port, f"/select?query={query}")
            assert status == 200
            assert json.loads(body)["rows"] == [[EX.tom.n3()]]
            assert get(fserver.port, "/readyz")[0] == 200
            health = json.loads(get(fserver.port, "/healthz")[1])
            assert health["role"] == "follower"
        finally:
            if fserver is not None:
                fserver.shutdown()
                fserver.server_close()
            follower.close()

    def test_follower_stats_surface(self, leader):
        service, feed, server = leader
        follower = Follower(
            server.url, workers=0, timeout=None, reconnect_delay=0.05
        ).start()
        fserver = None
        try:
            assert follower.wait_ready(30)
            fserver, _thread = follower.serve_http()
            # A lazily-bootstrapped follower is ready (serving the
            # image revision) before the feed tail reconnects; give the
            # connection a moment to surface in /stats.
            deadline = time.monotonic() + 10
            while True:
                stats = json.loads(get(fserver.port, "/stats")[1])
                if stats["replication"]["connected"] or time.monotonic() > deadline:
                    break
                time.sleep(0.05)
            assert stats["role"] == "follower"
            replication = stats["replication"]
            assert replication["leader"] == server.url
            assert replication["connected"] is True
            assert replication["lag_revisions"] == 0
        finally:
            if fserver is not None:
                fserver.shutdown()
                fserver.server_close()
            follower.close()
