"""HTTP observability surface: /metrics, /debug/traces, trace headers.

Includes the acceptance differential test: a client-supplied
``X-Trace-Id`` on a sharded, coalesced write must be findable on the
shared commit span, on *every* per-shard sub-commit span, and on the
subscription-delivery span — via ``GET /debug/traces`` alone, the way
an operator would follow it.
"""

import json
import threading
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from repro.obs import LAYER_PREFIXES, validate_exposition
from repro.rdf import RDF, RDFS, Variable
from repro.server import ReasoningService, serve

from ..conftest import EX

RDF_TYPE = RDF.type.n3()
SUBCLASS = RDFS.subClassOf.n3()
ANIMAL_QUERY = f"?x {RDF_TYPE} {EX.Animal.n3()}"


def request(conn, method, path, body=None, headers=None):
    extra = dict(headers or {})
    payload = None
    if body is not None:
        payload = json.dumps(body)
        extra["Content-Type"] = "application/json"
    conn.request(method, path, payload, extra)
    response = conn.getresponse()
    return response.status, dict(response.getheaders()), response.read()


def schema_body():
    return {"assert": [
        f"{EX.Cat.n3()} {SUBCLASS} {EX.Animal.n3()}",
        f"{EX.tom.n3()} {RDF_TYPE} {EX.Cat.n3()}",
    ]}


@pytest.fixture()
def server():
    service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
    http_server, _thread = serve(service, slow_query_seconds=0.0001)
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        service.close()


@pytest.fixture()
def client(server):
    conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        yield conn
    finally:
        conn.close()


class TestMetricsEndpoint:
    def test_scrape_is_valid_and_covers_every_layer(self, client):
        """The acceptance conformance check, through the real socket."""
        status, headers, _ = request(client, "POST", "/apply", schema_body())
        assert status == 200
        status, _, _ = request(
            client, "GET", f"/select?query={quote(ANIMAL_QUERY, safe='')}"
        )
        assert status == 200
        status, headers, body = request(client, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        families = validate_exposition(
            body.decode("utf-8"), require_layers=LAYER_PREFIXES
        )
        # A few spot checks that the traffic above actually registered.
        samples = {
            name: info["samples"] for name, info in families.items()
        }
        assert any(
            labels.get("endpoint") == "/apply" and value >= 1
            for _, labels, value in samples["slider_http_requests_total"]
        )
        assert any(
            value >= 1
            for name, _, value in samples["slider_engine_commits_total"]
        )
        uptime = [
            value
            for _, _, value in samples["slider_process_uptime_seconds"]
        ]
        assert uptime and uptime[0] >= 0

    def test_scrape_itself_is_metered_but_not_traced(self, client):
        request(client, "GET", "/metrics")
        status, _, body = request(client, "GET", "/metrics")
        assert status == 200
        families = validate_exposition(body.decode("utf-8"))
        assert any(
            labels.get("endpoint") == "/metrics" and value >= 1
            for _, labels, value in families["slider_http_requests_total"][
                "samples"
            ]
        )
        status, _, body = request(client, "GET", "/debug/traces?limit=2048")
        spans = [json.loads(line) for line in body.decode().splitlines()]
        assert all(
            span["attrs"].get("endpoint") not in ("/metrics", "/debug/traces")
            for span in spans
            if span["name"] == "http.request"
        )

    def test_unknown_route_folds_into_unknown_endpoint_label(self, client):
        status, _, _ = request(client, "GET", "/no/such/route-12345")
        assert status == 404
        _, _, body = request(client, "GET", "/metrics")
        families = validate_exposition(body.decode("utf-8"))
        labels_seen = {
            labels.get("endpoint")
            for _, labels, _ in families["slider_http_requests_total"]["samples"]
        }
        assert "__unknown__" in labels_seen
        assert "/no/such/route-12345" not in labels_seen


class TestTraceHeader:
    def test_client_trace_id_is_echoed(self, client):
        status, headers, _ = request(
            client, "GET", "/healthz", headers={"X-Trace-Id": "client-id-1"}
        )
        assert status == 200
        assert headers["X-Trace-Id"] == "client-id-1"

    def test_minted_when_absent(self, client):
        _, headers, _ = request(client, "GET", "/healthz")
        minted = headers["X-Trace-Id"]
        assert len(minted) == 16
        int(minted, 16)

    def test_error_responses_carry_the_header_too(self, client):
        status, headers, _ = request(
            client, "GET", "/select", headers={"X-Trace-Id": "err-trace"}
        )
        assert status == 400  # missing query param
        assert headers["X-Trace-Id"] == "err-trace"


class TestDebugTraces:
    def test_traces_filterable_by_trace_id(self, client):
        status, _, _ = request(
            client, "POST", "/apply", schema_body(),
            headers={"X-Trace-Id": "find-me-42"},
        )
        assert status == 200
        status, headers, body = request(
            client, "GET", "/debug/traces?trace_id=find-me-42"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("application/x-ndjson")
        spans = [json.loads(line) for line in body.decode().splitlines()]
        assert spans, "no spans recorded for the write"
        assert all("find-me-42" in span["trace_ids"] for span in spans)
        names = {span["name"] for span in spans}
        assert {"http.request", "commit"} <= names

    def test_limit_validation(self, client):
        status, _, _ = request(client, "GET", "/debug/traces?limit=0")
        assert status == 400

    def test_view_advance_span_and_metrics(self, client):
        """The read image's advance is a child span of the commit that
        caused it, and feeds the ``slider_views_*`` families."""
        status, _, _ = request(
            client, "POST", "/apply", schema_body(),
            headers={"X-Trace-Id": "view-trace-7"},
        )
        assert status == 200
        _, _, body = request(client, "GET", "/debug/traces?trace_id=view-trace-7")
        spans = [json.loads(line) for line in body.decode().splitlines()]
        (advance,) = [span for span in spans if span["name"] == "view.advance"]
        (commit,) = [span for span in spans if span["name"] == "commit"]
        assert advance["parent_id"] == commit["span_id"]
        attrs = advance["attrs"]
        assert attrs["delta"] == 3  # two asserted + one inferred triple
        assert attrs["overlay"] == 3 and attrs["rebased"] is False
        assert 0 < attrs["entries"] < 64
        _, _, body = request(client, "GET", "/metrics")
        families = validate_exposition(body.decode("utf-8"))
        advances = [
            value
            for name, _, value in families["slider_views_advance_seconds"]["samples"]
            if name.endswith("_count")
        ]
        assert advances and advances[0] >= 1
        ((_, _, overlay),) = families["slider_views_overlay_triples"]["samples"]
        assert overlay == 3
        assert families["slider_views_rebases_total"]["type"] == "counter"


class TestSlowQueryLog:
    def test_slow_select_is_logged_with_breakdown_and_explain(self, server, client):
        request(client, "POST", "/apply", schema_body())
        status, _, _ = request(
            client,
            "GET",
            f"/select?query={quote(ANIMAL_QUERY, safe='')}",
            headers={"X-Trace-Id": "slow-1"},
        )
        assert status == 200
        entries = server.slow_queries.recent()
        assert entries, "threshold of 0.1 ms should catch any real query"
        entry = entries[-1]
        assert entry["endpoint"] == "/select"
        assert entry["trace_id"] == "slow-1"
        assert entry["query"] == ANIMAL_QUERY
        assert set(entry["breakdown"]) == {"parse_ms", "solve_ms"}
        assert entry["explain"] is not None
        _, _, body = request(client, "GET", "/metrics")
        families = validate_exposition(body.decode("utf-8"))
        assert any(
            labels.get("endpoint") == "/select" and value >= 1
            for _, labels, value in families["slider_http_slow_queries_total"][
                "samples"
            ]
        )


class TestStatsAndHealth:
    def test_stats_reports_uptime_and_rss(self, client):
        status, _, body = request(client, "GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["uptime_seconds"] >= 0
        assert stats["process"]["rss_bytes"] > 0
        assert stats["process"]["started_at"] > 0


class TestShardedTracePropagation:
    """The acceptance differential test."""

    @pytest.fixture()
    def sharded_server(self):
        service = ReasoningService(
            fragment="rhodf", workers=0, timeout=None, shards=2
        )
        http_server, _thread = serve(service)
        try:
            yield http_server
        finally:
            http_server.shutdown()
            http_server.server_close()
            service.close()

    def test_client_trace_id_reaches_every_span_of_a_coalesced_write(
        self, sharded_server
    ):
        service = sharded_server.service
        delivered = []
        service.subscribe(
            [(Variable("x"), RDF.type, EX.Animal)], delivered.append
        )
        # Subjects spread across both shards (32 distinct subjects: the
        # chance of a one-sided route is 2^-31).
        first = [
            f"{EX[f'cat{n}'].n3()} {RDF_TYPE} {EX.Cat.n3()}" for n in range(16)
        ]
        second = [
            f"{EX[f'dog{n}'].n3()} {RDF_TYPE} {EX.Cat.n3()}" for n in range(16, 32)
        ] + [f"{EX.Cat.n3()} {SUBCLASS} {EX.Animal.n3()}"]

        def post(payload, trace_id, out):
            conn = HTTPConnection("127.0.0.1", sharded_server.port, timeout=10)
            try:
                out.append(
                    request(
                        conn, "POST", "/apply", {"assert": payload},
                        headers={"X-Trace-Id": trace_id},
                    )
                )
            finally:
                conn.close()

        # Hold the drain loop so both writers land in ONE commit batch —
        # deterministic coalescing, not a timing race.
        results_a, results_b = [], []
        with service.writes.paused():
            thread_a = threading.Thread(
                target=post, args=(first, "writer-a", results_a)
            )
            thread_b = threading.Thread(
                target=post, args=(second, "writer-b", results_b)
            )
            thread_a.start()
            thread_b.start()
            deadline = threading.Event()
            for _ in range(500):
                if service.writes.stats()["queued"] == 2:
                    break
                deadline.wait(0.01)
            assert service.writes.stats()["queued"] == 2
        thread_a.join()
        thread_b.join()

        (status_a, headers_a, body_a) = results_a[0]
        (status_b, headers_b, body_b) = results_b[0]
        assert status_a == 200 and status_b == 200
        assert headers_a["X-Trace-Id"] == "writer-a"
        assert headers_b["X-Trace-Id"] == "writer-b"
        # Both writers shared one coalesced revision.
        assert json.loads(body_a)["revision"] == json.loads(body_b)["revision"]
        assert delivered, "subscription saw no delta"

        conn = HTTPConnection("127.0.0.1", sharded_server.port, timeout=10)
        try:
            for trace_id in ("writer-a", "writer-b"):
                status, _, body = request(
                    conn, "GET", f"/debug/traces?trace_id={trace_id}"
                )
                assert status == 200
                spans = [
                    json.loads(line) for line in body.decode().splitlines()
                ]
                by_name: dict = {}
                for span in spans:
                    by_name.setdefault(span["name"], []).append(span)
                # One shared commit span carrying BOTH writers' ids.
                (commit,) = by_name["commit"]
                assert set(commit["trace_ids"]) == {"writer-a", "writer-b"}
                assert commit["attrs"]["coalesced"] == 2
                # Every per-shard sub-commit span, parented on the commit.
                shard_spans = by_name["shard.commit"]
                assert len(shard_spans) == 2
                assert {s["attrs"]["shard"] for s in shard_spans} == {0, 1}
                for shard_span in shard_spans:
                    assert trace_id in shard_span["trace_ids"]
                    assert shard_span["parent_id"] == commit["span_id"]
                # The subscription-delivery span, inside the same commit.
                (delivery,) = by_name["subscription.delivery"]
                assert trace_id in delivery["trace_ids"]
                assert delivery["attrs"]["subscriptions"] == 1
        finally:
            conn.close()
