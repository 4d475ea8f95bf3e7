"""The HTTP surface: endpoints, wire syntax, and SSE binding deltas.

The SSE tests mirror ``tests/reasoner/test_subscriptions.py``: the
stream must deliver exactly the binding-level diffs the in-process
subscription API delivers — additions, removals, and nothing spurious.
"""

import json
import threading
from http.client import HTTPConnection
from urllib.parse import quote

import pytest

from repro.rdf import RDF, RDFS
from repro.server import ReasoningService, serve
from repro.store.planner.executor import BLOCK_ROWS

from ..conftest import EX

RDF_TYPE = RDF.type.n3()
SUBCLASS = RDFS.subClassOf.n3()

ANIMAL_QUERY = f"?x {RDF_TYPE} {EX.Animal.n3()}"


@pytest.fixture()
def server():
    service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
    http_server, _thread = serve(service)
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


def get(conn, path):
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def post(conn, path, body):
    conn.request("POST", path, json.dumps(body), {"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def apply_schema(conn):
    return post(conn, "/apply", {"assert": [
        f"{EX.Cat.n3()} {SUBCLASS} {EX.Animal.n3()}",
        f"{EX.tom.n3()} {RDF_TYPE} {EX.Cat.n3()}",
    ]})


class TestReadEndpoints:
    def test_apply_then_select_at_revision(self, client):
        status, applied = apply_schema(client)
        assert status == 200
        assert applied["report"]["inferred_added"] == 1
        revision = applied["revision"]
        status, out = get(
            client, f"/select?query={quote(ANIMAL_QUERY, safe='')}&at={revision}"
        )
        assert status == 200
        assert out["revision"] == revision
        assert out["rows"] == [[EX.tom.n3()]]
        assert out["variables"] == ["x"]

    def test_select_projection_and_validation(self, client):
        apply_schema(client)
        query = quote(f"?x {RDF_TYPE} ?cls", safe="")
        status, out = get(client, f"/select?query={query}&var=cls")
        assert status == 200
        assert out["variables"] == ["cls"]
        assert [EX.Animal.n3()] in out["rows"]
        status, out = get(client, f"/select?query={query}&var=nope")
        assert status == 400
        status, out = get(client, f"/select?query={query}&limit=1")
        assert len(out["rows"]) == 1

    def test_select_explain(self, client):
        apply_schema(client)
        query = quote(f"?x {RDF_TYPE} ?cls . ?cls {SUBCLASS} ?super", safe="")
        status, out = get(client, f"/select?query={query}&explain=1")
        assert status == 200
        plan = out["explain"]
        assert plan["pattern_count"] == 2
        assert sorted(plan["plan_order"]) == [0, 1]
        assert plan["solutions"] >= 1
        for row in plan["steps"]:
            assert {"pattern", "access", "estimated_rows", "actual_rows"} <= set(row)
        # explain=0 keeps the ordinary row response.
        status, out = get(client, f"/select?query={query}&explain=0")
        assert status == 200 and "rows" in out

    def test_construct_unbound_template_is_400(self, client):
        apply_schema(client)
        template = quote(f"?x {EX.isA.n3()} ?nowhere", safe="")
        query = quote(ANIMAL_QUERY, safe="")
        status, out = get(client, f"/construct?template={template}&query={query}")
        assert status == 400
        assert "never bound" in out["error"]

    def test_ask(self, client):
        apply_schema(client)
        query = quote(ANIMAL_QUERY, safe="")
        assert get(client, f"/ask?query={query}") == (
            200,
            {"revision": 2, "result": True},
        )
        missing = quote(f"?x {RDF_TYPE} {EX.Robot.n3()}", safe="")
        assert get(client, f"/ask?query={missing}")[1]["result"] is False

    def test_construct(self, client):
        apply_schema(client)
        template = quote(f"?x {EX.isA.n3()} {EX.Beast.n3()}", safe="")
        query = quote(ANIMAL_QUERY, safe="")
        status, out = get(client, f"/construct?template={template}&query={query}")
        assert status == 200
        assert out["triples"] == [
            f"{EX.tom.n3()} {EX.isA.n3()} {EX.Beast.n3()} ."
        ]

    def test_triples_pattern_dump(self, client):
        apply_schema(client)
        status, out = get(client, f"/triples?p={quote(RDF_TYPE, safe='')}")
        assert status == 200
        assert out["count"] == 2  # tom a Cat (explicit) + tom a Animal (inferred)
        status, out = get(
            client,
            f"/triples?p={quote(RDF_TYPE, safe='')}&o={quote(EX.Animal.n3(), safe='')}",
        )
        assert out["triples"] == [f"{EX.tom.n3()} {RDF_TYPE} {EX.Animal.n3()} ."]

    def test_stats_and_healthz(self, client):
        apply_schema(client)
        status, stats = get(client, "/stats")
        assert status == 200
        assert stats["writes"]["commits"] >= 1
        assert stats["engine"]["fragment"] == "rhodf"
        status, health = get(client, "/healthz")
        assert status == 200 and health["ok"] is True

    def test_error_statuses(self, client):
        assert get(client, "/nope")[0] == 404
        assert get(client, "/select")[0] == 400  # missing query
        assert get(client, "/select?query=%3F%3F")[0] == 400  # bad syntax
        assert get(client, "/select?query=x&at=abc")[0] == 400
        assert get(client, f"/select?query={quote(ANIMAL_QUERY, safe='')}&at=77")[0] == 410
        assert get(client, f"/triples?s={quote('<bad iri>', safe='')}")[0] == 400
        query = quote(ANIMAL_QUERY, safe="")
        assert get(client, f"/select?query={query}&limit=0")[0] == 400
        assert get(client, f"/triples?limit=-3")[0] == 400

    def test_keep_alive_survives_errored_post_with_body(self, client):
        """An error response must drain the request body, or every later
        request on the keep-alive connection parses garbage."""
        status, _ = post(client, "/nope", {"assert": ["<a> <b> <c>"]})
        assert status == 404
        status, health = get(client, "/healthz")  # same connection
        assert status == 200 and health["ok"] is True


class TestLimitPushdown:
    """``/select?limit=k`` keeps exactly ``min(k, distinct projected rows)``
    rows of the unlimited answer; ``/ask`` agrees with the reference
    evaluator — over a join whose first step spans several blocks, read
    through a view with a non-empty overlay."""

    PEOPLE = 3 * BLOCK_ROWS + 5

    @pytest.fixture()
    def social(self, server, client):
        post(client, "/apply", {"assert": [f"{EX.Person.n3()} {SUBCLASS} {EX.Agent.n3()}"]})
        for start in range(0, self.PEOPLE, 50):  # several commits: an overlay
            lines = []
            for i in range(start, min(start + 50, self.PEOPLE)):
                lines.append(f"{EX[f'p{i}'].n3()} {RDF_TYPE} {EX.Person.n3()}")
                for other in ((i + 1) % self.PEOPLE, (i * 7 + 3) % self.PEOPLE):
                    lines.append(f"{EX[f'p{i}'].n3()} {EX.knows.n3()} {EX[f'p{other}'].n3()}")
            assert post(client, "/apply", {"assert": lines})[0] == 200
        assert server.service.view()._pso, "reads must go through the overlay"
        return quote(f"?x {RDF_TYPE} {EX.Agent.n3()} . ?x {EX.knows.n3()} ?y", safe="")

    @pytest.mark.parametrize(
        "limit", (1, 25, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)
    )
    def test_select_limit_rows(self, client, social, limit):
        _, full = get(client, f"/select?query={social}")
        everything = {tuple(row) for row in full["rows"]}
        assert len(everything) == len(full["rows"]) > 2 * BLOCK_ROWS + 3
        status, out = get(client, f"/select?query={social}&limit={limit}")
        assert status == 200
        rows = [tuple(row) for row in out["rows"]]
        assert len(rows) == min(limit, len(everything))
        assert len(set(rows)) == len(rows) and set(rows) <= everything
        # Projected on ?x the duplicates collapse: the limit counts people.
        status, out = get(client, f"/select?query={social}&var=x&limit={limit}")
        people = [row[0] for row in out["rows"]]
        assert out["variables"] == ["x"]
        assert len(people) == len(set(people)) == min(limit, self.PEOPLE)
        assert {(person,) for person in people} <= {(x,) for x, _ in everything}

    def test_construct_limit(self, client, social):
        template = quote(f"?y {EX.knownBy.n3()} ?x", safe="")
        status, out = get(
            client, f"/construct?template={template}&query={social}&limit={BLOCK_ROWS + 2}"
        )
        assert status == 200 and out["count"] == BLOCK_ROWS + 2
        assert len(set(out["triples"])) == BLOCK_ROWS + 2

    def test_ask_matches_reference_evaluator(self, server, client, social):
        from repro.server.wire import parse_patterns
        from repro.store import solve_naive

        graph = server.service.graph()
        for text in (
            f"?x {RDF_TYPE} {EX.Agent.n3()} . ?x {EX.knows.n3()} ?y",
            f"{EX.p3.n3()} {EX.knows.n3()} {EX.p4.n3()}",
            f"{EX.p3.n3()} {EX.knows.n3()} {EX.p5.n3()}",
            f"?x {EX.knows.n3()} ?x",
            f"?x {RDF_TYPE} {EX.Robot.n3()} . ?x {EX.knows.n3()} ?y",
            f"?x {EX.knows.n3()} ?y . ?y {EX.knows.n3()} ?z . ?z {EX.knows.n3()} ?x",
        ):
            expected = bool(solve_naive(graph, parse_patterns(text)))
            status, out = get(client, f"/ask?query={quote(text, safe='')}")
            assert status == 200 and out["result"] is expected, text


class _RecordedWrites(list):
    """A ``wfile`` that records each write (= each ``sendall``)."""

    def write(self, data):
        self.append(bytes(data))

    def flush(self):
        pass


class TestOneWritePerReply:
    """Status line, headers and body of a JSON reply leave in one write."""

    def _handler(self):
        from types import SimpleNamespace

        from repro.server.http import _Handler

        handler = _Handler.__new__(_Handler)
        handler.server = SimpleNamespace(verbose=False)
        handler.request_version = "HTTP/1.1"
        handler.requestline = "GET /x HTTP/1.1"
        handler.wfile = _RecordedWrites()
        handler._trace_id = "t-1"
        return handler

    @staticmethod
    def _parse(reply: bytes):
        head, _, body = reply.partition(b"\r\n\r\n")
        status, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        return status, headers, body

    def test_send_json(self):
        handler = self._handler()
        handler._send_json({"rows": [["a"], ["b"]]}, status=200)
        assert len(handler.wfile) == 1
        status, headers, body = self._parse(handler.wfile[0])
        assert status.startswith("HTTP/1.1 200")
        assert json.loads(body) == {"rows": [["a"], ["b"]]}
        assert int(headers["Content-Length"]) == len(body)
        assert headers["Content-Type"] == "application/json"
        assert headers["X-Trace-Id"] == "t-1"

    def test_send_error_json(self):
        handler = self._handler()
        handler._send_error_json(429, "slow down", retry_after=0.2)
        assert len(handler.wfile) == 1
        status, headers, body = self._parse(handler.wfile[0])
        assert status.startswith("HTTP/1.1 429")
        assert headers["Retry-After"] == "1"
        assert int(headers["Content-Length"]) == len(body)
        assert json.loads(body) == {"error": "slow down", "retry_after": 0.2}

    def test_replies_stay_well_framed_on_keep_alive(self, client):
        """Back-to-back requests on one connection parse cleanly."""
        for _ in range(3):
            assert get(client, "/healthz")[0] == 200
            assert get(client, "/nope")[0] == 404


class TestApplyEndpoint:
    def test_retract_round_trip(self, client):
        apply_schema(client)
        status, out = post(client, "/apply", {
            "retract": [f"{EX.tom.n3()} {RDF_TYPE} {EX.Cat.n3()}"]
        })
        assert status == 200
        assert out["report"]["removed"] == 2  # the assertion + its inference
        status, out = get(client, f"/ask?query={quote(ANIMAL_QUERY, safe='')}")
        assert out["result"] is False

    def test_validation(self, client):
        conn = client
        conn.request("POST", "/apply", "{not json", {"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()  # drain: the keep-alive connection is reused below
        assert response.status == 400
        assert post(conn, "/apply", {})[0] == 400
        assert post(conn, "/apply", {"assert": "not-a-list"})[0] == 400
        assert post(conn, "/apply", {"assert": ["<a> <b>"]})[0] == 400
        assert post(conn, "/apply", {"assert": [], "timeout": -1})[0] == 400

    def test_post_to_get_endpoint_is_404(self, client):
        assert post(client, "/select", {})[0] == 404


class SSEReader:
    """Collects parsed SSE events from a /subscribe stream."""

    def __init__(self, port: int, query: str, params: str = ""):
        self.events: list[dict] = []
        self.hello = threading.Event()
        self.got_delta = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(port, query, params), daemon=True
        )
        self._thread.start()

    def _run(self, port: int, query: str, params: str) -> None:
        conn = HTTPConnection("127.0.0.1", port, timeout=20)
        try:
            conn.request("GET", f"/subscribe?query={quote(query, safe='')}{params}")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") == "text/event-stream"
            current: dict = {}
            while True:
                line = response.readline().decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    current["event"] = line[6:].strip()
                elif line.startswith("data:"):
                    current["data"] = json.loads(line[5:].strip())
                elif line == "" and current:
                    self.events.append(dict(current))
                    if current.get("event") == "hello":
                        self.hello.set()
                    if current.get("event") == "delta":
                        self.got_delta.set()
                        return
                    current.clear()
        except OSError:
            return
        finally:
            conn.close()

    def deltas(self) -> list[dict]:
        return [e["data"] for e in self.events if e["event"] == "delta"]


class TestSSE:
    def test_additions_stream_exact_bindings(self, server, client):
        apply_schema(client)
        reader = SSEReader(server.port, ANIMAL_QUERY)
        assert reader.hello.wait(10)
        assert reader.events[0]["data"]["solutions"] == 1  # tom, seeded
        status, applied = post(client, "/apply", {"assert": [
            f"{EX.rex.n3()} {RDF_TYPE} {EX.Cat.n3()}",
        ]})
        assert status == 200
        assert reader.got_delta.wait(10)
        deltas = reader.deltas()
        assert deltas == [{
            "revision": applied["revision"],
            "added": [{"x": EX.rex.n3()}],
            "removed": [],
        }]

    def test_removals_stream_exact_bindings(self, server, client):
        apply_schema(client)
        reader = SSEReader(server.port, ANIMAL_QUERY)
        assert reader.hello.wait(10)
        status, applied = post(client, "/apply", {
            "retract": [f"{EX.tom.n3()} {RDF_TYPE} {EX.Cat.n3()}"]
        })
        assert status == 200
        assert reader.got_delta.wait(10)
        assert reader.deltas() == [{
            "revision": applied["revision"],
            "added": [],
            "removed": [{"x": EX.tom.n3()}],
        }]

    def test_no_spurious_events(self, server, client):
        """An unrelated commit emits nothing; the next matching commit's
        delta is the *first* event after hello."""
        apply_schema(client)
        reader = SSEReader(server.port, ANIMAL_QUERY)
        assert reader.hello.wait(10)
        post(client, "/apply", {"assert": [
            f"{EX.a.n3()} {EX.knows.n3()} {EX.b.n3()}",  # cannot match
        ]})
        status, applied = post(client, "/apply", {"assert": [
            f"{EX.rex.n3()} {RDF_TYPE} {EX.Cat.n3()}",
        ]})
        assert reader.got_delta.wait(10)
        deltas = reader.deltas()
        assert [d["revision"] for d in deltas] == [applied["revision"]]
        assert deltas[0]["added"] == [{"x": EX.rex.n3()}]

    def test_bad_subscribe_query_is_400(self, client):
        assert get(client, "/subscribe?query=%3F%3F")[0] == 400


class TestSSEReconnect:
    """Last-Event-ID / ``from=`` replay: a dropped client misses nothing."""

    def test_replay_missed_binding_deltas(self, server, client):
        _, applied = apply_schema(client)
        seen_revision = applied["revision"]
        # The client is *not* connected while rex and felix arrive.
        post(client, "/apply", {"assert": [
            f"{EX.rex.n3()} {RDF_TYPE} {EX.Cat.n3()}",
        ]})
        _, applied3 = post(client, "/apply", {"assert": [
            f"{EX.felix.n3()} {RDF_TYPE} {EX.Cat.n3()}",
        ]})
        reader = SSEReader(server.port, ANIMAL_QUERY, params=f"&from={seen_revision}")
        assert reader.hello.wait(10)
        assert reader.got_delta.wait(10)
        [replay] = reader.deltas()
        assert replay["replayed_from"] == seen_revision
        assert replay["revision"] >= applied3["revision"]
        assert sorted(b["x"] for b in replay["added"]) == [
            EX.felix.n3(),
            EX.rex.n3(),
        ]
        assert replay["removed"] == []

    def test_replay_of_removals(self, server, client):
        _, applied = apply_schema(client)
        seen_revision = applied["revision"]
        post(client, "/apply", {
            "retract": [f"{EX.tom.n3()} {RDF_TYPE} {EX.Cat.n3()}"]
        })
        reader = SSEReader(server.port, ANIMAL_QUERY, params=f"&from={seen_revision}")
        assert reader.got_delta.wait(10)
        [replay] = reader.deltas()
        assert replay["added"] == []
        assert replay["removed"] == [{"x": EX.tom.n3()}]

    def test_no_replay_event_when_nothing_missed(self, server, client):
        _, applied = apply_schema(client)
        reader = SSEReader(
            server.port, ANIMAL_QUERY, params=f"&from={applied['revision']}"
        )
        assert reader.hello.wait(10)
        # Only a subsequent live commit produces a delta.
        _, applied2 = post(client, "/apply", {"assert": [
            f"{EX.rex.n3()} {RDF_TYPE} {EX.Cat.n3()}",
        ]})
        assert reader.got_delta.wait(10)
        [delta] = reader.deltas()
        assert "replayed_from" not in delta
        assert delta["revision"] == applied2["revision"]

    def test_evicted_revision_is_410(self, server, client):
        """Replaying from a revision outside the retained ring matches
        the ``at=N`` contract: 410, not a silent skip."""
        apply_schema(client)
        for n in range(10):  # push revision 1 out of the 8-deep view ring
            post(client, "/apply", {"assert": [
                f"{EX[f'extra{n}'].n3()} {RDF_TYPE} {EX.Cat.n3()}",
            ]})
        status, body = get(
            client, f"/subscribe?query={quote(ANIMAL_QUERY, safe='')}&from=1"
        )
        assert status == 410
        assert "retained" in body["error"]

    def test_bad_last_event_id_is_400(self, client):
        conn_status, body = get(
            client,
            f"/subscribe?query={quote(ANIMAL_QUERY, safe='')}&from=xyz",
        )
        assert conn_status == 400


class TestBodyCap:
    def test_oversized_body_is_413_unread(self, server):
        """A Content-Length over the cap is refused before the body is
        buffered (the connection closes: the body was never drained)."""
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.putrequest("POST", "/apply")
            conn.putheader("Content-Type", "application/json")
            conn.putheader("Content-Length", str(9 * 1024 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
            assert b"exceeds" in response.read()
        finally:
            conn.close()

    def test_body_at_limit_passes(self, client):
        """A large-but-legal body still parses (the cap, not the parser,
        is the only size gate)."""
        big = "x" * 100_000
        status, out = post(client, "/apply", {"assert": [
            f'{EX.a.n3()} {EX.says.n3()} "{big}"',
        ]})
        assert status == 200
        assert out["report"]["explicit_added"] == 1
