"""The HTTP front end: stdlib-only serving for the reasoning service.

A :class:`ReasoningHTTPServer` (a ``ThreadingHTTPServer``) exposes one
:class:`~repro.server.service.ReasoningService`:

====================  ======  ====================================================
``/select``           GET     BGP solutions, projected on ``var`` (all by default);
                              ``explain=1`` returns the query plan instead
                              (join order, index per step, est. vs. actual rows)
``/ask``              GET     does the BGP have at least one solution?
``/construct``        GET     instantiate ``template`` for every ``query`` solution
``/triples``          GET     pattern dump (``s``/``p``/``o`` N-Triples terms)
``/stats``            GET     revision, engine, write-queue, replication state
``/healthz``          GET     liveness: ``{"ok": true, "revision": N, "role": ...}``
``/readyz``           GET     readiness: 503 while a replica catches up
``/apply``            POST    assert/retract batch -> coalesced commit + report
                              (followers answer 307 -> leader, or 403)
``/subscribe``        GET     SSE stream of a standing BGP's binding deltas
                              (``Last-Event-ID``/``from=`` replays missed ones)
``/feed``             GET     SSE replication feed of committed deltas
                              (``from=N`` resumes; 410 once compacted away)
``/snapshot``         GET     binary state image for replica bootstrap
``/metrics``          GET     Prometheus text exposition of every layer's metrics
``/debug/traces``     GET     recent spans as JSON lines (``?trace_id=``/``limit=``)
``/tenants``          GET     registered tenants + quotas (tenancy mode)
``/tenants``          POST    register / re-quota a tenant
``/tenants``          DELETE  unregister a tenant (``?name=``; data kept on disk)
====================  ======  ====================================================

Multi-tenant mode (``tenants=TenantManager`` / ``slider-reason serve
--tenancy``): read endpoints, ``/apply``, ``/subscribe`` and ``/stats``
accept ``?tenant=<name>`` and run against that tenant's isolated
engine.  Tenant admission maps onto HTTP statuses: an unknown tenant is
``404``; an over-rate or queue-full write is ``429`` with a
``Retry-After`` header; a write that would exceed a hard quota is
``413`` and commits nothing.

Consistency model: every read endpoint runs against a snapshot
:class:`~repro.server.views.ReadView` — reads see *committed revisions
only*, never an in-flight apply.  Responses carry the revision they were
evaluated at; pass ``at=N`` to pin a retained revision (``410 Gone``
once it leaves the ring).  Writes return their committed revision, and
the corresponding view is published before the response is sent, so a
client can chain ``POST /apply`` -> ``GET /select?at=<revision>``.

SSE: ``GET /subscribe?query=...`` emits one ``hello`` event (revision +
initial solution count), then one ``delta`` event per committed revision
that changed the solution set — binding-level ``added`` / ``removed``
arrays, exactly the diffs the in-process subscription API delivers —
with ``: keepalive`` comments while idle.

Observability: every request carries a trace id — honoured from the
client's ``X-Trace-Id`` header or minted at the edge — echoed back in
the response's ``X-Trace-Id`` header and threaded through the write
pipeline, so a coalesced ``/apply``'s commit span (and, under sharding,
every per-shard sub-commit span) names the client's id.  Request
counts/latency land in the ``slider_http_*`` metric families served at
``/metrics``; ``/select``, ``/ask`` and ``/construct`` over the server's
slow-query threshold are logged with their timing breakdown and the
planner's ``explain()`` output.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..obs import SlowQueryLog, TRACER, instruments as _obs, new_trace_id
from ..persist.snapshot import image_revision
from ..rdf.terms import Variable
from ..store.query import ask, construct, explain, select, solve
from ..tenancy.errors import (
    AdmissionRejectedError,
    QuotaExceededError,
    RateLimitedError,
    TenancyError,
    UnknownTenantError,
)
from ..tenancy.registry import TenantQuota
from .coalescer import CoalescerClosedError
from .service import ReasoningService, ServiceClosedError
from .views import RevisionGoneError
from .wire import (
    PatternSyntaxError,
    parse_patterns,
    parse_statements,
    parse_term,
    render_binding,
    render_triple,
)

__all__ = ["ReasoningHTTPServer", "serve", "MAX_BODY_BYTES"]

#: Idle seconds between SSE keepalive comments.
SSE_HEARTBEAT_SECONDS = 5.0

#: Default row/triple cap on read endpoints (override with ``limit=``).
DEFAULT_LIMIT = 10_000

#: Request bodies above this are refused with ``413`` before being read
#: — a malicious (or confused) client must not make the server buffer
#: an arbitrarily large ``/apply`` payload.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BadRequest(ValueError):
    """Maps to a 400 with the message as the error body."""


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive matters: the bench's closed-loop clients reuse their
    # connection for thousands of requests.
    protocol_version = "HTTP/1.1"
    # JSON replies leave in one write (see _send_body); the streaming
    # endpoints still send many small ones, and with Nagle on those
    # interact with delayed ACKs into a ~40 ms stall each.
    disable_nagle_algorithm = True
    server: "ReasoningHTTPServer"

    # --- plumbing -----------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    @property
    def service(self) -> ReasoningService:
        # Snapshotted per request in _dispatch: a follower re-bootstrap
        # swaps the server's service, and one request must not straddle
        # two engines.
        return self._service

    def send_response(self, code, message=None):  # noqa: A003 - stdlib naming
        # Central choke point: every response (including redirects, SSE
        # headers and 304s) records its status for the request metrics
        # and echoes the request's trace id so clients can correlate
        # their call with the spans at /debug/traces.
        super().send_response(code, message)
        self._status = code
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            self.send_header("X-Trace-Id", trace_id)

    def _send_body(self, body: bytes) -> None:
        """``end_headers()`` and the body in one ``sendall``: queued behind
        the buffered header block instead of written after it, so a reply
        is one syscall and one client wake-up, not two."""
        self.send_header("Content-Length", str(len(body)))
        if self.request_version == "HTTP/0.9":  # no header block to join
            self.wfile.write(body)
            return
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self._send_body(body)

    def _send_error_json(
        self, status: int, message: str, retry_after: float | None = None
    ) -> None:
        body = {"error": message}
        if retry_after is not None:
            body["retry_after"] = retry_after
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        if retry_after is not None:
            # Whole seconds per RFC 9110; never advertise 0 ("retry now").
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after))))
        self._send_body(payload)

    def _params(self) -> dict[str, list[str]]:
        return parse_qs(urlsplit(self.path).query, keep_blank_values=True)

    def _route(self) -> str:
        return urlsplit(self.path).path.rstrip("/") or "/"

    @staticmethod
    def _one(params: dict, name: str, required: bool = False) -> str | None:
        values = params.get(name)
        if not values or not values[-1]:
            if required:
                raise _BadRequest(f"missing required parameter {name!r}")
            return None
        return values[-1]

    @staticmethod
    def _int(params: dict, name: str, default: int | None = None) -> int | None:
        raw = _Handler._one(params, name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise _BadRequest(f"parameter {name!r} must be an integer, got {raw!r}")

    @staticmethod
    def _flag(params: dict, name: str) -> bool:
        raw = _Handler._one(params, name)
        return raw is not None and raw.lower() in ("1", "true", "yes")

    @staticmethod
    def _limit(params: dict) -> int:
        limit = _Handler._int(params, "limit", DEFAULT_LIMIT)
        if limit < 1:
            raise _BadRequest(f"parameter 'limit' must be >= 1, got {limit}")
        return limit

    def _tenant_manager(self):
        """The server's TenantManager; 400 when tenancy is not enabled."""
        manager = self.server.tenants
        if manager is None:
            raise _BadRequest(
                "tenancy is not enabled on this server (start with --tenancy)"
            )
        return manager

    def _scope(self, tenant):
        """What serves this request: the shared service, or — with a
        tenant — that tenant's isolated slice of the manager.  Both
        expose ``graph(at)``, ``apply(...)``, ``subscribe_channel(...)``."""
        if tenant is None:
            return self.service
        if not isinstance(tenant, str):
            raise _BadRequest('"tenant" must be a string')
        return self._tenant_manager().scope(tenant)

    def _graph_at(self, params: dict):
        """(graph, revision) for the request's (possibly pinned) view."""
        graph = self._scope(self._one(params, "tenant")).graph(self._int(params, "at"))
        return graph, graph.store.revision

    # --- dispatch -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(_GET_ROUTES)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(_POST_ROUTES)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch(_DELETE_ROUTES)

    def _dispatch(self, routes: dict) -> None:
        # Trace id: honour the client's X-Trace-Id (bounded, so a hostile
        # header cannot bloat every span) or mint one at the edge.
        raw = (self.headers.get("X-Trace-Id") or "").strip()
        self._trace_id = raw[:64] if raw else new_trace_id()
        self._status = 0
        route = self._route()
        # Unknown paths share one label: request metrics must not let an
        # URL scanner mint a label set per probe.
        endpoint = route if route in _KNOWN_ROUTES else "__unknown__"
        enabled = _obs.REGISTRY.enabled
        if enabled:
            _obs.HTTP_IN_FLIGHT.inc()
        started = time.perf_counter()
        try:
            if route in _UNTRACED_ROUTES:
                # Scrapes would otherwise flood the span ring they serve.
                self._handle_request(routes)
            else:
                with TRACER.span(
                    "http.request",
                    trace_ids=[self._trace_id],
                    endpoint=endpoint,
                    method=self.command,
                ) as span:
                    self._handle_request(routes)
                    span.set(status=self._status)
        finally:
            if enabled:
                _obs.HTTP_IN_FLIGHT.dec()
                _obs.HTTP_REQUESTS.inc_labels(endpoint, self.command, str(self._status))
                _obs.HTTP_REQUEST_SECONDS.observe_labels(
                    endpoint, value=time.perf_counter() - started
                )

    def _handle_request(self, routes: dict) -> None:
        try:
            self._service = self.server.service
        except Exception:  # noqa: BLE001 - provider gap, not a handler bug
            # A follower's service provider has no service during the
            # handover window of a durable re-bootstrap: that is a 503,
            # not a dropped connection.
            self._send_error_json(503, "service is restarting (replica bootstrap)")
            return
        # Drain the request body up front, whatever happens next: an
        # error response sent with unread body bytes on the socket would
        # desync every subsequent request of a keep-alive connection.
        # Oversized bodies are refused *unread* — draining them would be
        # the very buffering the cap exists to prevent — at the price of
        # closing this connection.
        length = int(self.headers.get("Content-Length") or 0)
        if length > self.server.max_body_bytes:
            self.close_connection = True
            self._send_error_json(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body_bytes}-byte limit",
            )
            return
        self._body = self.rfile.read(length) if length > 0 else b""
        handler = routes.get(self._route())
        if handler is None:
            self._send_error_json(404, f"no such endpoint: {self._route()}")
            return
        try:
            handler(self)
        except _BadRequest as error:
            self._send_error_json(400, str(error))
        except PatternSyntaxError as error:
            self._send_error_json(400, f"bad query: {error}")
        except RevisionGoneError as error:
            # Includes the feed's FeedTruncatedError subclass: a resume
            # point compacted away is "revision gone", the at=N way.
            self._send_error_json(410, str(error))
        except (ServiceClosedError, CoalescerClosedError):
            self._send_error_json(503, "service is shutting down")
        except UnknownTenantError as error:
            self._send_error_json(404, str(error))
        except QuotaExceededError as error:
            # Hard quota: atomic reject, nothing committed (cf. 429,
            # which means "slow down and retry the same request").
            self._send_error_json(413, str(error))
        except (RateLimitedError, AdmissionRejectedError) as error:
            self._send_error_json(429, str(error), retry_after=error.retry_after)
        except TenancyError as error:
            self._send_error_json(400, str(error))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as error:  # noqa: BLE001 - a request must not kill the thread
            self._send_error_json(500, f"{type(error).__name__}: {error}")

    def _note_slow(
        self,
        endpoint: str,
        started: float,
        query: str,
        params: dict,
        breakdown: dict,
        graph=None,
        patterns=None,
    ) -> None:
        """Feed the server's slow-query log (cheap below the threshold).

        The planner's ``explain()`` is handed in lazily — it only runs
        for queries that actually crossed the threshold.
        """
        log = self.server.slow_queries
        seconds = time.perf_counter() - started
        if log is None or not log.enabled or seconds < log.threshold_seconds:
            return
        explain_fn = None
        if graph is not None and patterns is not None:

            def explain_fn():
                return explain(graph, patterns)

        entry = log.observe(
            endpoint=endpoint,
            seconds=seconds,
            query=query,
            tenant=self._one(params, "tenant"),
            trace_id=self._trace_id,
            breakdown=breakdown,
            explain_fn=explain_fn,
        )
        if entry is not None and _obs.REGISTRY.enabled:
            _obs.HTTP_SLOW_QUERIES.inc_labels(endpoint)

    # --- read endpoints -----------------------------------------------------
    def _ep_select(self) -> None:
        started = time.perf_counter()
        params = self._params()
        query = self._one(params, "query", required=True)
        patterns = parse_patterns(query)
        graph, revision = self._graph_at(params)
        limit = self._limit(params)
        parsed = time.perf_counter()
        if self._flag(params, "explain"):
            # Plan + execute once, reporting estimated vs. actual rows
            # per join step instead of the solution rows.
            self._send_json({"revision": revision, "explain": explain(graph, patterns)})
            return
        names = params.get("var")
        if names:
            variables = [Variable(name) for name in names]
            unknown = [
                v.name
                for v in variables
                if not any(v in pattern for pattern in patterns)
            ]
            if unknown:
                raise _BadRequest(f"projected variables not in query: {unknown}")
        else:
            seen: dict[Variable, None] = {}
            for pattern in patterns:
                for term in pattern:
                    if isinstance(term, Variable):
                        seen[term] = None
            variables = list(seen)
        # The limit is the executor's: joining and decoding stop at the
        # limit-th distinct projected row.
        rows = [
            [term.n3() for term in row]
            for row in select(graph, variables, patterns, limit=limit)
        ]
        solved = time.perf_counter()
        self._note_slow(
            "/select",
            started,
            query,
            params,
            {
                "parse_ms": round((parsed - started) * 1000.0, 3),
                "solve_ms": round((solved - parsed) * 1000.0, 3),
            },
            graph,
            patterns,
        )
        self._send_json(
            {
                "revision": revision,
                "variables": [v.name for v in variables],
                "rows": rows,
            }
        )

    def _ep_ask(self) -> None:
        started = time.perf_counter()
        params = self._params()
        query = self._one(params, "query", required=True)
        patterns = parse_patterns(query)
        graph, revision = self._graph_at(params)
        parsed = time.perf_counter()
        result = ask(graph, patterns)
        self._note_slow(
            "/ask",
            started,
            query,
            params,
            {
                "parse_ms": round((parsed - started) * 1000.0, 3),
                "solve_ms": round((time.perf_counter() - parsed) * 1000.0, 3),
            },
            graph,
            patterns,
        )
        self._send_json({"revision": revision, "result": result})

    def _ep_construct(self) -> None:
        started = time.perf_counter()
        params = self._params()
        query = self._one(params, "query", required=True)
        template = parse_patterns(self._one(params, "template", required=True))
        patterns = parse_patterns(query)
        graph, revision = self._graph_at(params)
        limit = self._limit(params)
        parsed = time.perf_counter()
        try:
            triples = construct(graph, template, patterns, limit=limit)
        except ValueError as error:  # template variable the body never binds
            raise _BadRequest(str(error))
        self._note_slow(
            "/construct",
            started,
            query,
            params,
            {
                "parse_ms": round((parsed - started) * 1000.0, 3),
                "solve_ms": round((time.perf_counter() - parsed) * 1000.0, 3),
            },
            graph,
            patterns,
        )
        self._send_json(
            {
                "revision": revision,
                "count": len(triples),
                "triples": [render_triple(t) for t in triples],
            }
        )

    def _ep_triples(self) -> None:
        params = self._params()
        graph, revision = self._graph_at(params)
        limit = self._limit(params)
        terms = []
        for name in ("s", "p", "o"):
            raw = self._one(params, name)
            terms.append(None if raw is None else parse_term(raw))
        matches = []
        for triple in graph.triples(*terms):
            matches.append(render_triple(triple))
            if len(matches) >= limit:
                break
        self._send_json(
            {"revision": revision, "count": len(matches), "triples": matches}
        )

    def _ep_stats(self) -> None:
        params = self._params()
        tenant = self._one(params, "tenant")
        if tenant is not None:
            manager = self._tenant_manager()
            self._send_json({"tenant": tenant, **manager.tenant_stats(tenant)})
            return
        stats = self.service.stats()
        if self.server.tenants is not None:
            # Aggregates only: per-tenant detail via /stats?tenant=.
            stats["tenancy"] = self.server.tenants.summary()
        self._send_json(stats)

    def _ep_healthz(self) -> None:
        """Liveness only: a catching-up follower is alive but not ready."""
        service = self.service
        body = {
            "ok": True,
            "revision": service.revision,
            "role": service.role,
            "replication_lag_revisions": service.replication_lag,
        }
        cluster = service.sharding
        if cluster is not None:
            body["sharding"] = {
                "shards": cluster["shards"],
                "revision_vector": cluster["revision_vector"],
                "forwards": cluster["forwards"],
                "queue_depth": service.writes.stats()["queued"],
            }
        if self.server.tenants is not None:
            # Aggregate write-queue saturation: 1.0 means the worst
            # tenant's next submit takes a 429 — scrape this before the
            # rejections start, not after.
            body["tenancy"] = self.server.tenants.writes.saturation()
        self._send_json(body)

    def _ep_readyz(self) -> None:
        """Readiness: 503 while a replica recovers / catches up.

        Load balancers poll this to hold a node out of rotation until it
        serves current data; liveness stays on ``/healthz``.
        """
        service = self.service
        ready = service.ready
        self._send_json(
            {
                "ready": ready,
                "role": service.role,
                "revision": service.revision,
                "replication_lag_revisions": service.replication_lag,
            },
            status=200 if ready else 503,
        )

    # --- write endpoint -----------------------------------------------------
    def _ep_apply(self) -> None:
        service = self.service
        if service.role == "follower":
            # Replicas are read-only; the delta pipeline lives on the
            # leader.  With a known leader the client is redirected with
            # 307 (method + body preserved); otherwise refused.
            if service.leader_url:
                body = json.dumps(
                    {"error": "this node is a read replica", "leader": service.leader_url}
                ).encode("utf-8")
                self.send_response(307)
                self.send_header("Location", f"{service.leader_url}/apply")
                self.send_header("Content-Type", "application/json")
                self._send_body(body)
            else:
                self._send_error_json(
                    403, "this node is a read replica and accepts no writes"
                )
            return
        if not self._body:
            raise _BadRequest("POST /apply requires a JSON body")
        try:
            body = json.loads(self._body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise _BadRequest("body must be a JSON object")
        assertions = parse_statements(_as_list(body, "assert"))
        retractions = parse_statements(_as_list(body, "retract"))
        if not assertions and not retractions:
            raise _BadRequest('body must carry "assert" and/or "retract" statements')
        timeout = body.get("timeout", 30.0)
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            raise _BadRequest('"timeout" must be a positive number of seconds')
        tenant = body.get("tenant") or self._one(self._params(), "tenant")
        scope = self._scope(tenant)
        try:
            # Tenant admission (404/413/429) surfaces via _handle_request.
            result = scope.apply(
                assertions, retractions, timeout=timeout, trace_id=self._trace_id
            )
        except TimeoutError:
            self._send_error_json(504, "write was not committed in time")
            return
        payload = {
            "revision": result.revision,
            "coalesced": result.coalesced,
            "report": result.report.as_dict(),
        }
        if tenant:  # echo whose engine committed
            payload["tenant"] = tenant
        self._send_json(payload)

    # --- tenancy endpoints --------------------------------------------------
    def _ep_tenants_list(self) -> None:
        """Registered tenants with their quotas (names stay sorted)."""
        manager = self._tenant_manager()
        tenants = [
            {
                "name": name,
                "graph": f"urn:tenant:{name}",
                "quota": manager.registry.quota(name).as_dict(),
            }
            for name in manager.tenants()
        ]
        self._send_json({"count": len(tenants), "tenants": tenants})

    def _ep_tenants_register(self) -> None:
        """Register (or re-quota) a tenant: ``{"name": ..., "quota": {...}}``."""
        manager = self._tenant_manager()
        if not self._body:
            raise _BadRequest('POST /tenants requires a JSON body with "name"')
        try:
            body = json.loads(self._body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"body is not valid JSON: {error}")
        if not isinstance(body, dict) or not isinstance(body.get("name"), str):
            raise _BadRequest('body must be a JSON object with a string "name"')
        quota_spec = body.get("quota")
        quota = None
        if quota_spec is not None:
            if not isinstance(quota_spec, dict):
                raise _BadRequest('"quota" must be a JSON object')
            quota = TenantQuota.from_dict(quota_spec)
        known = body["name"] in manager.registry
        effective = manager.register(body["name"], quota)
        self._send_json(
            {
                "name": body["name"],
                "graph": f"urn:tenant:{body['name']}",
                "quota": effective.as_dict(),
            },
            status=200 if known else 201,
        )

    def _ep_tenants_remove(self) -> None:
        """Unregister ``?name=`` (state directory survives on disk)."""
        manager = self._tenant_manager()
        name = self._one(self._params(), "name", required=True)
        manager.remove(name)
        self._send_json({"removed": name})

    # --- replication endpoints ----------------------------------------------
    def _ep_snapshot(self) -> None:
        """Replica bootstrap: the committed state as one binary image.

        The response carries an ``ETag`` of the revision the image
        seals, and an ``If-None-Match`` hit answers 304 with no body — a
        follower re-bootstrapping after WAL compaction reuses its cached
        image instead of downloading an identical one.
        """
        service = self.service
        # The engine revision, not the view registry's: replication
        # coordinates are engine revision ids (an explicit compaction
        # commits a flush revision the views never see).
        revision = service.reasoner.revision
        if self.headers.get("If-None-Match") == f'"{revision}"':
            self.send_response(304)
            self.send_header("ETag", f'"{revision}"')
            self.send_header("X-Slider-Revision", str(revision))
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        blob = service.snapshot_bytes()
        # Label the bytes actually sent: a commit may have landed since
        # the image was built (the engine lock is released by now).
        revision = image_revision(blob)
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("ETag", f'"{revision}"')
        self.send_header("X-Slider-Revision", str(revision))
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _ep_feed(self) -> None:
        """SSE change feed: one ``commit`` event per committed revision.

        ``?from=N`` (or ``Last-Event-ID: N``) resumes after revision N;
        ``410`` when that revision was compacted away (the follower
        bootstraps from ``/snapshot`` instead); an in-stream ``gone``
        event signals the same mid-stream (slow consumer outrun by
        compaction).
        """
        service = self.service
        feed = service.feed
        if feed is None:
            self._send_error_json(
                404, "this node has no change feed (replication not enabled)"
            )
            return
        params = self._params()
        cursor = self._int(params, "from")
        if cursor is None:
            raw = self.headers.get("Last-Event-ID")
            if raw is not None:
                try:
                    cursor = int(raw)
                except ValueError:
                    raise _BadRequest(f"Last-Event-ID must be an integer, got {raw!r}")
        if cursor is None:
            cursor = feed.latest_revision  # tail-only consumer
        feed.check_resumable(cursor)  # may raise 410 pre-headers; no WAL read
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        self._sse_event(
            "hello",
            {
                # The feed's watermark — the engine revision counter,
                # advanced on every commit (the view registry can trail
                # it by trailing empty revisions, e.g. an explicit
                # compaction's flush; followers measure catch-up against
                # the counter, not the views).
                "revision": feed.latest_revision,
                "from": cursor,
                "fragment": feed.fragment,
                "role": service.role,
                "oldest_resumable": feed.oldest_resumable(),
            },
        )
        while not (service.closed or feed.closed):
            try:
                records, watermark = feed.wait(
                    cursor, timeout=self.server.sse_heartbeat
                )
            except RevisionGoneError as error:
                self._sse_event("gone", {"error": str(error)})
                break
            for record in records:
                self._sse_raw("commit", record.encode(), event_id=record.revision)
                cursor = record.revision
            if watermark > cursor:
                # Revisions in (cursor, watermark] were empty commits:
                # nothing to replay, but the follower's lag/readiness
                # tracks the leader's revision counter through them.
                self._sse_event(
                    "watermark", {"revision": watermark}, event_id=watermark
                )
                cursor = watermark
            elif not records:
                if service.closed or feed.closed:
                    break
                self.wfile.write(b": keepalive\n\n")
                self.wfile.flush()

    # --- observability endpoints --------------------------------------------
    def _ep_metrics(self) -> None:
        """Prometheus text exposition (format 0.0.4) of every layer."""
        body = _obs.REGISTRY.expose().encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self._send_body(body)

    def _ep_debug_traces(self) -> None:
        """Recent spans as JSON lines; ``?trace_id=`` narrows to one trace."""
        params = self._params()
        trace_id = self._one(params, "trace_id")
        limit = self._int(params, "limit")
        if limit is not None and limit < 1:
            raise _BadRequest(f"parameter 'limit' must be >= 1, got {limit}")
        body = TRACER.ring.to_jsonl(trace_id=trace_id, limit=limit).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self._send_body(body)

    # --- SSE ----------------------------------------------------------------
    def _ep_subscribe(self) -> None:
        params = self._params()
        patterns = parse_patterns(self._one(params, "query", required=True))
        last_seen = self._int(params, "from")
        if last_seen is None:
            raw = self.headers.get("Last-Event-ID")
            if raw is not None:
                try:
                    last_seen = int(raw)
                except ValueError:
                    raise _BadRequest(f"Last-Event-ID must be an integer, got {raw!r}")
        # Reconnect replay: solutions at the client's last-seen revision
        # come from the retained view ring — 410 (before any SSE bytes)
        # when it was evicted, exactly like ``at=N`` reads — so a client
        # that drops mid-stream never silently skips binding deltas.
        # A tenant-scoped stream rides the tenant's own engine and counts
        # against its standing-query quota.
        scope = self._scope(self._one(params, "tenant"))
        replay_from = None
        if last_seen is not None:
            source = scope.graph(last_seen)
            replay_from = {frozenset(s.items()): s for s in solve(source, patterns)}
        channel = scope.subscribe_channel(patterns)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            current = channel.initial_solutions()
            self._sse_event(
                "hello",
                {
                    "revision": channel.seeded_revision,
                    "solutions": len(current),
                },
                event_id=channel.seeded_revision,
            )
            if replay_from is not None:
                now = {frozenset(s.items()): s for s in current}
                added = [s for key, s in now.items() if key not in replay_from]
                removed = [s for key, s in replay_from.items() if key not in now]
                if added or removed:
                    # One coalesced delta covering (last_seen, seeded].
                    self._sse_event(
                        "delta",
                        {
                            "revision": channel.seeded_revision,
                            "replayed_from": last_seen,
                            "added": [render_binding(b) for b in added],
                            "removed": [render_binding(b) for b in removed],
                        },
                        event_id=channel.seeded_revision,
                    )
            while not (channel.closed or self.service.closed):
                event = channel.get(timeout=self.server.sse_heartbeat)
                if event is None:
                    if channel.closed or self.service.closed:
                        break
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                self._sse_event(
                    "delta",
                    {
                        "revision": event.revision,
                        "added": [render_binding(b) for b in event.added],
                        "removed": [render_binding(b) for b in event.removed],
                    },
                    event_id=event.revision,
                )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away: normal stream end
        finally:
            channel.close()

    def _sse_event(self, event: str, payload: dict, event_id=None) -> None:
        self._sse_raw(event, json.dumps(payload), event_id=event_id)

    def _sse_raw(self, event: str, data: str, event_id=None) -> None:
        head = f"id: {event_id}\n" if event_id is not None else ""
        body = "".join(f"data: {line}\n" for line in data.split("\n"))
        self.wfile.write(f"{head}event: {event}\n{body}\n".encode("utf-8"))
        self.wfile.flush()


def _as_list(body: dict, key: str) -> list:
    value = body.get(key, [])
    if not isinstance(value, list):
        raise _BadRequest(f'"{key}" must be a JSON array of N-Triples statements')
    return value


_GET_ROUTES = {
    "/select": _Handler._ep_select,
    "/ask": _Handler._ep_ask,
    "/construct": _Handler._ep_construct,
    "/triples": _Handler._ep_triples,
    "/stats": _Handler._ep_stats,
    "/healthz": _Handler._ep_healthz,
    "/readyz": _Handler._ep_readyz,
    "/subscribe": _Handler._ep_subscribe,
    "/feed": _Handler._ep_feed,
    "/snapshot": _Handler._ep_snapshot,
    "/metrics": _Handler._ep_metrics,
    "/debug/traces": _Handler._ep_debug_traces,
    "/tenants": _Handler._ep_tenants_list,
}

_POST_ROUTES = {
    "/apply": _Handler._ep_apply,
    "/tenants": _Handler._ep_tenants_register,
}

_DELETE_ROUTES = {
    "/tenants": _Handler._ep_tenants_remove,
}

#: Every routable path, for the request metrics' ``endpoint`` label —
#: anything else is folded into ``__unknown__`` so path scanners cannot
#: mint unbounded label sets.
_KNOWN_ROUTES = frozenset(_GET_ROUTES) | frozenset(_POST_ROUTES) | frozenset(
    _DELETE_ROUTES
)

#: Scrape endpoints are metered but not traced: a 15 s Prometheus scrape
#: interval would otherwise evict every span it exists to serve.
_UNTRACED_ROUTES = frozenset({"/metrics", "/debug/traces"})


class ReasoningHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`ReasoningService`.

    One thread per connection (SSE streams hold theirs for their whole
    lifetime); ``daemon_threads`` so stuck clients never block process
    exit.  The server does **not** own the service — callers close the
    service after :meth:`shutdown` so in-flight writes drain first.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ReasoningService | None = None,
        verbose: bool = False,
        sse_heartbeat: float = SSE_HEARTBEAT_SECONDS,
        service_provider=None,
        max_body_bytes: int = MAX_BODY_BYTES,
        tenants=None,
        slow_query_seconds: float = 0.25,
    ):
        if (service is None) == (service_provider is None):
            raise ValueError("pass exactly one of service / service_provider")
        super().__init__(address, _Handler)
        # A provider re-resolves per request: a follower swaps its
        # service atomically when it re-bootstraps from a fresh snapshot.
        self._service_provider = (
            service_provider if service_provider is not None else (lambda: service)
        )
        self.verbose = verbose
        self.sse_heartbeat = sse_heartbeat
        self.max_body_bytes = max_body_bytes
        #: Optional :class:`~repro.tenancy.TenantManager` — enables the
        #: ``?tenant=`` routing and the ``/tenants`` endpoints.  Like
        #: the service, the server does not own it: callers close the
        #: manager after ``shutdown()``.
        self.tenants = tenants
        #: Queries slower than this are logged with their breakdown and
        #: plan; ``<= 0`` disables the log.
        self.slow_queries = SlowQueryLog(threshold_seconds=slow_query_seconds)

    @property
    def service(self) -> ReasoningService:
        """The service handlers dispatch to (may change on re-bootstrap)."""
        return self._service_provider()

    @property
    def port(self) -> int:
        """The bound port (useful with ephemeral ``port=0`` binds)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """The server's base URL, e.g. ``http://127.0.0.1:8080``."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def serve(
    service: ReasoningService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    tenants=None,
    slow_query_seconds: float = 0.25,
) -> tuple[ReasoningHTTPServer, threading.Thread]:
    """Bind and start serving on a background thread.

    Returns ``(server, thread)``; callers stop with ``server.shutdown()``
    then ``service.close()`` (and ``tenants.close()`` in tenancy mode).
    ``port=0`` binds an ephemeral port (``server.port`` has the real
    one); ``tenants`` enables multi-tenant routing;
    ``slow_query_seconds`` sets the slow-query log threshold.
    """
    server = ReasoningHTTPServer(
        (host, port),
        service,
        verbose=verbose,
        tenants=tenants,
        slow_query_seconds=slow_query_seconds,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="slider-http", daemon=True
    )
    thread.start()
    return server, thread
