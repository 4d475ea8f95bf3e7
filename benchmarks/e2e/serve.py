"""The three ``serve_*`` workloads: a real server subprocess under a
closed-loop load.

Load shape: one generator process, two keep-alive connections on two
threads (this box has two cores), each replaying its fixed, seeded
request script — the next request goes out only when the previous reply
has been read, as a calling program would.  The server is the unmodified
``slider-reason serve --port 0 --workers 2 --fragment rdfs --persist
<tmp>`` with fsync on (its default).

Correctness: every reply is kept and checked after the window — status
200 everywhere; replies of the *invariant* read pool (the seed partition
no write touches) against answers computed in-process during set-up;
replies of the *live* pool for a per-connection (per-tenant) revision
that never goes backwards; the final ``/stats`` triple counts against an
in-process replay of every write.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro import Slider
from repro.rdf import ntriples
from repro.rdf.terms import Variable
from repro.reasoner.delta import Delta
from repro.server.wire import parse_patterns
from repro.store.query import explain, solve

from common import ROOT, Result, percentile, scrape_delta, scrape_totals
from workloads import WARMUP_SHARE

__all__ = ["Server", "Serve"]

BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0
TICKS = os.sysconf("SC_CLK_TCK")


class Server:
    """One ``slider-reason serve`` child: boot, observe, stop.

    Boot parses the ephemeral port from the ``listening on`` line and
    waits for ``/readyz``; both are bounded, so a dead server is a failed
    run and not a hang.  :meth:`stop` sends SIGTERM and requires exit
    code 0 and the "stopped cleanly" line.
    """

    def __init__(self, seed_file: Path, state: Path, extra: list[str],
                 spans_file: Path | None = None):
        arguments = ["serve", str(seed_file), "--port", "0", "--workers", "2",
                     "--fragment", "rdfs", "--persist", str(state), *extra]
        if spans_file is None:
            command = [sys.executable, "-m", "repro.cli", *arguments]
        else:
            traced = Path(__file__).with_name("traced_serve.py")
            command = [sys.executable, str(traced), str(spans_file), *arguments]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), environment.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=environment, cwd=ROOT,
        )
        self.output: list[str] = []
        self.port = 0
        self._listening = threading.Event()
        self._reader = threading.Thread(target=self._read_output, daemon=True)
        self._reader.start()
        try:
            self._await_ready()
        except BaseException:
            self.kill()
            raise

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self.output.append(line.rstrip("\n"))
            if "listening on http://" in line and not self.port:
                self.port = urlsplit(line.split("listening on ")[1].split()[0]).port
                self._listening.set()
        self._listening.set()  # EOF: wake the waiter so it can fail fast

    def _await_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT
        if not self._listening.wait(BOOT_TIMEOUT) or not self.port:
            raise RuntimeError("server did not start:\n" + "\n".join(self.output[-20:]))
        while True:
            try:
                if self.get("/readyz")[0] == 200:
                    return
            except (OSError, HTTPException):
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("server never became ready:\n" + "\n".join(self.output[-20:]))
            time.sleep(0.02)

    def connect(self) -> HTTPConnection:
        """A fresh keep-alive connection with the request timeout set."""
        return HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a connection of its own."""
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get_json(self, path: str) -> dict:
        """One GET that must answer 200, decoded."""
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def scrape(self) -> dict[str, float]:
        """``/metrics`` summed by sample name."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return scrape_totals(body.decode("utf-8"))

    def cpu_seconds(self) -> float:
        """User + system CPU the child has used so far (``/proc``)."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / TICKS

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> list[str]:
        """SIGTERM, wait; returns what is wrong with the shutdown (if anything)."""
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            return [f"server ignored SIGTERM for {STOP_TIMEOUT:.0f} s and was killed"]
        self._reader.join(5.0)
        problems = []
        if code != 0:
            problems.append(f"server exited with code {code} on SIGTERM")
        if not any("stopped cleanly" in line for line in self.output):
            problems.append("server did not report 'stopped cleanly'")
        return problems

    def kill(self) -> None:
        """Last resort: SIGKILL and reap."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._reader.join(5.0)


class _Connection(threading.Thread):
    """One closed-loop client: replays its script, keeps every reply."""

    def __init__(self, index: int, server: Server, script: list[dict], warmup: int,
                 barrier: threading.Barrier):
        super().__init__(name=f"e2e-client-{index}", daemon=True)
        self.index = index
        self.connection = server.connect()
        self.script = script
        self.warmup = warmup
        self.barrier = barrier
        #: ``(started, ended, status, body)`` per script entry, in order.
        self.replies: list[tuple[float, float, int, bytes]] = []
        self.error: str | None = None
        self.timed_start = self.timed_end = self.cpu = 0.0

    def run(self) -> None:
        connection, replies = self.connection, self.replies
        json_headers = {"Content-Type": "application/json"}
        try:
            for position, op in enumerate(self.script):
                if position == self.warmup:
                    self.barrier.wait(REQUEST_TIMEOUT * 4)
                    cpu_start = time.thread_time()
                    self.timed_start = time.perf_counter()
                headers = dict(json_headers) if op["method"] == "POST" else {}
                headers["X-Trace-Id"] = f"c{self.index}-{position}"
                started = time.perf_counter()
                connection.request(op["method"], op["path"], op.get("body"), headers)
                response = connection.getresponse()
                body = response.read()
                replies.append((started, time.perf_counter(), response.status, body))
            self.timed_end = time.perf_counter()
            self.cpu = time.thread_time() - cpu_start
        except (OSError, HTTPException, threading.BrokenBarrierError) as error:
            # A timeout or a dropped connection ends this script: the
            # requests never answered count as failed.
            self.error = f"connection {self.index} stopped at request " \
                         f"{len(replies)}: {type(error).__name__}: {error}"
            self.barrier.abort()
        finally:
            connection.close()


def _rows(body: bytes) -> tuple[int, object]:
    """``(revision, answer)`` of a read reply: a frozenset of row tuples
    for ``/select``, a bool for ``/ask``."""
    payload = json.loads(body)
    if "result" in payload:
        return payload["revision"], payload["result"]
    return payload["revision"], frozenset(tuple(row) for row in payload["rows"])


class Serve:
    """A ``serve_*`` workload: server, reference engine, two scripts."""

    def __init__(self, inputs: dict, workdir: Path, traced: bool, scrape: bool):
        self.inputs = inputs
        self.workdir = workdir
        self.traced = traced
        #: Read the server's own ``/metrics`` and ``/proc`` around the
        #: window (two extra requests; the pure end-to-end pass skips them).
        self.scrape = scrape
        self.window = (0.0, 0.0)
        self.spans_file = workdir / "server-spans.jsonl" if traced else None
        seed_file = workdir / "seed.nt"
        seed_file.write_text("\n".join(inputs["seed"]) + "\n", encoding="utf-8")
        self.server = Server(seed_file, workdir / "state", inputs["server_args"],
                             self.spans_file)
        try:
            # The reference: the same seed closed in-process, and the
            # invariant pool's answers taken from it.
            self.reference = Slider(fragment="rdfs", workers=2)
            self.reference.apply(Delta(ntriples.parse_ntriples("\n".join(inputs["seed"]))))
            self.expected = {
                index: self._answer(query["path"])
                for index, query in enumerate(inputs["pool"])
                if query["partition"] == "inv"
            }
        except BaseException:
            self.server.kill()
            raise

    def _answer(self, path: str) -> tuple[object, int | None]:
        """``(full answer, limit)`` of a read path, from the reference."""
        url = urlsplit(path)
        params = parse_qs(url.query)
        patterns = parse_patterns(params["query"][0])
        solutions = solve(self.reference.graph, patterns)
        if url.path == "/ask":
            return bool(solutions), None
        variables: dict[Variable, None] = {}
        for pattern in patterns:
            for term in pattern:
                if isinstance(term, Variable):
                    variables[term] = None
        rows = frozenset(tuple(s[v].n3() for v in variables) for s in solutions)
        return rows, int(params["limit"][0]) if "limit" in params else None

    # --- the timed window ---------------------------------------------------
    def measure(self) -> Result:
        result = Result()
        server, scripts = self.server, self.inputs["scripts"]
        barrier = threading.Barrier(len(scripts) + 1)
        clients = [
            _Connection(index, server, script, int(len(script) * WARMUP_SHARE), barrier)
            for index, script in enumerate(scripts)
        ]
        for client in clients:
            client.start()
        scrape_before, cpu_before = {}, 0.0
        try:
            # Released once every connection has finished its warm-up.
            barrier.wait(REQUEST_TIMEOUT * 4)
            if self.scrape:
                scrape_before, cpu_before = server.scrape(), server.cpu_seconds()
        except threading.BrokenBarrierError:
            pass
        for client in clients:
            client.join(REQUEST_TIMEOUT * 4 + len(client.script) * 0.5)
        alive = [client for client in clients if client.is_alive()]
        for client in clients:
            if client.error:
                result.fail(client.error, len(client.script) - len(client.replies))
        if alive:
            result.fail(f"{len(alive)} client thread(s) never finished",
                        sum(len(c.script) - len(c.replies) for c in alive))
        finished = [c for c in clients if c.timed_end]
        result.attempted = sum(len(c.script) - c.warmup for c in clients)
        if not finished:
            return result
        window_start = min(c.timed_start for c in finished)
        window_end = max(c.timed_end for c in finished)
        result.window_s = window_end - window_start
        self.window = (window_start, window_end)
        if self.scrape:
            moved = scrape_delta(scrape_before, server.scrape())
            cpu_after, peak_rss = server.cpu_seconds(), server.peak_rss_mb()
        stats = server.get_json("/stats")

        self._check_replies(clients, result)
        self._check_final_state(stats, result)
        self._classify(clients, result)
        requests = sum(len(c.replies) - c.warmup for c in clients)
        result.detail["req_per_s"] = (requests / result.window_s, "1/s", requests)

        for client in finished:
            for position, reply in enumerate(client.replies[client.warmup:], client.warmup):
                result.requests[f"c{client.index}-{position}"] = reply[1] - reply[0]
        result.client_cpu = sum(c.cpu for c in finished)

        if self.scrape:
            def delta(name: str) -> float:
                return moved.get(name, 0.0)

            commits = max(1.0, delta("slider_engine_commits_total"))
            coalesced = max(1.0, delta("slider_coalescer_batch_size_count"))
            sharded = max(1.0, delta("slider_sharding_commits_total"))
            admitted = delta("slider_tenancy_admitted_total")
            rejected = delta("slider_tenancy_rejected_total")
            result.layers.update({
                "reasoner.rules_s": delta("slider_engine_rule_seconds_total"),
                "persist.fsync_s": delta("slider_persist_fsync_seconds_sum"),
                "persist.fsyncs_per_commit": delta("slider_persist_fsync_seconds_count") / commits,
                "persist.wal_bytes_per_commit": delta("slider_persist_wal_bytes_total") / commits,
                "server.coalescer.batch_size_mean":
                    delta("slider_coalescer_batch_size_sum") / coalesced,
                "sharding.forward_rounds_mean":
                    delta("slider_sharding_fixpoint_rounds_sum") / sharded,
                "sharding.forwards_per_commit":
                    delta("slider_sharding_forwards_total") / sharded,
                "tenancy.rejected_share": rejected / max(1.0, admitted + rejected),
                "tenancy.active_engines": (stats.get("tenancy") or {}).get("active_engines", 0),
                "process.cpu_per_req_ms": (cpu_after - cpu_before) * 1000.0 / requests,
                "process.peak_rss_mb": peak_rss,
                "client.busy_share":
                    result.client_cpu / sum(c.timed_end - c.timed_start for c in finished),
                "store.rows_examined_per_result": self._rows_examined(clients),
            })
        return result

    def _classify(self, clients: list[_Connection], result: Result) -> None:
        """Latency samples per class; majority / minority per workload."""
        classes: dict[str, list[float]] = {}
        for client in clients:
            for op, reply in list(zip(client.script, client.replies))[client.warmup:]:
                classes.setdefault(op["class"], []).append((reply[1] - reply[0]) * 1000.0)
        reads, writes = classes.get("read", []), classes.get("write", [])
        if "tenant_write" in classes:
            result.major, result.minor = writes, classes["tenant_write"]
        elif len(writes) > len(reads):
            result.major, result.minor = writes, reads
        else:
            result.major, result.minor = reads, writes
        for name, samples in classes.items():
            for label, fraction in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                result.detail[f"{name}_{label}_ms"] = (
                    percentile(samples, fraction), "ms", len(samples))

    # --- oracles ------------------------------------------------------------
    def _check_replies(self, clients: list[_Connection], result: Result) -> None:
        for client in clients:
            revisions: dict[str | None, int] = {}
            for position, (op, reply) in enumerate(zip(client.script, client.replies)):
                _started, _ended, status, body = reply
                where = f"connection {client.index} request {position} {op['path'][:60]}"
                if status != 200:
                    result.fail(f"{where}: status {status} {body[:120]!r}")
                    continue
                if op["method"] == "POST":
                    revision = json.loads(body)["revision"]
                else:
                    revision, answer = _rows(body)
                    expected = self.expected.get(op.get("pool"))
                    if expected is not None and not _matches(answer, *expected):
                        result.fail(f"{where}: answer differs from the reference")
                # Read-your-writes on one connection: the revision a reply
                # carries never goes backwards (per tenant engine).
                scope = op.get("tenant")
                if revision < revisions.get(scope, 0):
                    result.fail(f"{where}: revision {revision} after {revisions[scope]}")
                revisions[scope] = revision

    def _check_final_state(self, stats: dict, result: Result) -> None:
        """Final triple counts against an in-process replay of the writes."""
        default: list = []
        tenants: dict[str, list] = {}
        for script in self.inputs["scripts"]:
            for op in script:
                if op["method"] == "POST":
                    triples = ntriples.parse_ntriples("\n".join(json.loads(op["body"])["assert"]))
                    (tenants.setdefault(op["tenant"], []) if "tenant" in op else default).extend(
                        triples)
        self.reference.apply(Delta(default))
        expected = len(self.reference.store)
        result.check(stats["triples"] == expected,
                     f"/stats reports {stats['triples']} triples, the replay has {expected}")
        for name, triples in tenants.items():
            with Slider(fragment="rdfs", workers=0, timeout=None) as replay:
                replay.apply(Delta(triples))
                expected = (replay.input_count, replay.inferred_count)
            engine = self.server.get_json(f"/stats?tenant={name}")["engine"]
            got = (engine["triples"], engine["inferred"])
            result.check(got == expected,
                         f"tenant {name}: (explicit, inferred) {got}, the replay has {expected}")

    def _rows_examined(self, clients: list[_Connection]) -> float:
        """Intermediate rows per returned row over the timed reads, from
        ``explain`` on the reference engine (which mirrors the server)."""
        cache: dict[str, tuple[int, int]] = {}
        examined = returned = 0
        for client in clients:
            for op in client.script[client.warmup:]:
                if op["method"] != "GET" or "tenant" in op:
                    continue
                if op["path"] not in cache:
                    params = parse_qs(urlsplit(op["path"]).query)
                    plan = explain(self.reference.graph, parse_patterns(params["query"][0]))
                    cache[op["path"]] = (
                        sum(step.get("actual_rows", 0) for step in plan["steps"]),
                        max(1, plan["solutions"]),
                    )
                examined += cache[op["path"]][0]
                returned += cache[op["path"]][1]
        return examined / max(1, returned)

    # --- teardown -----------------------------------------------------------
    def close(self, result: Result) -> None:
        """Stop the server (an unclean stop is a problem of ``result``),
        drop its state, and collect the traced server's spans."""
        for problem in self.server.stop():
            result.fail(problem, 0)
        self.reference.close()
        shutil.rmtree(self.workdir / "state", ignore_errors=True)
        if self.traced and self.spans_file.exists():
            import trace as e2e_trace  # this directory's trace.py

            spans, result.unwrapped = e2e_trace.load(self.spans_file)
            start, end = self.window
            result.spans = [s for s in spans if s["start"] >= start and s["end"] <= end]


def _matches(answer, expected, limit: int | None) -> bool:
    """An exact answer, or — under ``limit`` — the right number of rows,
    all of them rows of the full answer."""
    if limit is None or isinstance(expected, bool):
        return answer == expected
    return len(answer) == min(limit, len(expected)) and answer <= expected
