"""Closed-loop load generator for the HTTP reasoning service.

The serving layer's acceptance bar is throughput *under mixed load*:
many readers querying the maintained closure while writers stream
deltas in.  :func:`run_server_load` boots a real
:class:`~repro.server.http.ReasoningHTTPServer` on an ephemeral port,
drives it with ``readers`` + ``writers`` closed-loop client threads
(each a keep-alive :class:`http.client.HTTPConnection`, next request
only after the previous response — so measured latency is honest), and
reports per-class throughput and latency percentiles.

Workload shape:

* the store is seeded with a subClassOf chain + typed instances, so
  reads (``GET /select`` over an inference-produced pattern) exercise
  the BGP engine against snapshot views;
* each write (``POST /apply``) asserts a fresh instance-level triple, so
  every commit runs the full pipeline (encode, store, rule routing,
  change log, view publication).  Writes use their own predicate so the
  read query's partition stays constant-size — the measured read
  latency reflects serving cost, not a workload that balloons over the
  run.

The generator is transport-inclusive by design: it measures what a
client of the *service* sees, not what the engine could do in-process.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection
from urllib.parse import quote

from ..rdf.namespaces import RDF, RDFS
from ..rdf.terms import IRI, Triple

__all__ = ["ServerLoadResult", "run_server_load"]

_EX = "http://bench.example.org/"


class ServerLoadResult:
    """Outcome of one mixed-load run against the HTTP service."""

    __slots__ = (
        "seconds", "readers", "writers",
        "read_count", "write_count", "error_count",
        "read_latencies_ms", "write_latencies_ms",
        "final_revision", "final_triples", "coalesced_max",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    # --- throughput ---------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return self.read_count + self.write_count

    @property
    def total_rps(self) -> float:
        return self.total_requests / self.seconds if self.seconds else 0.0

    @property
    def read_rps(self) -> float:
        return self.read_count / self.seconds if self.seconds else 0.0

    @property
    def write_rps(self) -> float:
        return self.write_count / self.seconds if self.seconds else 0.0

    # --- latency ------------------------------------------------------------
    @staticmethod
    def _percentile(samples: list[float], fraction: float) -> float:
        if not samples:
            return 0.0
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def read_p50_ms(self) -> float:
        return self._percentile(self.read_latencies_ms, 0.50)

    @property
    def read_p99_ms(self) -> float:
        return self._percentile(self.read_latencies_ms, 0.99)

    @property
    def write_p50_ms(self) -> float:
        return self._percentile(self.write_latencies_ms, 0.50)

    @property
    def write_p99_ms(self) -> float:
        return self._percentile(self.write_latencies_ms, 0.99)

    def as_dict(self) -> dict:
        return {
            "kind": "server",
            "seconds": self.seconds,
            "readers": self.readers,
            "writers": self.writers,
            "reads": self.read_count,
            "writes": self.write_count,
            "errors": self.error_count,
            "total_rps": self.total_rps,
            "read_rps": self.read_rps,
            "write_rps": self.write_rps,
            "read_p50_ms": self.read_p50_ms,
            "read_p99_ms": self.read_p99_ms,
            "write_p50_ms": self.write_p50_ms,
            "write_p99_ms": self.write_p99_ms,
            "final_revision": self.final_revision,
            "final_triples": self.final_triples,
            "coalesced_max": self.coalesced_max,
        }

    def __repr__(self):
        return (
            f"<ServerLoadResult {self.total_rps:,.0f} req/s "
            f"(r={self.read_rps:,.0f} w={self.write_rps:,.0f}) "
            f"read p99={self.read_p99_ms:.1f}ms errors={self.error_count}>"
        )


def _seed_triples(classes: int, instances: int) -> list[Triple]:
    """A subClassOf chain with typed instances at the bottom class."""
    triples = [
        Triple(IRI(f"{_EX}C{i}"), RDFS.subClassOf, IRI(f"{_EX}C{i - 1}"))
        for i in range(1, classes)
    ]
    triples += [
        Triple(IRI(f"{_EX}item{i}"), RDF.type, IRI(f"{_EX}C{classes - 1}"))
        for i in range(instances)
    ]
    return triples


def run_server_load(
    duration: float = 3.0,
    readers: int = 8,
    writers: int = 2,
    fragment: str = "rhodf",
    workers: int = 2,
    coalesce_tick: float = 0.002,
    seed_classes: int = 10,
    seed_instances: int = 50,
    clock=time.perf_counter,
) -> ServerLoadResult:
    """Boot the service, hammer it for ``duration`` seconds, report."""
    from ..reasoner.engine import Slider
    from ..server.http import serve
    from ..server.service import ReasoningService

    reasoner = Slider(fragment=fragment, workers=workers,
                      timeout=0.05 if workers else None, buffer_size=200)
    reasoner.add(_seed_triples(seed_classes, seed_instances))
    service = ReasoningService(reasoner=reasoner, coalesce_tick=coalesce_tick)
    server, _thread = serve(service)

    # Readers ask for everything typed at the chain's top — an answer the
    # engine produced by inference, evaluated against snapshot views.
    read_path = "/select?query=" + quote(
        f"?x <{RDF.type.value}> <{_EX}C0>", safe=""
    ) + "&limit=25"

    stop = threading.Event()
    errors = [0]
    error_lock = threading.Lock()
    read_lat: list[list[float]] = [[] for _ in range(readers)]
    write_lat: list[list[float]] = [[] for _ in range(writers)]

    def reader(slot: int) -> None:
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        latencies = read_lat[slot]
        try:
            while not stop.is_set():
                start = clock()
                conn.request("GET", read_path)
                response = conn.getresponse()
                body = response.read()
                latencies.append((clock() - start) * 1000.0)
                if response.status != 200 or not body:
                    with error_lock:
                        errors[0] += 1
        except Exception:
            if not stop.is_set():
                with error_lock:
                    errors[0] += 1
        finally:
            conn.close()

    def writer(slot: int) -> None:
        conn = HTTPConnection("127.0.0.1", server.port, timeout=10)
        latencies = write_lat[slot]
        headers = {"Content-Type": "application/json"}
        sequence = 0
        try:
            while not stop.is_set():
                sequence += 1
                body = json.dumps({
                    "assert": [
                        f"<{_EX}w{slot}i{sequence}> <{_EX}observedAt> "
                        f"<{_EX}C{seed_classes - 1}>"
                    ]
                })
                start = clock()
                conn.request("POST", "/apply", body, headers)
                response = conn.getresponse()
                payload = response.read()
                latencies.append((clock() - start) * 1000.0)
                if response.status != 200 or not payload:
                    with error_lock:
                        errors[0] += 1
        except Exception:
            if not stop.is_set():
                with error_lock:
                    errors[0] += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=reader, args=(i,), daemon=True)
        for i in range(readers)
    ] + [
        threading.Thread(target=writer, args=(i,), daemon=True)
        for i in range(writers)
    ]
    started = clock()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    seconds = clock() - started

    stats = service.stats()
    result = ServerLoadResult(
        seconds=seconds,
        readers=readers,
        writers=writers,
        read_count=sum(len(l) for l in read_lat),
        write_count=sum(len(l) for l in write_lat),
        error_count=errors[0],
        read_latencies_ms=[x for slot in read_lat for x in slot],
        write_latencies_ms=[x for slot in write_lat for x in slot],
        final_revision=stats["revision"],
        final_triples=stats["triples"],
        coalesced_max=stats["writes"]["max_coalesced"],
    )
    server.shutdown()
    server.server_close()
    service.close()
    return result
