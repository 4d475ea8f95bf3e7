"""Replication benchmark: read scaling across followers + catch-up cost.

Two questions the replication subsystem exists to answer:

1. **Does read throughput scale with followers?**  One leader takes a
   sustained write load while closed-loop readers hammer the follower
   fleet; the harness measures aggregate follower read throughput at
   each fleet size (e.g. 1 / 2 / 4 followers).
2. **What does (re)joining cost?**  A fresh replica is timed twice —
   once resuming the leader's retained WAL from revision 0 (``catchup
   wal``), once forced through a snapshot bootstrap by compacting the
   leader first (``catchup snapshot``) — the two recovery paths a
   production replica alternates between.

Everything runs in one process (real HTTP over loopback, one thread per
client), so the numbers are transport-inclusive like
:mod:`~repro.bench.server_load` and honest about GIL contention: this
is what a single box demonstrates, not a cluster claim.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
from http.client import HTTPConnection
from urllib.parse import quote

from ..rdf.namespaces import RDF, RDFS
from ..rdf.terms import IRI, Triple

__all__ = ["ReplicationBenchResult", "run_replication_bench"]

_EX = "http://bench.example.org/"


class ReplicationBenchResult:
    """Outcome of one replication benchmark run."""

    __slots__ = (
        "seconds_per_stage",
        "read_rps_by_followers",
        "write_rps_by_followers",
        "error_count",
        "catchup_wal_seconds",
        "catchup_snapshot_seconds",
        "catchup_revision",
        "final_revision",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            setattr(self, name, fields[name])

    @property
    def peak_read_rps(self) -> float:
        return max(self.read_rps_by_followers.values(), default=0.0)

    def as_dict(self) -> dict:
        return {
            "kind": "replication",
            "seconds_per_stage": self.seconds_per_stage,
            "read_rps_by_followers": {
                str(n): rps for n, rps in self.read_rps_by_followers.items()
            },
            "write_rps_by_followers": {
                str(n): rps for n, rps in self.write_rps_by_followers.items()
            },
            "peak_read_rps": self.peak_read_rps,
            "errors": self.error_count,
            "catchup_wal_seconds": self.catchup_wal_seconds,
            "catchup_snapshot_seconds": self.catchup_snapshot_seconds,
            "catchup_revision": self.catchup_revision,
            "final_revision": self.final_revision,
        }

    def __repr__(self):
        scaling = ", ".join(
            f"{n}f={rps:,.0f}" for n, rps in sorted(self.read_rps_by_followers.items())
        )
        return (
            f"<ReplicationBenchResult reads[{scaling}] req/s "
            f"catchup wal={self.catchup_wal_seconds:.2f}s "
            f"snap={self.catchup_snapshot_seconds:.2f}s "
            f"errors={self.error_count}>"
        )


def _seed_triples(classes: int, instances: int) -> list[Triple]:
    triples = [
        Triple(IRI(f"{_EX}C{i}"), RDFS.subClassOf, IRI(f"{_EX}C{i - 1}"))
        for i in range(1, classes)
    ]
    triples += [
        Triple(IRI(f"{_EX}item{i}"), RDF.type, IRI(f"{_EX}C{classes - 1}"))
        for i in range(instances)
    ]
    return triples


def run_replication_bench(
    follower_counts: tuple = (1, 2, 4),
    duration: float = 2.0,
    writers: int = 1,
    readers_per_follower: int = 2,
    fragment: str = "rhodf",
    workers: int = 2,
    seed_classes: int = 10,
    seed_instances: int = 50,
    catchup_timeout: float = 60.0,
    clock=time.perf_counter,
) -> ReplicationBenchResult:
    """Boot leader + followers, measure read scaling and catch-up cost."""
    from ..reasoner.engine import Slider
    from ..replication.feed import ChangeFeed
    from ..replication.follower import Follower
    from ..server.http import serve
    from ..server.service import ReasoningService

    max_followers = max(follower_counts)
    with tempfile.TemporaryDirectory(prefix="slider-repl-bench-") as state_dir:
        reasoner = Slider(
            fragment=fragment, workers=workers,
            timeout=0.05 if workers else None, buffer_size=200,
            persist_dir=f"{state_dir}/leader", persist_fsync=False,
        )
        reasoner.add(_seed_triples(seed_classes, seed_instances))
        service = ReasoningService(reasoner=reasoner)
        ChangeFeed(service)
        leader_server, _ = serve(service)
        leader_url = leader_server.url

        def new_follower() -> "tuple[Follower, object]":
            follower = Follower(
                leader_url, workers=workers,
                reconnect_delay=0.1,
            ).start()
            if not follower.wait_ready(catchup_timeout):
                raise RuntimeError(f"follower never caught up: {follower.status!r}")
            server, _ = follower.serve_http()
            return follower, server

        followers = [new_follower() for _ in range(max_followers)]

        read_path = "/select?query=" + quote(
            f"?x <{RDF.type.value}> <{_EX}C0>", safe=""
        ) + "&limit=25"
        errors = [0]
        error_lock = threading.Lock()

        def reader(port: int, stop: threading.Event, counts: list, slot: int):
            conn = HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                while not stop.is_set():
                    conn.request("GET", read_path)
                    response = conn.getresponse()
                    body = response.read()
                    if response.status != 200 or not body:
                        with error_lock:
                            errors[0] += 1
                    counts[slot] += 1
            except Exception:
                if not stop.is_set():
                    with error_lock:
                        errors[0] += 1
            finally:
                conn.close()

        write_sequence = [0]
        sequence_lock = threading.Lock()

        def writer(stop: threading.Event, counts: list, slot: int):
            conn = HTTPConnection("127.0.0.1", leader_server.port, timeout=10)
            headers = {"Content-Type": "application/json"}
            try:
                while not stop.is_set():
                    with sequence_lock:
                        write_sequence[0] += 1
                        sequence = write_sequence[0]
                    # Globally unique across stages: a re-asserted triple
                    # would commit an empty (feed-invisible) revision and
                    # measure nothing.
                    body = json.dumps({
                        "assert": [
                            f"<{_EX}w{sequence}> <{_EX}observedAt> "
                            f"<{_EX}C{seed_classes - 1}>"
                        ]
                    })
                    conn.request("POST", "/apply", body, headers)
                    response = conn.getresponse()
                    response.read()
                    if response.status != 200:
                        with error_lock:
                            errors[0] += 1
                    counts[slot] += 1
            except Exception:
                if not stop.is_set():
                    with error_lock:
                        errors[0] += 1
            finally:
                conn.close()

        read_rps: dict[int, float] = {}
        write_rps: dict[int, float] = {}
        for count in follower_counts:
            stop = threading.Event()
            ports = [followers[i][1].port for i in range(count)]
            read_counts = [0] * (count * readers_per_follower)
            write_counts = [0] * writers
            threads = [
                threading.Thread(
                    target=reader,
                    args=(ports[slot % count], stop, read_counts, slot),
                    daemon=True,
                )
                for slot in range(count * readers_per_follower)
            ] + [
                threading.Thread(
                    target=writer, args=(stop, write_counts, slot), daemon=True
                )
                for slot in range(writers)
            ]
            started = clock()
            for thread in threads:
                thread.start()
            time.sleep(duration)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            elapsed = clock() - started
            read_rps[count] = sum(read_counts) / elapsed
            write_rps[count] = sum(write_counts) / elapsed

        # --- catch-up paths --------------------------------------------------
        catchup_revision = service.revision

        # WAL tail: a fresh replica resumes the retained changelog from 0.
        started = clock()
        wal_follower = Follower(leader_url, workers=workers).start()
        if not wal_follower.wait_ready(catchup_timeout):
            raise RuntimeError(f"WAL catch-up never finished: {wal_follower.status!r}")
        catchup_wal = clock() - started
        wal_bootstraps = wal_follower.status.bootstraps
        wal_follower.close()

        # Snapshot bootstrap: compaction truncates the WAL, so the next
        # fresh replica must fetch /snapshot instead.
        reasoner.snapshot()
        started = clock()
        snap_follower = Follower(leader_url, workers=workers).start()
        if not snap_follower.wait_ready(catchup_timeout):
            raise RuntimeError(
                f"snapshot catch-up never finished: {snap_follower.status!r}"
            )
        catchup_snapshot = clock() - started
        snap_bootstraps = snap_follower.status.bootstraps
        snap_follower.close()
        if wal_bootstraps != 0 or snap_bootstraps != 1:
            raise RuntimeError(
                "catch-up paths did not exercise the intended mechanisms "
                f"(wal bootstraps={wal_bootstraps}, snapshot bootstraps="
                f"{snap_bootstraps})"
            )

        final_revision = service.revision
        for follower, server in followers:
            server.shutdown()
            server.server_close()
            follower.close()
        leader_server.shutdown()
        leader_server.server_close()
        service.close()

    return ReplicationBenchResult(
        seconds_per_stage=duration,
        read_rps_by_followers=read_rps,
        write_rps_by_followers=write_rps,
        error_count=errors[0],
        catchup_wal_seconds=catchup_wal,
        catchup_snapshot_seconds=catchup_snapshot,
        catchup_revision=catchup_revision,
        final_revision=final_revision,
    )
