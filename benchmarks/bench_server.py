"""bench_server: mixed-load throughput of the HTTP reasoning service.

The serving acceptance bar: at CI scale the service must sustain at
least ``SLIDER_BENCH_SERVER_MIN_RPS`` (default 1,000) mixed requests
per second — concurrent closed-loop readers querying snapshot views
while writers stream coalesced commits — with read p50/p99 latency
reported.  Set ``SLIDER_BENCH_SERVER_JSON`` to dump the raw result for
the bench-regression comparator (``python -m repro.bench.compare``).
"""

from __future__ import annotations

import json
import os

from repro.bench import run_server_load

from _config import SLIDER_WORKERS, pedantic_once, register_summary

#: Mixed-throughput acceptance floor, requests per second.
MIN_RPS = float(os.environ.get("SLIDER_BENCH_SERVER_MIN_RPS", "1000"))

DURATION = float(os.environ.get("SLIDER_BENCH_SERVER_SECONDS", "3"))
READERS = int(os.environ.get("SLIDER_BENCH_SERVER_READERS", "8"))
WRITERS = int(os.environ.get("SLIDER_BENCH_SERVER_WRITERS", "2"))

_results: list = []


def test_server_mixed_load(benchmark):
    result = pedantic_once(
        benchmark,
        run_server_load,
        duration=DURATION,
        readers=READERS,
        writers=WRITERS,
        workers=SLIDER_WORKERS,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "total_rps": result.total_rps,
            "read_rps": result.read_rps,
            "write_rps": result.write_rps,
            "read_p99_ms": result.read_p99_ms,
            "coalesced_max": result.coalesced_max,
        }
    )
    assert result.error_count == 0, f"{result.error_count} failed requests"
    # Writers commit continuously; the coalescer must have netted at
    # least one multi-submission revision under this much concurrency.
    if WRITERS > 1:
        assert result.coalesced_max >= 2, (
            f"no coalescing observed across {result.final_revision} revisions "
            f"with {WRITERS} concurrent writers"
        )
    assert result.total_rps >= MIN_RPS, (
        f"service sustained only {result.total_rps:,.0f} mixed req/s "
        f"(need >= {MIN_RPS:,.0f}): {result!r}"
    )


@register_summary
def _server_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_SERVER_JSON")
    result = _results[-1]
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        "",
        f"=== Server mixed load ({result.readers} readers + {result.writers} "
        f"writers, {result.seconds:.1f}s) ===",
        f"throughput : {result.total_rps:>8,.0f} req/s total "
        f"({result.read_rps:,.0f} read + {result.write_rps:,.0f} write)",
        f"read  p50  : {result.read_p50_ms:>8.2f} ms   p99: {result.read_p99_ms:.2f} ms",
        f"write p50  : {result.write_p50_ms:>8.2f} ms   p99: {result.write_p99_ms:.2f} ms",
        f"revisions  : {result.final_revision:>8,} committed "
        f"(max {result.coalesced_max} writes coalesced into one)",
    ]
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
