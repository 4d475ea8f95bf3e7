"""bench_replication: read scaling across followers + replica catch-up.

The replication acceptance bar: aggregate follower read throughput must
reach ``SLIDER_BENCH_REPLICATION_MIN_RPS`` (default 500) under a
sustained leader write load, with zero failed requests, and a fresh
replica must catch up — via WAL tail *and* via snapshot bootstrap —
within ``SLIDER_BENCH_REPLICATION_MAX_CATCHUP`` seconds.  Set
``SLIDER_BENCH_REPLICATION_JSON`` to dump the artifact for the
bench-regression comparator (``python -m repro.bench.compare``).
"""

from __future__ import annotations

import json
import os

from repro.bench import run_replication_bench

from _config import SLIDER_WORKERS, pedantic_once, register_summary

#: Aggregate follower read-throughput floor, requests per second.
MIN_RPS = float(os.environ.get("SLIDER_BENCH_REPLICATION_MIN_RPS", "500"))

#: Ceiling on either catch-up path, seconds.
MAX_CATCHUP = float(os.environ.get("SLIDER_BENCH_REPLICATION_MAX_CATCHUP", "45"))

DURATION = float(os.environ.get("SLIDER_BENCH_REPLICATION_SECONDS", "2"))
FOLLOWERS = tuple(
    int(n)
    for n in os.environ.get("SLIDER_BENCH_REPLICATION_FOLLOWERS", "1,2,4").split(",")
)
WRITERS = int(os.environ.get("SLIDER_BENCH_REPLICATION_WRITERS", "1"))

_results: list = []


def test_replication_scaling_and_catchup(benchmark):
    result = pedantic_once(
        benchmark,
        run_replication_bench,
        follower_counts=FOLLOWERS,
        duration=DURATION,
        writers=WRITERS,
        workers=SLIDER_WORKERS,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "read_rps_by_followers": {
                str(n): rps for n, rps in result.read_rps_by_followers.items()
            },
            "peak_read_rps": result.peak_read_rps,
            "catchup_wal_seconds": result.catchup_wal_seconds,
            "catchup_snapshot_seconds": result.catchup_snapshot_seconds,
        }
    )
    assert result.error_count == 0, f"{result.error_count} failed requests"
    assert result.peak_read_rps >= MIN_RPS, (
        f"followers sustained only {result.peak_read_rps:,.0f} read req/s "
        f"(need >= {MIN_RPS:,.0f}): {result!r}"
    )
    assert result.catchup_wal_seconds <= MAX_CATCHUP, (
        f"WAL catch-up took {result.catchup_wal_seconds:.1f}s "
        f"(max {MAX_CATCHUP:.0f}s)"
    )
    assert result.catchup_snapshot_seconds <= MAX_CATCHUP, (
        f"snapshot catch-up took {result.catchup_snapshot_seconds:.1f}s "
        f"(max {MAX_CATCHUP:.0f}s)"
    )


@register_summary
def _replication_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_REPLICATION_JSON")
    result = _results[-1]
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        "",
        f"=== Replication ({DURATION:.1f}s per stage, {WRITERS} writer(s)) ===",
    ]
    for count in sorted(result.read_rps_by_followers):
        lines.append(
            f"{count} follower(s): {result.read_rps_by_followers[count]:>8,.0f} "
            f"read req/s  (+ {result.write_rps_by_followers[count]:,.0f} "
            "leader writes/s)"
        )
    lines.append(
        f"catch-up   : WAL tail {result.catchup_wal_seconds:.2f}s, "
        f"snapshot bootstrap {result.catchup_snapshot_seconds:.2f}s "
        f"(to revision {result.catchup_revision:,})"
    )
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
