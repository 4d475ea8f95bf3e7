"""bench_sharding: durable write scale-up across partitioned leaders.

The sharding acceptance bar: with every configuration paying the same
modeled storage-latency floor per journal append (see
:mod:`repro.bench.sharding`), a 4-shard cluster must sustain at least
``SLIDER_BENCH_SHARDING_MIN_SCALEUP_4`` times (default 2.0) the
single-node durable write throughput on the identical workload, with
the cross-shard forwarding path demonstrably engaged (forwards > 0) and
all configurations reaching the identical closure.  Set
``SLIDER_BENCH_SHARDING_JSON`` to dump the artifact for the
bench-regression comparator (``python -m repro.bench.compare``).
"""

from __future__ import annotations

import json
import os

from repro.bench import run_sharding_bench
from repro.bench.sharding import DEFAULT_FSYNC_FLOOR_MS

from _config import pedantic_once, register_summary

#: Required 4-shard over single-node durable write scale-up.
MIN_SCALEUP_4 = float(os.environ.get("SLIDER_BENCH_SHARDING_MIN_SCALEUP_4", "2.0"))

#: Required 2-shard scale-up (looser: half the pipelines to overlap).
MIN_SCALEUP_2 = float(os.environ.get("SLIDER_BENCH_SHARDING_MIN_SCALEUP_2", "1.3"))

#: Modeled per-append device latency, milliseconds (0 = bare container).
FSYNC_FLOOR_MS = float(
    os.environ.get("SLIDER_BENCH_SHARDING_FSYNC_MS", str(DEFAULT_FSYNC_FLOOR_MS))
)

DELTAS = int(os.environ.get("SLIDER_BENCH_SHARDING_DELTAS", "160"))
DELTAS_PER_COMMIT = int(os.environ.get("SLIDER_BENCH_SHARDING_WINDOW", "16"))
SHARD_COUNTS = tuple(
    int(n) for n in os.environ.get("SLIDER_BENCH_SHARDING_SHARDS", "1,2,4").split(",")
)

_results: list = []


def test_sharded_write_scaleup(benchmark):
    result = pedantic_once(
        benchmark,
        run_sharding_bench,
        shard_counts=SHARD_COUNTS,
        deltas=DELTAS,
        deltas_per_commit=DELTAS_PER_COMMIT,
        fsync_floor_ms=FSYNC_FLOOR_MS,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "write_tps_by_shards": {
                str(n): tps for n, tps in result.write_tps_by_shards.items()
            },
            "write_scaleup_by_shards": {
                str(n): factor for n, factor in result.scaleup_by_shards.items()
            },
            "forward_assertions": result.forward_assertions,
            "fsync_floor_ms": result.fsync_floor_ms,
        }
    )
    assert result.forward_assertions > 0, "cross-shard closure path never ran"
    if 2 in result.scaleup_by_shards:
        assert result.scaleup_by_shards[2] >= MIN_SCALEUP_2, (
            f"2-shard write scale-up only {result.scaleup_by_shards[2]:.2f}x "
            f"(need >= {MIN_SCALEUP_2:.2f}x): {result!r}"
        )
    if 4 in result.scaleup_by_shards:
        assert result.scaleup_by_shards[4] >= MIN_SCALEUP_4, (
            f"4-shard write scale-up only {result.scaleup_by_shards[4]:.2f}x "
            f"(need >= {MIN_SCALEUP_4:.2f}x): {result!r}"
        )


@register_summary
def _sharding_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_SHARDING_JSON")
    result = _results[-1]
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        "",
        f"=== Sharding ({result.deltas} durable deltas, window "
        f"{result.deltas_per_commit}, {result.fsync_floor_ms}ms append floor) ===",
    ]
    for count in sorted(result.write_tps_by_shards):
        lines.append(
            f"{count} shard(s): {result.write_tps_by_shards[count]:>8,.0f} "
            f"deltas/s  ({result.scaleup_by_shards[count]:.2f}x)"
        )
    lines.append(f"cross-shard forwards: {result.forward_assertions}")
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
