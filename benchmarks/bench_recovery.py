"""Recovery benchmark: restart cost with and without durable state.

The durability acceptance bar: loading a compacted snapshot must beat
cold re-materialization by at least 5x at the default reduced scale —
otherwise persistence would be decorative.  Changelog-only replay is
measured alongside as the worst-case restart (and the WAL throughput
number).

Set ``SLIDER_BENCH_RECOVERY_JSON`` to a path to dump the raw results as
a JSON artifact (CI uploads it on every push).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import run_recovery

from _config import (
    BENCH_SCALE,
    SLIDER_BUFFER,
    SLIDER_WORKERS,
    pedantic_once,
    register_summary,
)

RECOVERY_DATASETS = ("BSBM_100k", "subClassOf100")

#: Acceptance floor for snapshot-load vs cold start at reduced scale.
MIN_SPEEDUP = float(os.environ.get("SLIDER_BENCH_MIN_SPEEDUP", "5"))

_results: list = []


@pytest.mark.parametrize("fragment", ["rhodf", "rdfs"])
@pytest.mark.parametrize("dataset", RECOVERY_DATASETS)
def test_recovery_pair(benchmark, fragment, dataset):
    result = pedantic_once(
        benchmark,
        run_recovery,
        dataset,
        fragment,
        BENCH_SCALE,
        workers=SLIDER_WORKERS,
        buffer_size=SLIDER_BUFFER,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "fragment": fragment,
            "speedup": result.speedup,
            "replay_throughput": result.replay_throughput,
        }
    )
    # run_recovery already asserted closure identity for both restart
    # paths; here we hold the performance acceptance line.
    assert result.speedup >= MIN_SPEEDUP, (
        f"snapshot load only {result.speedup:.1f}x faster than cold start "
        f"(need >= {MIN_SPEEDUP:g}x): {result!r}"
    )


@register_summary
def _recovery_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_RECOVERY_JSON")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump([r.as_dict() for r in _results], handle, indent=2, sort_keys=True)
    lines = [
        "",
        f"=== Recovery (scale={BENCH_SCALE:g}) ===",
        f"{'dataset':<16} {'frag':<6} {'cold s':>8} {'snap s':>8} "
        f"{'speedup':>8} {'replay s':>9} {'wal trip/s':>11}",
    ]
    for r in _results:
        lines.append(
            f"{r.dataset:<16} {r.fragment:<6} {r.cold_seconds:>8.3f} "
            f"{r.snapshot_load_seconds:>8.3f} {r.speedup:>7.1f}x "
            f"{r.replay_seconds:>9.3f} {r.replay_throughput:>11,.0f}"
        )
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
