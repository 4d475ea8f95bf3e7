"""Planner benchmarks: cost-based join ordering, incremental subscriptions.

Two acceptance bars, both runner-robust ratios:

* a suite of high-join-count BGPs written in pessimal order must run at
  least 10x faster through the cost-based planner than through the
  written-order reference evaluation;
* 1 000 standing BGPs maintained through a write workload must cost at
  least 5x less than re-running ``solve`` for every standing query
  after every revision (the pre-planner subscription strategy).

Both ratios are answer-checked before being timed (``run_planner_bench``
asserts planner == reference and incremental == re-solve).

Set ``SLIDER_BENCH_PLANNER_JSON`` to a path to dump the results as a
JSON artifact (``kind: "planner"``, consumed by
``python -m repro.bench.compare``).
"""

from __future__ import annotations

import json
import os

from repro.bench.planner import run_planner_bench

from _config import pedantic_once, register_summary

#: The planner workloads are structural (selectivity skew, standing-query
#: fan-out), not volume benchmarks: half scale keeps the pessimal naive
#: suite to a couple of seconds while leaving both ratios far above
#: their gates, so they do not track SLIDER_BENCH_SCALE.
PLANNER_SCALE = float(os.environ.get("SLIDER_BENCH_PLANNER_SCALE", "0.5"))

#: Acceptance floors (env-overridable for slow runners, like the other
#: gated ratios).
MIN_QUERY_SPEEDUP = float(os.environ.get("SLIDER_BENCH_MIN_PLANNER_QUERY", "10"))
MIN_SUBSCRIPTION_SPEEDUP = float(
    os.environ.get("SLIDER_BENCH_MIN_PLANNER_SUBS", "5")
)

_results: list = []


def test_planner(benchmark):
    result = pedantic_once(
        benchmark,
        run_planner_bench,
        scale=PLANNER_SCALE,
        rounds=2,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "query_speedup": result.query_speedup,
            "subscription_speedup": result.subscription_speedup,
        }
    )
    assert result.query_speedup >= MIN_QUERY_SPEEDUP, (
        f"planner only {result.query_speedup:.1f}x faster than written-order "
        f"evaluation (need >= {MIN_QUERY_SPEEDUP:g}x): {result!r}"
    )
    assert result.subscription_speedup >= MIN_SUBSCRIPTION_SPEEDUP, (
        f"incremental maintenance only {result.subscription_speedup:.1f}x "
        f"faster than per-revision re-solve "
        f"(need >= {MIN_SUBSCRIPTION_SPEEDUP:g}x): {result!r}"
    )


@register_summary
def _planner_summary() -> str | None:
    if not _results:
        return None
    result = _results[-1]
    artifact = os.environ.get("SLIDER_BENCH_PLANNER_JSON")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        "",
        f"=== Planner (scale={PLANNER_SCALE:g}) ===",
        f"query suite:   naive {result.naive_seconds:.4f}s vs planned "
        f"{result.planned_seconds:.4f}s -> {result.query_speedup:.1f}x "
        f"(gate {MIN_QUERY_SPEEDUP:g}x)",
        f"subscriptions: re-solve {result.resolve_seconds:.3f}s vs incremental "
        f"{result.incremental_seconds:.3f}s at {result.standing_queries} "
        f"standing -> {result.subscription_speedup:.1f}x "
        f"(gate {MIN_SUBSCRIPTION_SPEEDUP:g}x)",
    ]
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
