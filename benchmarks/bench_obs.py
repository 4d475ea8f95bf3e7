"""bench_obs: the observability tax on the write pipeline.

One claim, gated (see ``repro.bench.obs_overhead``): with the metrics
registry and tracer both enabled, the full apply pipeline must sustain
at least ``SLIDER_BENCH_OBS_MIN_RATIO`` (default 0.9) of its
observability-disabled throughput — instrumentation that cannot stay on
in production observes nothing.

Set ``SLIDER_BENCH_OBS_JSON`` to dump the artifact for
``python -m repro.bench.compare`` (pin: ``obs.instrumented_throughput_ratio``).
"""

from __future__ import annotations

import json
import os

from repro.bench import run_obs_overhead

from _config import pedantic_once, register_summary

#: Instrumented / disabled throughput acceptance floor.
MIN_RATIO = float(os.environ.get("SLIDER_BENCH_OBS_MIN_RATIO", "0.9"))

BATCHES = int(os.environ.get("SLIDER_BENCH_OBS_BATCHES", "600"))
BATCH_SIZE = int(os.environ.get("SLIDER_BENCH_OBS_BATCH_SIZE", "40"))

_results: list = []


def test_obs_overhead(benchmark):
    result = pedantic_once(
        benchmark,
        run_obs_overhead,
        batches=BATCHES,
        batch_size=BATCH_SIZE,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "disabled_tps": result.disabled_tps,
            "instrumented_tps": result.instrumented_tps,
            "instrumented_throughput_ratio": result.instrumented_throughput_ratio,
            "metric_families": result.metric_families,
            "spans_recorded": result.spans_recorded,
        }
    )
    # The instrumented runs must actually have been instrumented.
    assert result.metric_families > 0
    assert result.spans_recorded > 0, "instrumented pass recorded no spans"
    assert result.instrumented_throughput_ratio >= MIN_RATIO, (
        f"observability tax too high: instrumented pipeline reached only "
        f"{result.instrumented_throughput_ratio:.3f}x of disabled throughput "
        f"({result.instrumented_tps:,.0f} vs {result.disabled_tps:,.0f} "
        f"triples/s; need >= {MIN_RATIO})"
    )


@register_summary
def _obs_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_OBS_JSON")
    result = _results[-1]
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        "",
        "=== Observability overhead ===",
        f"disabled    : {result.disabled_tps:>8,.0f} triples/s",
        f"instrumented: {result.instrumented_tps:>8,.0f} triples/s "
        f"({result.instrumented_throughput_ratio:.3f}x, "
        f"{result.metric_families} metric families, "
        f"{result.spans_recorded} spans)",
    ]
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
