"""E5 — the paper's headline claims.

* "Slider outperforms existing implementations by 70 % on average":
  average Gain over both Table 1 halves (paper: +106.86 % ρdf,
  +36.08 % RDFS, +71.47 % overall).
* "a throughput up to 36,000 triples/sec": peak input throughput over
  the benchmarked runs (parse time included, as in §3).

A reduced dataset list keeps this self-contained run short; the full
sweeps live in bench_table1_*.py.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import gain_percent, run_batch, run_slider

from _config import (
    BENCH_SCALE,
    SLIDER_BUFFER,
    SLIDER_WORKERS,
    pedantic_once,
    register_summary,
)

#: A representative subset: one of each workload category.
HEADLINE_DATASETS = ("BSBM_100k", "wikipedia", "wordnet", "subClassOf100")

_gains: dict[str, list[float]] = {"rhodf": [], "rdfs": []}
_throughputs: list[float] = []


@pytest.mark.parametrize("fragment", ["rhodf", "rdfs"])
@pytest.mark.parametrize("dataset", HEADLINE_DATASETS)
def test_headline_pair(benchmark, fragment, dataset):
    def measure():
        baseline = run_batch(dataset, fragment, BENCH_SCALE)
        slider = run_slider(
            dataset,
            fragment,
            BENCH_SCALE,
            buffer_size=SLIDER_BUFFER,
            workers=SLIDER_WORKERS,
        )
        return baseline, slider

    baseline, slider = pedantic_once(benchmark, measure)
    # Bench-smoke cross-check: the InferenceReport's diff must agree with
    # the engine's per-module counters — every distributor-kept triple is
    # an inferred addition of the revision, and the explicit additions
    # are exactly the parsed input (nothing is retracted in this run).
    assert slider.extra["report_inferred_added"] == slider.extra["counters_kept_total"]
    assert slider.extra["report_explicit_added"] == slider.input_count
    assert slider.extra["report_removed"] == 0
    if slider.inferred_count > 0:  # the paper omits wordnet/ρdf (no inferences)
        _gains[fragment].append(gain_percent(baseline.seconds, slider.seconds))
    _throughputs.append(slider.throughput)
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "fragment": fragment,
            "gain_pct": gain_percent(baseline.seconds, slider.seconds),
            "slider_throughput": slider.throughput,
        }
    )


@register_summary
def _headline_summary() -> str | None:
    if not any(_gains.values()):
        return None
    averages = {
        fragment: sum(values) / len(values) if values else float("nan")
        for fragment, values in _gains.items()
    }
    overall = sum(averages.values()) / len(averages)
    peak = max(_throughputs) if _throughputs else 0.0
    artifact = os.environ.get("SLIDER_BENCH_HEADLINE_JSON")
    if artifact:
        # Consumed by the bench-regression comparator
        # (python -m repro.bench.compare) in the CI bench-smoke gate.
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "kind": "headline",
                    "scale": BENCH_SCALE,
                    "peak_throughput_tps": peak,
                    "average_gain_pct": {**averages, "overall": overall},
                },
                handle, indent=2, sort_keys=True,
            )
    return "\n".join(
        [
            "",
            f"=== Headline claims (scale={BENCH_SCALE:g}) ===",
            f"average gain, ρdf : {averages['rhodf']:8.2f}%   (paper: +106.86%)",
            f"average gain, RDFS: {averages['rdfs']:8.2f}%   (paper:  +36.08%)",
            f"average gain, all : {overall:8.2f}%   (paper:  +71.47%)",
            f"peak throughput   : {peak:,.0f} triples/s (paper: up to 36,000; JVM)",
        ]
    )
