"""Microbenchmarks: snapshot load-to-serving, hydration, join kernels.

Load-to-first-read off the mapped columnar image and the hydration it
defers are reported in absolute seconds (the columnar image is the only
written format, so there is no second format to take a ratio against).
The batch join kernels are measured against the classic per-triple
half-join loop over the same store and rule; that gated number is a
ratio, so it holds across runner speeds.

Set ``SLIDER_BENCH_MICRO_JSON`` to a path to dump the results as a JSON
artifact (``kind: "micro"``, consumed by ``python -m repro.bench.compare``).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import run_micro

from _config import (
    BENCH_SCALE,
    pedantic_once,
    register_summary,
)

MICRO_DATASETS = ("BSBM_100k", "wordnet")

_results: list = []


@pytest.mark.parametrize("dataset", MICRO_DATASETS)
def test_micro_pair(benchmark, dataset):
    result = pedantic_once(
        benchmark,
        run_micro,
        dataset,
        "rhodf",
        BENCH_SCALE,
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "dataset": dataset,
            "load_seconds": result.load_seconds,
            "hydrate_seconds": result.hydrate_seconds,
            "kernel_join_speedup": result.kernel_join_speedup,
        }
    )
    # run_micro already asserted the mapped image and the hydrated store
    # hold the engine's triples and classic/kernel emit the same join;
    # the kernel ratio is gated by ``repro.bench.compare``.


@register_summary
def _micro_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_MICRO_JSON")
    if artifact:
        worst_join = min(_results, key=lambda r: r.kernel_join_speedup)
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "kind": "micro",
                    "scale": BENCH_SCALE,
                    "kernel_join_speedup": worst_join.kernel_join_speedup,
                    "runs": [r.as_dict() for r in _results],
                },
                handle, indent=2, sort_keys=True,
            )
    lines = [
        "",
        f"=== Snapshot/kernel micro (scale={BENCH_SCALE:g}) ===",
        f"{'dataset':<16} {'image B':>10} {'load s':>10} "
        f"{'hydrate s':>10} {'join x':>7}",
    ]
    for r in _results:
        lines.append(
            f"{r.dataset:<16} {r.image_bytes:>10,} {r.load_seconds:>10.5f} "
            f"{r.hydrate_seconds:>10.4f} {r.kernel_join_speedup:>6.1f}x"
        )
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
