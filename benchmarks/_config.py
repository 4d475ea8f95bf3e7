"""Shared benchmark configuration.

Scale
-----
The paper ran JVM-scale ontologies (100k – 5M triples).  A pure-Python
single run of the full Table 1 at those sizes takes hours, so benchmarks
default to ``SLIDER_BENCH_SCALE = 0.02`` (2 % of the paper's sizes; the
subClassOf chains are never scaled — their closure is the workload).
Set the environment variable to 1.0 to run the paper's exact sizes.

Protocol
--------
Following §3: every measured run starts from an N-Triples file and the
timed span covers parsing + loading + the complete closure.  Each
benchmark prints the paper's corresponding number next to the measured
one; EXPERIMENTS.md records the comparison.
"""

from __future__ import annotations

import os

import pytest

#: Fraction of the paper's dataset sizes to benchmark at.
BENCH_SCALE = float(os.environ.get("SLIDER_BENCH_SCALE", "0.02"))

#: Slider parameters used across benchmarks (2 workers: the paper's
#: machine had 4 slow cores; the GIL makes more threads pure overhead).
SLIDER_WORKERS = int(os.environ.get("SLIDER_BENCH_WORKERS", "2"))
SLIDER_BUFFER = int(os.environ.get("SLIDER_BENCH_BUFFER", "200"))

#: Table 1 rows benchmarked by default.  BSBM_5M is included only when
#: running at reduced scale (at scale 1.0 it alone takes ~30 min).
def table1_datasets() -> list[str]:
    from repro.datasets import TABLE1_ORDER

    names = list(TABLE1_ORDER)
    if BENCH_SCALE >= 0.5:
        names.remove("BSBM_5M")
    return names


@pytest.fixture(scope="session")
def bench_scale() -> float:
    return BENCH_SCALE


def pedantic_once(benchmark, fn, *args, **kwargs):
    """Run a benchmark exactly once (whole-closure runs are seconds-long;
    pytest-benchmark's auto-calibration would multiply that needlessly)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


# --- end-of-run summaries ----------------------------------------------------
#
# Benchmark modules register callbacks that render their paper-vs-measured
# tables; conftest.py's pytest_terminal_summary hook runs them after the
# pytest-benchmark table.  (A plain test function would be skipped under
# --benchmark-only, which is how the suite is meant to be run.)

_SUMMARY_CALLBACKS: list = []


def register_summary(fn):
    """Decorator: add a () -> str | None callback to the final summary."""
    _SUMMARY_CALLBACKS.append(fn)
    return fn


def emit_summaries(write_line) -> None:
    """Render every registered summary through ``write_line``."""
    for callback in _SUMMARY_CALLBACKS:
        try:
            text = callback()
        except Exception as error:  # summaries must never mask bench results
            write_line(f"[summary {callback.__module__} failed: {error!r}]")
            continue
        if text:
            for line in text.splitlines():
                write_line(line)
