"""Small helpers shared by the runners, ``run.py`` and ``compare.py``."""

from __future__ import annotations

import json
import math
import re
import statistics
from pathlib import Path

__all__ = [
    "ROOT",
    "load_catalog",
    "percentile",
    "tail_fraction",
    "quartiles",
    "scrape_totals",
    "scrape_delta",
    "Result",
]

#: The checkout root (``benchmarks/e2e/`` sits two levels below it).
ROOT = Path(__file__).resolve().parents[2]


def load_catalog() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))]


#: ``op_tail_ms`` is the 95th percentile of the majority class when at
#: least this many samples lie beyond it, else the 90th: a percentile
#: with a handful of samples beyond it is set by a few pauses and moves
#: 10-40 % between identical runs.
TAIL_BEYOND = 25


def tail_fraction(samples: int) -> float:
    """The percentile (as a fraction) that ``op_tail_ms`` reports."""
    return 0.95 if samples * 0.05 >= TAIL_BEYOND else 0.90


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{[^}]*\})?\s+(\S+)$")


def scrape_totals(exposition: str) -> dict[str, float]:
    """Sum a Prometheus text exposition by sample name, labels folded.

    Enough for before/after differences of counters and of histogram
    ``_sum`` / ``_count`` samples, which is all the harness reads.
    """
    totals: dict[str, float] = {}
    for line in exposition.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, raw = match.groups()
        try:
            value = float(raw)
        except ValueError:
            continue
        # Cumulative buckets would double count under a plain sum.
        if name.endswith("_bucket") or math.isnan(value):
            continue
        totals[name] = totals.get(name, 0.0) + value
    return totals


def scrape_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """How far each scraped total moved between two scrapes."""
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


class Result:
    """What one measured pass of a workload produced.

    ``major`` / ``minor`` are the latency samples (ms) of the workload's
    majority and minority operation class; ``detail`` holds the
    workload's own named figures as ``name -> (value, unit, samples)``;
    ``layers`` the per-layer figures the runner itself can compute
    (counts, scrapes); ``problems`` every failed operation and oracle
    mismatch in words.
    """

    def __init__(self):
        self.window_s = 0.0
        self.major: list[float] = []
        self.minor: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.detail: dict[str, tuple[float, str, int]] = {}
        self.layers: dict[str, float] = {}
        #: The traced pass's spans that fall inside the timed window, the
        #: client-observed latency (s) of each timed request by request
        #: id, the client threads' CPU seconds, and what could not be wrapped.
        self.spans: list[dict] = []
        self.requests: dict[str, float] = {}
        self.client_cpu = 0.0
        self.unwrapped: list[str] = []

    def fail(self, problem: str, operations: int = 1) -> None:
        """Count ``operations`` as failed, remembering why."""
        self.failed += operations
        if len(self.problems) < 20:
            self.problems.append(problem)

    def check(self, ok: bool, problem: str) -> None:
        """An oracle verdict: a mismatch fails one operation."""
        if not ok:
            self.fail(problem)
