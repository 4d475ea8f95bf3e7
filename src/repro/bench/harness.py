"""Benchmark harness: timed runs, gains, Table 1 regeneration.

The paper's §3 protocol, reproduced:

* both systems run **the same ruleset** on **the same ontology files**;
* "the running times include both parsing and inferencing times" — so a
  run starts from an N-Triples file on disk, and the measured span covers
  parse + load + closure;
* the *Gain* column is the baseline-over-Slider relative speed-up:
  ``(t_baseline - t_slider) / t_slider × 100`` (OWLIM 9.907 s vs Slider
  4.636 s ⇒ 113.69 %);
* throughput is input triples per second of total run time.

The OWLIM-SE stand-in is :class:`~repro.baselines.BatchReasoner` (naive
batch iteration — see that module for why); the stronger semi-naive
baseline can be swept too.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Callable, Sequence

from ..baselines.batch import BatchReasoner, SemiNaiveReasoner
from ..datasets.loader import DEFAULT_SCALE, TABLE1_ORDER, load_dataset
from ..rdf.ntriples import parse_ntriples_file, write_ntriples_file
from ..reasoner.engine import Slider

__all__ = [
    "RunResult",
    "Table1Row",
    "dataset_file",
    "run_slider",
    "run_batch",
    "run_semi_naive",
    "gain_percent",
    "run_table1_row",
    "run_table1",
    "clear_dataset_cache",
]

_CACHE_DIR: Path | None = None
_CACHE: dict[tuple[str, float], Path] = {}


def _cache_dir() -> Path:
    global _CACHE_DIR
    if _CACHE_DIR is None:
        _CACHE_DIR = Path(tempfile.mkdtemp(prefix="slider-bench-"))
    return _CACHE_DIR


def dataset_file(name: str, scale: float = DEFAULT_SCALE) -> Path:
    """Materialize a named dataset to a cached N-Triples file.

    Benchmarked runs parse this file, per the paper's protocol.
    """
    key = (name, scale)
    path = _CACHE.get(key)
    if path is None or not path.exists():
        path = _cache_dir() / f"{name}_{scale:g}.nt"
        write_ntriples_file(load_dataset(name, scale), path)
        _CACHE[key] = path
    return path


def clear_dataset_cache() -> None:
    """Drop cached dataset files (tests use this for isolation)."""
    _CACHE.clear()


class RunResult:
    """Outcome of one timed system run."""

    __slots__ = ("system", "dataset", "fragment", "seconds",
                 "input_count", "inferred_count", "extra")

    def __init__(self, system, dataset, fragment, seconds, input_count,
                 inferred_count, extra=None):
        self.system = system
        self.dataset = dataset
        self.fragment = fragment
        self.seconds = seconds
        self.input_count = input_count
        self.inferred_count = inferred_count
        self.extra = extra or {}

    @property
    def throughput(self) -> float:
        """Input triples per second, parse time included (paper §3)."""
        return self.input_count / self.seconds if self.seconds else float("inf")

    def as_dict(self) -> dict:
        return {
            "system": self.system,
            "dataset": self.dataset,
            "fragment": self.fragment,
            "seconds": self.seconds,
            "input": self.input_count,
            "inferred": self.inferred_count,
            "throughput": self.throughput,
            **self.extra,
        }

    def __repr__(self):
        return (
            f"<RunResult {self.system} {self.dataset}/{self.fragment} "
            f"{self.seconds:.3f}s inferred={self.inferred_count}>"
        )


def run_slider(
    name: str,
    fragment: str = "rhodf",
    scale: float = DEFAULT_SCALE,
    buffer_size: int = 200,
    timeout: float | None = 0.05,
    workers: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> RunResult:
    """Timed Slider run over a dataset file (parse + incremental closure)."""
    path = dataset_file(name, scale)
    start = clock()
    reasoner = Slider(
        fragment=fragment, buffer_size=buffer_size, timeout=timeout,
        workers=workers,
    )
    reasoner.load(path)
    report = reasoner.flush()
    seconds = clock() - start
    # Report-driven counters: the revision's diff next to the module
    # counters, so bench smoke runs can assert the two bookkeeping
    # paths agree (InferenceReport vs Slider.counters()).
    kept_total = sum(stats["kept"] for stats in reasoner.counters().values())
    result = RunResult(
        "slider", name, fragment, seconds,
        reasoner.input_count, reasoner.inferred_count,
        extra={
            "buffer_size": buffer_size, "workers": workers,
            "revision": report.revision,
            "report_explicit_added": report.explicit_added_count,
            "report_inferred_added": report.inferred_added_count,
            "report_removed": report.removed_count,
            "counters_kept_total": kept_total,
        },
    )
    reasoner.close()
    return result


def _run_batch_class(reasoner_class, system, name, fragment, scale, clock) -> RunResult:
    path = dataset_file(name, scale)
    start = clock()
    reasoner = reasoner_class(fragment=fragment)
    reasoner.add(parse_ntriples_file(path))
    stats = reasoner.materialize()
    seconds = clock() - start
    return RunResult(
        system, name, fragment, seconds,
        reasoner.input_count, reasoner.inferred_count,
        extra=stats.as_dict(),
    )


def run_batch(
    name: str,
    fragment: str = "rhodf",
    scale: float = DEFAULT_SCALE,
    clock: Callable[[], float] = time.perf_counter,
) -> RunResult:
    """Timed naive-iteration batch run (the OWLIM-SE stand-in)."""
    return _run_batch_class(BatchReasoner, "batch", name, fragment, scale, clock)


def run_semi_naive(
    name: str,
    fragment: str = "rhodf",
    scale: float = DEFAULT_SCALE,
    clock: Callable[[], float] = time.perf_counter,
) -> RunResult:
    """Timed semi-naive batch run (the strong baseline / ablation)."""
    return _run_batch_class(SemiNaiveReasoner, "semi-naive", name, fragment, scale, clock)


def gain_percent(baseline_seconds: float, slider_seconds: float) -> float:
    """The paper's Gain column: how much faster Slider is, in percent."""
    if slider_seconds <= 0:
        return float("inf")
    return (baseline_seconds - slider_seconds) / slider_seconds * 100.0


class Table1Row:
    """One ontology's row in (one half of) Table 1."""

    __slots__ = ("dataset", "input_count", "inferred_count",
                 "baseline_seconds", "slider_seconds")

    def __init__(self, dataset, input_count, inferred_count,
                 baseline_seconds, slider_seconds):
        self.dataset = dataset
        self.input_count = input_count
        self.inferred_count = inferred_count
        self.baseline_seconds = baseline_seconds
        self.slider_seconds = slider_seconds

    @property
    def gain(self) -> float:
        return gain_percent(self.baseline_seconds, self.slider_seconds)

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "input": self.input_count,
            "inferred": self.inferred_count,
            "baseline_s": self.baseline_seconds,
            "slider_s": self.slider_seconds,
            "gain_pct": self.gain,
        }


def run_table1_row(
    name: str,
    fragment: str,
    scale: float = DEFAULT_SCALE,
    workers: int = 2,
    buffer_size: int = 200,
) -> Table1Row:
    """Measure one ontology under one fragment: baseline vs Slider."""
    baseline = run_batch(name, fragment, scale)
    slider = run_slider(name, fragment, scale, buffer_size=buffer_size,
                        workers=workers)
    return Table1Row(
        dataset=name,
        input_count=slider.input_count,
        inferred_count=slider.inferred_count,
        baseline_seconds=baseline.seconds,
        slider_seconds=slider.seconds,
    )


def run_table1(
    fragment: str,
    datasets: Sequence[str] | None = None,
    scale: float = DEFAULT_SCALE,
    workers: int = 2,
    buffer_size: int = 200,
) -> list[Table1Row]:
    """Regenerate one half of Table 1 (all rows, one fragment)."""
    names = list(datasets) if datasets is not None else list(TABLE1_ORDER)
    return [
        run_table1_row(name, fragment, scale, workers=workers,
                       buffer_size=buffer_size)
        for name in names
    ]
