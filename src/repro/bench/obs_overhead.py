"""Observability overhead: instrumented vs. disabled write throughput.

Instrumentation that taxes the hot path gets turned off in production,
at which point it observes nothing.  This bench holds the subsystem to
its contract: with metrics *and* tracing enabled, the full write
pipeline (coalescer span, engine commit counters/histograms, view
publication) must sustain at least
``SLIDER_BENCH_OBS_MIN_RATIO`` (default 0.9) of the throughput it
reaches with observability disabled.

Measurement design — the estimator matters more than the workload
here, because the tax being measured (a few microseconds per commit)
is far smaller than ambient machine-load noise:

* **Batch-interleaved A/B on one engine.**  Batches alternate
  disabled / instrumented on the same service, so both modes see the
  identical store-growth profile and ambient load stalls land on
  random batches of *both* modes instead of poisoning one whole
  timed pass (pass-level pairing was observed swinging the ratio by
  ±10 % run to run; interleaving holds it within ~±2 %).
* **Per-mode medians.**  The gated ratio is the ratio of per-mode
  *median* batch latencies; a median simply discards the handful of
  batches a scheduler preemption or page fault hit.
* **GC held off.**  A gen-2 cycle collection pauses the process for
  tens of milliseconds and lands wherever the allocation counter
  happens to stand; the collector is disabled around the timed loop
  so the measurement is the instrumentation tax, not collector
  scheduling.

The artifact (``kind: "obs"``) feeds ``repro.bench.compare`` through
the ``obs.instrumented_throughput_ratio`` baseline pin.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import asdict, dataclass, field

from ..obs import REGISTRY, TRACER, set_enabled
from ..rdf.terms import IRI, Triple
from ..server.service import ReasoningService

__all__ = ["OBSOverheadResult", "run_obs_overhead"]

#: Leading batches per mode excluded from the medians (imports,
#: allocator warm-up, first-touch caches).
WARMUP_BATCHES = 20


@dataclass
class OBSOverheadResult:
    """Throughput of the same workload with observability on vs. off."""

    batches: int
    batch_size: int
    warmup_batches: int
    disabled_tps: float
    instrumented_tps: float
    instrumented_throughput_ratio: float
    metric_families: int
    spans_recorded: int
    kind: str = field(default="obs")

    def as_dict(self) -> dict:
        return asdict(self)


def _workload(batches: int, batch_size: int) -> list[list[Triple]]:
    predicate = IRI("urn:bench:links")
    return [
        [
            Triple(
                IRI(f"urn:bench:s{batch}-{i}"),
                predicate,
                IRI(f"urn:bench:o{batch}-{i}"),
            )
            for i in range(batch_size)
        ]
        for batch in range(batches)
    ]


def run_obs_overhead(
    batches: int = 600,
    batch_size: int = 40,
) -> OBSOverheadResult:
    """Measure the observability tax on the write pipeline.

    Applies ``batches`` batches to one fresh engine, alternating the
    observability switch per batch (even = disabled, odd =
    instrumented), and reports the ratio of per-mode median batch
    latencies.  The ambient registry and tracer are restored to their
    prior enabled state afterwards.

    The instrumentation cost is per *commit* (one span, a fixed set of
    counter/histogram touches), so the ratio depends on batch size; the
    default of 40 triples per batch matches the low end of what the
    production coalescer hands the engine under concurrent writers.
    """
    if batches < 2 * (WARMUP_BATCHES + 1):
        raise ValueError(
            f"need at least {2 * (WARMUP_BATCHES + 1)} batches, got {batches}"
        )
    work = _workload(batches, batch_size)
    was_enabled = REGISTRY.enabled
    times: dict[bool, list[float]] = {False: [], True: []}
    ring_before = len(TRACER.ring)
    service = ReasoningService(
        fragment="rhodf", workers=0, timeout=None, coalesce_tick=0.0
    )
    gc_was_enabled = gc.isenabled()
    try:
        gc.collect()
        gc.disable()
        for index, batch in enumerate(work):
            instrumented = bool(index % 2)
            set_enabled(instrumented)
            started = time.perf_counter()
            service.apply(batch)
            times[instrumented].append(time.perf_counter() - started)
    finally:
        if gc_was_enabled:
            gc.enable()
        set_enabled(was_enabled)
        service.close()
    spans_recorded = len(TRACER.ring) - ring_before
    disabled_median = statistics.median(times[False][WARMUP_BATCHES:])
    instrumented_median = statistics.median(times[True][WARMUP_BATCHES:])
    return OBSOverheadResult(
        batches=batches,
        batch_size=batch_size,
        warmup_batches=WARMUP_BATCHES,
        disabled_tps=batch_size / disabled_median,
        instrumented_tps=batch_size / instrumented_median,
        instrumented_throughput_ratio=disabled_median / instrumented_median
        if instrumented_median > 0
        else float("inf"),
        metric_families=len(REGISTRY.families()),
        spans_recorded=spans_recorded,
    )
