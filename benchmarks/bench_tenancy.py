"""bench_tenancy: multi-tenant serving under zipfian fan-out + overload.

Three claims, measured together (see ``repro.bench.tenancy_load``):

* ~1k zipfian tenants sustain at least
  ``SLIDER_BENCH_TENANCY_MIN_TPS`` admitted writes/s through the full
  per-tenant pipeline (admission, fair-share queue, isolated engine
  commit under the tenant's named graph);
* a bulk-loading noisy neighbour may not stretch an interactive
  tenant's p99 commit latency beyond a small factor of its solo
  baseline (the gated ``tenancy.noisy_neighbor_p99_factor``);
* deliberate overload of a rate-limited tenant surfaces as honest
  429 + ``Retry-After`` responses that a compliant client survives —
  every write eventually commits, none is lost.

Set ``SLIDER_BENCH_TENANCY_JSON`` to dump the artifact for
``python -m repro.bench.compare``.
"""

from __future__ import annotations

import json
import os

from repro.bench import run_tenancy_load

from _config import pedantic_once, register_summary

#: Zipfian write-throughput acceptance floor, admitted writes/s.
MIN_TPS = float(os.environ.get("SLIDER_BENCH_TENANCY_MIN_TPS", "300"))

#: Noisy-neighbour p99 stretch ceiling (interactive p99 beside a bulk
#: loader / interactive p99 alone).
MAX_P99_FACTOR = float(os.environ.get("SLIDER_BENCH_TENANCY_MAX_P99_FACTOR", "60"))

TENANTS = int(os.environ.get("SLIDER_BENCH_TENANCY_TENANTS", "1000"))
WRITES = int(os.environ.get("SLIDER_BENCH_TENANCY_WRITES", "3000"))

_results: list = []


def test_tenancy_load(benchmark):
    result = pedantic_once(
        benchmark,
        run_tenancy_load,
        zipf={"tenants": TENANTS, "writes": WRITES},
    )
    _results.append(result)
    benchmark.extra_info.update(
        {
            "zipf_write_tps": result.zipf_write_tps,
            "engines_touched": result.engines_touched,
            "noisy_neighbor_p99_factor": result.noisy_neighbor_p99_factor,
            "overload_rejections": result.overload_rejections,
        }
    )
    # Zipfian fan-out: the long tail must actually have been exercised.
    assert result.engines_touched >= min(TENANTS, WRITES) // 10
    assert result.zipf_write_tps >= MIN_TPS, (
        f"sustained only {result.zipf_write_tps:,.0f} writes/s across "
        f"{TENANTS} tenants (need >= {MIN_TPS:,.0f})"
    )
    # Isolation: fair share holds the interactive tenant's tail.
    assert result.noisy_neighbor_p99_factor <= MAX_P99_FACTOR, (
        f"noisy neighbour stretched interactive p99 by "
        f"{result.noisy_neighbor_p99_factor:.1f}x "
        f"({result.interactive_p99_alone_ms:.2f} ms -> "
        f"{result.interactive_p99_noisy_ms:.2f} ms)"
    )
    # Overload honesty: the rate gate visibly fired, the compliant
    # client slept the advertised backoff, and no write was lost.
    assert result.overload_rejections > 0, "overload produced no 429s"
    assert result.overload_slept_seconds > 0
    assert result.overload_committed == 40  # every write landed exactly once


@register_summary
def _tenancy_summary() -> str | None:
    if not _results:
        return None
    artifact = os.environ.get("SLIDER_BENCH_TENANCY_JSON")
    result = _results[-1]
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
    lines = [
        "",
        f"=== Tenancy ({result.tenants} zipfian tenants) ===",
        f"zipf writes : {result.zipf_write_tps:>8,.0f} admitted writes/s "
        f"({result.engines_touched} engines touched)",
        f"isolation   : p99 {result.interactive_p99_alone_ms:.2f} ms alone -> "
        f"{result.interactive_p99_noisy_ms:.2f} ms beside bulk loader "
        f"({result.noisy_neighbor_p99_factor:.2f}x)",
        f"overload    : {result.overload_rejections} x 429 over "
        f"{result.overload_attempts} attempts, "
        f"{result.overload_slept_seconds:.2f}s honoured backoff, "
        f"{result.overload_committed} committed",
    ]
    if artifact:
        lines.append(f"JSON artifact written to {artifact}")
    return "\n".join(lines)
