"""Bench-regression gate: compare current artifacts to a committed baseline.

Benchmarks that merely *run* cannot catch a performance regression — a
throughput drop merges silently unless something compares the numbers.
This module is that something:

    python -m repro.bench.compare --baseline benchmarks/baseline.json \\
        --tolerance 0.25 bench-headline.json bench-recovery.json bench-server.json

``baseline.json`` pins named metrics with a direction (``higher`` is
better for throughputs, ``lower`` for latencies).  Current values are
extracted from the JSON artifacts the bench smoke runs emit
(``SLIDER_BENCH_HEADLINE_JSON`` / ``SLIDER_BENCH_RECOVERY_JSON`` /
``SLIDER_BENCH_SERVER_JSON``); a metric regresses when it crosses the
tolerance band (default 25 % — CI runners are noisy; the committed
baseline is deliberately conservative, see its ``note`` field).

Exit status: 0 when every compared metric is inside tolerance, 1 on any
regression, on a malformed artifact, or (with ``--require-all``) on a
baseline metric with no current counterpart.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["extract_metrics", "compare_metrics", "main"]


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def extract_metrics(artifact) -> dict[str, float]:
    """Flatten one bench artifact into ``{metric name: value}``.

    Understands the artifact shapes the suite emits:

    * recovery — a JSON *list* of per-run dicts (the pre-existing
      ``bench_recovery`` format, kept stable for old artifacts);
    * dicts tagged by ``"kind"`` — ``headline``, ``server``, ``micro``,
      ``replication``, ``sharding``, ``planner``, ``tenancy``, ``obs``.
    """
    if isinstance(artifact, list):  # recovery rows
        speedups = [row["speedup"] for row in artifact if "speedup" in row]
        replays = [
            row["replay_throughput"] for row in artifact if "replay_throughput" in row
        ]
        metrics: dict[str, float] = {}
        if speedups:
            metrics["recovery.min_speedup"] = min(speedups)
        if replays:
            metrics["recovery.min_replay_throughput_tps"] = min(replays)
        return metrics
    if not isinstance(artifact, dict):
        raise ValueError(f"unrecognized artifact shape: {type(artifact).__name__}")
    kind = artifact.get("kind")
    if kind == "headline":
        return {
            "headline.peak_throughput_tps": float(artifact["peak_throughput_tps"]),
        }
    if kind == "server":
        return {
            "server.total_rps": float(artifact["total_rps"]),
            "server.read_rps": float(artifact["read_rps"]),
            "server.read_p99_ms": float(artifact["read_p99_ms"]),
        }
    if kind == "micro":
        return {
            "micro.kernel_join_speedup": float(artifact["kernel_join_speedup"]),
        }
    if kind == "replication":
        return {
            "replication.peak_read_rps": float(artifact["peak_read_rps"]),
            "replication.catchup_wal_seconds": float(
                artifact["catchup_wal_seconds"]
            ),
            "replication.catchup_snapshot_seconds": float(
                artifact["catchup_snapshot_seconds"]
            ),
        }
    if kind == "planner":
        return {
            "planner.query_speedup": float(artifact["query_speedup"]),
            "planner.subscription_speedup": float(
                artifact["subscription_speedup"]
            ),
        }
    if kind == "tenancy":
        return {
            "tenancy.zipf_write_tps": float(artifact["zipf_write_tps"]),
            "tenancy.noisy_neighbor_p99_factor": float(
                artifact["noisy_neighbor_p99_factor"]
            ),
        }
    if kind == "obs":
        return {
            "obs.instrumented_throughput_ratio": float(
                artifact["instrumented_throughput_ratio"]
            ),
        }
    if kind == "sharding":
        metrics = {
            f"sharding.write_scaleup_{count}": float(factor)
            for count, factor in artifact["write_scaleup_by_shards"].items()
            if str(count) != "1"  # the single-shard control is the 1.0 denominator
        }
        metrics["sharding.forward_assertions"] = float(
            artifact["forward_assertions"]
        )
        return metrics
    raise ValueError(f"artifact has unknown kind: {kind!r}")


def compare_metrics(
    baseline: dict,
    current: dict[str, float],
    tolerance: float,
    require_all: bool = False,
) -> tuple[list[str], list[str]]:
    """Returns (report lines, failure lines)."""
    lines: list[str] = []
    failures: list[str] = []
    metrics = baseline.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        return lines, ["baseline has no metrics"]
    compared = 0
    for name in sorted(metrics):
        spec = metrics[name]
        value = float(spec["value"])
        direction = spec.get("direction", "higher")
        observed = current.get(name)
        if observed is None:
            message = f"{name:<38} baseline {value:>12,.1f}  (no current value)"
            lines.append(message)
            if require_all:
                failures.append(f"{name}: missing from current artifacts")
            continue
        compared += 1
        if direction == "higher":
            floor = value * (1.0 - tolerance)
            ok = observed >= floor
            bound = f">= {floor:,.1f}"
        elif direction == "lower":
            ceiling = value * (1.0 + tolerance)
            ok = observed <= ceiling
            bound = f"<= {ceiling:,.1f}"
        else:
            failures.append(f"{name}: unknown direction {direction!r}")
            continue
        verdict = "ok" if ok else "REGRESSION"
        lines.append(
            f"{name:<38} baseline {value:>12,.1f}  current {observed:>12,.1f}  "
            f"({bound})  {verdict}"
        )
        if not ok:
            # Everything a triager needs on ONE line: the metric, the
            # committed pin, what this run measured, and the tolerance
            # band it fell out of — no cross-referencing the baseline.
            failures.append(
                f"{name}: measured {observed:,.4f} vs baseline {value:,.4f} "
                f"(tolerance {tolerance:.0%}, allowed {bound}, "
                f"direction={direction})"
            )
    if compared == 0:
        failures.append("no baseline metric had a current counterpart")
    return lines, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="fail when bench artifacts regress against the committed baseline",
    )
    parser.add_argument("artifacts", nargs="+",
                        help="current bench JSON artifacts (missing files are skipped "
                             "with a warning unless --require-all)")
    parser.add_argument("--baseline", default="benchmarks/baseline.json",
                        help="committed baseline (default %(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative drift, 0-1 (default %(default)s)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when any baseline metric or artifact is missing")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        print(f"error: tolerance must be in [0, 1), got {args.tolerance}",
              file=sys.stderr)
        return 1

    try:
        baseline = _load(Path(args.baseline))
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read baseline {args.baseline}: {error}", file=sys.stderr)
        return 1

    current: dict[str, float] = {}
    missing_artifacts: list[str] = []
    for name in args.artifacts:
        path = Path(name)
        if not path.exists():
            missing_artifacts.append(name)
            print(f"warning: artifact {name} does not exist, skipping", file=sys.stderr)
            continue
        try:
            current.update(extract_metrics(_load(path)))
        except (ValueError, KeyError, json.JSONDecodeError) as error:
            print(f"error: malformed artifact {name}: {error}", file=sys.stderr)
            return 1

    lines, failures = compare_metrics(
        baseline, current, args.tolerance, require_all=args.require_all
    )
    if args.require_all and missing_artifacts:
        failures.extend(f"artifact missing: {name}" for name in missing_artifacts)

    note = baseline.get("note")
    print(f"bench-regression gate (tolerance {args.tolerance:.0%})")
    if note:
        print(f"baseline note: {note}")
    for line in lines:
        print(f"  {line}")
    if failures:
        print(f"\nFAILED — {len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nall compared metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
