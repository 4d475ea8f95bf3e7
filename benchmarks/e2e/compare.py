"""Compare two sets of runs of the benchmark, metric by metric.

    python3 benchmarks/e2e/run.py --repeat 10 --vary-seed --out A.json
    python3 benchmarks/e2e/run.py --repeat 10 --vary-seed --out B.json
    python3 benchmarks/e2e/compare.py A.json B.json

For every workload and end-to-end metric: each side's median and
quartiles, how much worse B's median is than A's, and a verdict against
the metric's bound in ``BENCHMARK.json``:

``ok``          B is no worse than A by more than the bound
``regressed``   B is worse than A by more than the bound
``unresolved``  either side's own spread (interquartile range over its
                median) is wider than the bound, so the difference above
                means nothing — lengthen the script or demote the metric

Each workload's own named figures (``read_p95_ms``, ``recover_s``, ...)
are printed the same way as diagnostics, without a verdict.  Exit code 1
when anything regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import load_catalog, quartiles

__all__ = ["compare", "main"]


def _by_workload(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for record in json.loads(path.read_text(encoding="utf-8")):
        runs.setdefault(record["workload"], []).append(record)
    return runs


def _side(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, spread)`` of one side's runs."""
    q1, median, q3 = quartiles(values)
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)``: worsening is B's median against A's as a
    share of A's, positive when B is worse."""
    median_a, _, _, spread_a = _side(a)
    median_b, _, _, spread_b = _side(b)
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    worsening = change if better == "lower" else -change
    if max(spread_a, spread_b) > bound:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare(a_runs: dict[str, list[dict]], b_runs: dict[str, list[dict]],
            catalog: dict) -> dict[str, int]:
    """Print the table; returns how many metrics got each verdict."""
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}

    def row(workload, name, a, b, label):
        median_a, q1_a, q3_a, _ = _side(a)
        median_b, q1_b, q3_b, _ = _side(b)
        print(f"{workload:<22} {name:<24} {median_a:>11.4f} [{q1_a:.4f} .. {q3_a:.4f}]"
              f" {median_b:>11.4f} [{q1_b:.4f} .. {q3_b:.4f}]  {label}")

    print(f"{'workload':<22} {'metric':<24} {'A median [q1 .. q3]':>32} "
          f"{'B median [q1 .. q3]':>32}  verdict")
    for workload in a_runs:
        if workload not in b_runs:
            continue
        a_side, b_side = a_runs[workload], b_runs[workload]
        failed = sum(r["failed"] for r in a_side + b_side)
        if failed or not all(r["correct"] for r in a_side + b_side):
            print(f"{workload:<22} FAILED OPERATIONS OR ORACLE MISMATCH "
                  f"(failed={failed}): a failed request misses every bound")
            counts["regressed"] += 1
        for entry in catalog["end_to_end"]:
            name = entry["name"]
            a = [r["end_to_end"][name] for r in a_side]
            b = [r["end_to_end"][name] for r in b_side]
            label, worsening = verdict(a, b, entry["better"], entry["bound"])
            counts[label] += 1
            row(workload, name, a, b,
                f"{label} ({worsening:+.1%} vs bound {entry['bound']:.0%}, "
                f"n={len(a)}/{len(b)})")
        shared = [n for n in a_side[0]["detail"] if all(n in r["detail"] for r in a_side + b_side)]
        for name in sorted(shared):
            row(workload, name,
                [r["detail"][name]["value"] for r in a_side],
                [r["detail"][name]["value"] for r in b_side],
                f"diagnostic (n={a_side[0]['detail'][name]['samples']} per run)")
    print(f"{counts['ok']} ok, {counts['regressed']} regressed, "
          f"{counts['unresolved']} unresolved")
    return counts


def main(argv: list[str] | None = None) -> int:
    """``compare.py A.json B.json``; exit code 1 when anything regressed."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    counts = compare(_by_workload(Path(argv[0])), _by_workload(Path(argv[1])), load_catalog())
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
