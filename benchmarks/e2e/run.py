"""One instrument: run the end-to-end benchmark, print every metric.

    python3 benchmarks/e2e/run.py                       # all five workloads, untraced
    python3 benchmarks/e2e/run.py --workload serve_read_heavy --seed 7
    python3 benchmarks/e2e/run.py --workload stream_commits --trace
    python3 benchmarks/e2e/run.py --repeat 10 --vary-seed --out runs.json

One workload per process: with ``--workload`` this process measures it;
without, each workload (and each ``--repeat``) runs in a child process
of its own, so no run inherits another's warmed caches or span wrappers.

``--trace 0`` (the default) sets the workload up :data:`SETUP_REPEATS`
times, measures once with no tracing code loaded, and reports the
end-to-end metrics.  ``--trace 1`` measures twice — untraced, then with
the span wrappers of ``trace.py`` installed — and reports the per-layer
metrics, with the difference between the two windows as the tracing
overhead.  Every pass checks its outputs against a reference; a mismatch
or a failed operation makes ``correct`` false and the exit code 1.

The last line of output is the machine-readable result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from common import ROOT, Result, load_catalog, percentile, quartiles, tail_fraction
import workloads

if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: the program under test is missing: no {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

#: Everything a run writes (inputs, server state, span dumps) goes under
#: this directory of the checkout, in a sub-directory removed at exit.
SCRATCH = ROOT / ".e2e_scratch"

#: How many times ``--trace 0`` sets a workload up; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: ``--smoke``: the scale the tests run at (a window of well under a second).
SMOKE_SCALE = 0.04

#: Below this share of attributed wall the traced run is flagged.
ATTRIBUTED_FLOOR = 0.85


def _runner(name: str, inputs: dict, workdir: Path, traced: bool, scrape: bool, recorder):
    """Construct (= set up) the runner of workload ``name``."""
    if name.startswith("serve_"):
        from serve import Serve

        return Serve(inputs, workdir, traced=traced, scrape=scrape)
    from inproc import BulkClosure, StreamCommits

    cls = BulkClosure if name == "bulk_closure" else StreamCommits
    return cls(inputs, workdir, recorder)


def _set_up(name: str, seed: int, scale: float, scratch: Path, **how):
    """Generate the inputs and construct the runner; returns it with the
    seconds both took (the ``setup_s`` sample)."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    started = time.perf_counter()
    inputs = workloads.generate(name, seed, scale)
    runner = _runner(name, inputs, workdir, **how)
    return runner, time.perf_counter() - started


def _measure(runner) -> Result:
    """Measure and always close: no server or engine outlives a failure."""
    result = Result()
    try:
        result = runner.measure()
    finally:
        runner.close(result)
    return result


def run_workload(name: str, seed: int, scale: float, trace: bool, scratch: Path,
                 spans_out: Path | None = None) -> dict:
    """Measure one workload; returns the full record of the run.

    ``spans_out`` keeps the traced window's spans as JSON lines.
    """
    setups: list[float] = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            runner, seconds = _set_up(name, seed, scale, scratch,
                                      traced=False, scrape=False, recorder=None)
            setups.append(seconds)
            runner.close(Result())
    runner, seconds = _set_up(name, seed, scale, scratch,
                              traced=False, scrape=trace, recorder=None)
    setups.append(seconds)
    plain = _measure(runner)
    record = {
        "workload": name, "seed": seed, "scale": scale, "trace": int(trace),
        "attempted": plain.attempted, "failed": plain.failed, "problems": plain.problems,
        "detail": {key: {"value": value, "unit": unit, "samples": samples}
                   for key, (value, unit, samples) in plain.detail.items()},
    }
    record["end_to_end"] = {
        "setup_s": sorted(setups)[len(setups) // 2],
        "window_s": plain.window_s,
        "op_p50_ms": percentile(plain.major, 0.50) if plain.major else 0.0,
        "op_tail_ms": (percentile(plain.major, tail_fraction(len(plain.major)))
                       if plain.major else 0.0),
        "minor_p50_ms": percentile(plain.minor, 0.50) if plain.minor else 0.0,
    }
    record["samples"] = {"setup_s": len(setups), "window_s": 1,
                         "op_p50_ms": len(plain.major), "op_tail_ms": len(plain.major),
                         "minor_p50_ms": len(plain.minor)}
    if trace:
        record["per_layer"], traced = _traced_pass(name, seed, scale, scratch, plain)
        if spans_out is not None:
            with open(spans_out, "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(span) + "\n" for span in traced.spans)
        record["attempted"] += traced.attempted
        record["failed"] += traced.failed
        record["problems"] += traced.problems
    record["failed"] = min(record["failed"], record["attempted"])
    record["correct"] = record["failed"] == 0 and not record["problems"]
    return record


def _traced_pass(name: str, seed: int, scale: float, scratch: Path, plain: Result):
    """The second, traced measurement; returns ``(per-layer metrics, result)``."""
    import layers
    import trace as e2e_trace  # this directory's trace.py

    recorder = None
    if not name.startswith("serve_"):
        recorder = e2e_trace.Recorder()
        e2e_trace.install(recorder, server=False)
    runner, _ = _set_up(name, seed, scale, scratch, traced=True, scrape=False, recorder=recorder)
    traced = _measure(runner)
    figures = layers.from_spans(traced.spans, traced.requests)
    # Scraped and process figures come from the untraced pass: they are
    # the program's own counters, unpolluted by the wrappers.
    figures.update(plain.layers)
    figures.update(traced.layers)
    figures["trace.overhead_share"] = (
        traced.window_s / plain.window_s - 1.0 if plain.window_s else 0.0)
    figures["trace.unattributed_share"] = layers.unattributed_share(
        traced.spans, traced.window_s, traced.requests, traced.client_cpu,
        caller=threading.get_ident())
    traced.problems += [f"trace: could not wrap {target}" for target in traced.unwrapped]
    if recorder is not None:
        traced.problems += [f"trace: could not wrap {target}" for target in recorder.missing]
    return figures, traced


# --- reporting ---------------------------------------------------------------
def contract_line(record: dict, catalog: dict) -> str:
    """The machine-readable last line: every end-to-end metric of an
    untraced run, every per-layer metric of a traced one."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    metrics = {
        entry["name"]: {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
        for entry in catalog[section]
    }
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def report(record: dict, catalog: dict) -> None:
    """Every metric by name, with unit, sample count and bound."""
    print(f"== {record['workload']}  seed={record['seed']} scale={record['scale']:g} "
          f"trace={record['trace']}")
    print(f"   operations attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    for problem in record["problems"]:
        print(f"   PROBLEM {problem}")
    gated = "" if not record["trace"] else "  (untraced reference pass; not this run's result)"
    print(f"   end-to-end{gated}")
    for entry in catalog["end_to_end"]:
        name = entry["name"]
        samples = record["samples"][name]
        which = f", p{tail_fraction(samples) * 100:.0f}" if name == "op_tail_ms" else ""
        print(f"     {name:<28}{record['end_to_end'][name]:>14.4f} {entry['unit']:<6}"
              f"n={samples:<6} bound={entry['bound']:.0%} "
              f"({entry['better']} is better{which})")
    print("   this workload's own names (diagnostics, not gated)")
    for name, figure in sorted(record["detail"].items()):
        print(f"     {name:<28}{figure['value']:>14.4f} {figure['unit']:<6}n={figure['samples']}")
    if record["trace"]:
        print("   per layer (traced pass; scraped and process figures from the untraced pass)")
        for entry in catalog["per_layer"]:
            value = record["per_layer"].get(entry["name"], 0.0)
            print(f"     {entry['name']:<40}{value:>14.6f} {entry['unit']}")
        unattributed = record["per_layer"]["trace.unattributed_share"]
        if 1.0 - unattributed < ATTRIBUTED_FLOOR:
            print(f"   FINDING layers cover {1.0 - unattributed:.0%} of end-to-end wall "
                  f"(< {ATTRIBUTED_FLOOR:.0%}): see trace.unattributed_share")


def summarize(records: list[dict], catalog: dict) -> None:
    """Medians and quartiles over ``--repeat`` runs of each workload."""
    print("== summary over repeats (median [q1 .. q3] spread=IQR/median)")
    for name in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == name]
        section = "per_layer" if runs[0]["trace"] else "end_to_end"
        for entry in catalog[section]:
            values = [r[section].get(entry["name"], 0.0) for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else 0.0
            print(f"   {name:<24}{entry['name']:<40}{median:>12.4f} "
                  f"[{q1:.4f} .. {q3:.4f}] {spread:.1%}  n={len(values)}")


# --- entry point -------------------------------------------------------------
def _child(name: str, seed: int, args: argparse.Namespace, out: Path) -> int:
    """One workload run in a process of its own; its record lands in ``out``."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command, check=False).returncode


def main(argv: list[str] | None = None) -> int:
    """Parse the command line and run; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure this workload in this process (default: all, "
                             "one child process each)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=workloads.REFERENCE_SECONDS,
                        help="length of the timed window the scripts are sized for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: add a traced pass and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scripts (what the tests run)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run everything this many times and summarize")
    parser.add_argument("--vary-seed", action="store_true",
                        help="repeat k uses seed + k (the acceptance protocol: ten seeds)")
    parser.add_argument("--out", type=Path, help="write the run records here as JSON")
    parser.add_argument("--spans", type=Path,
                        help="with --trace 1 --workload: keep the traced window's spans "
                             "here as JSON lines")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so servers are stopped and the
    # scratch directory removed before this process ends.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    catalog = load_catalog()
    scale = SMOKE_SCALE if args.smoke else args.seconds / workloads.REFERENCE_SECONDS

    SCRATCH.mkdir(exist_ok=True)
    if args.workload and args.repeat == 1:
        scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
        try:
            record = run_workload(args.workload, args.seed, scale, bool(args.trace), scratch,
                                  args.spans)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        report(record, catalog)
        if args.out:
            args.out.write_text(json.dumps([record], indent=1), encoding="utf-8")
        print(contract_line(record, catalog))
        return 0 if record["correct"] else 1

    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    records: list[dict] = []
    code = 0
    with tempfile.TemporaryDirectory(prefix="out-", dir=SCRATCH) as collected:
        for repeat in range(args.repeat):
            for name in names:
                out = Path(collected) / f"{name}-{repeat}.json"
                seed = args.seed + repeat if args.vary_seed else args.seed
                code = max(code, _child(name, seed, args, out))
                if out.exists():
                    records += json.loads(out.read_text(encoding="utf-8"))
    if args.repeat > 1:
        summarize(records, catalog)
    if args.out:
        args.out.write_text(json.dumps(records, indent=1), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
