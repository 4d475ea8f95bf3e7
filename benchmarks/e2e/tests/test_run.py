"""``run.py`` end to end at ``--smoke`` sizes: the output contract, and
that ``BENCHMARK.json`` and the emitted metrics name each other."""

import json
import shutil
import subprocess
import sys

import pytest

from conftest import E2E, ROOT

import compare
import workloads

CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(E2E / "run.py")]


def _run(*arguments, cwd=ROOT):
    return subprocess.run([*RUN, *arguments], cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def _last_line(completed) -> dict:
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _check_contract(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {entry["name"]: entry["unit"] for entry in CATALOG[section]}
    assert set(result["metrics"]) == set(expected), "listed <=> emitted"
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))


# Every workload takes the traced path (which contains an untraced pass
# too); two also take the plain path with its repeated set-up.
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    out = tmp_path / "run.json"
    completed = _run("--workload", name, "--smoke", "--seed", "3", "--trace", "1",
                     "--out", str(out))
    result = _last_line(completed)
    _check_contract(result, "per_layer")
    for health in ("trace.overhead_share", "trace.unattributed_share"):
        assert f"     {health}" in completed.stdout
    (record,) = json.loads(out.read_text(encoding="utf-8"))
    assert record["workload"] == name and record["seed"] == 3 and record["problems"] == []
    exercised = {k for k, v in record["per_layer"].items() if v}
    if name == "bulk_closure":
        assert not any(k.startswith(("persist.", "server.")) for k in exercised)
        assert {"rdf.parse_s", "reasoner.duplicate_share"} <= exercised
    elif name == "stream_commits":
        assert {"reasoner.dred_s", "persist.fsync_s", "persist.recover_load_s",
                "reasoner.subscription_s"} <= exercised
    else:
        assert {"server.http.edge_s", "server.http.handler_self_s", "store.solve_s",
                "server.coalescer.wait_s", "process.cpu_per_req_ms"} <= exercised
    if name == "serve_sharded_tenants":
        assert {"sharding.apply_many_s", "tenancy.admit_s", "tenancy.active_engines"} <= exercised


@pytest.mark.parametrize("name", ["bulk_closure", "serve_write_heavy"])
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = _last_line(_run("--workload", name, "--smoke", "--trace", "0"))
    _check_contract(result, "end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values()), "never 0"


def test_compare_reads_what_run_writes(tmp_path, capsys):
    out = tmp_path / "a.json"
    completed = _run("--workload", "bulk_closure", "--smoke", "--repeat", "2", "--out", str(out))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "summary over repeats" in completed.stdout
    runs = compare._by_workload(out)
    assert len(runs["bulk_closure"]) == 2
    counts = compare.compare(runs, runs, CATALOG)
    assert counts["regressed"] == 0
    assert "bulk_closure" in capsys.readouterr().out


def test_without_the_program_there_is_no_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    files the command fails fast and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bulk_closure",
         "--seed", "1", "--seconds", "8", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
