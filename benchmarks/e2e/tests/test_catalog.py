"""``BENCHMARK.json`` against the benchmark contract, and the README
against ``BENCHMARK.json``."""

import json
import re

from conftest import E2E, ROOT

import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_top_level_keys_and_limits():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert CATALOG["paths"] == ["benchmarks/e2e"]
    assert CATALOG["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(CATALOG["run_seconds"], int) and 1 <= CATALOG["run_seconds"] <= 60
    assert CATALOG["run_seconds"] == workloads.REFERENCE_SECONDS
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    # 4 + 22 x workloads runs must fit the driver's budget.
    assert 2 <= len(CATALOG["workloads"]) <= 8
    assert 1 <= len(CATALOG["end_to_end"]) <= 16
    assert 1 <= len(CATALOG["per_layer"]) <= 128


def test_workloads_are_the_generators():
    assert [w["name"] for w in CATALOG["workloads"]] == list(workloads.WORKLOADS)
    for workload in CATALOG["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metric_entries():
    names = [w["name"] for w in CATALOG["workloads"]]
    for entry in CATALOG["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in CATALOG["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
        assert UNIT.match(entry["unit"]), entry["unit"]
        assert entry["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used once"
    setup = [e for e in CATALOG["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"] for e in CATALOG["end_to_end"])


def test_readme_names_what_every_metric_should_move():
    readme = (E2E / "README.md").read_text(encoding="utf-8")
    for entry in CATALOG["end_to_end"] + CATALOG["per_layer"]:
        assert f"`{entry['name']}`" in readme, f"{entry['name']} missing from the README"
    for workload in CATALOG["workloads"]:
        assert f"`{workload['name']}`" in readme
