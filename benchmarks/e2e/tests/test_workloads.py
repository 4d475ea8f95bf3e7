"""The generators: seeded, byte-identical, stratified, documented."""

import pytest

import workloads

SMOKE = 0.04


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    first = workloads.canonical_bytes(workloads.generate(name, 7, SMOKE))
    second = workloads.canonical_bytes(workloads.generate(name, 7, SMOKE))
    assert first == second
    assert first != workloads.canonical_bytes(workloads.generate(name, 8, SMOKE))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_docstring_records_why_the_workload_exists(name):
    assert "Why:" in workloads.WORKLOADS[name].__doc__


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operation_mix_does_not_depend_on_the_seed(seed):
    reads = workloads.generate("serve_read_heavy", seed, 0.2)
    for script in reads["scripts"]:
        classes = [op["class"] for op in script]
        assert classes.count("write") == round(len(script) * 0.05)
    writes = workloads.generate("serve_write_heavy", seed, 0.2)
    for script in writes["scripts"]:
        assert [op["class"] for op in script].count("write") == round(len(script) * 0.80)
    stream = workloads.generate("stream_commits", seed, 0.2)
    kinds = [next(iter(op)) for op in stream["ops"]]
    assert kinds.count("snapshot") == 1
    assert kinds.count("retract") == 5
    assert sum(len(op["assert"]) for op in stream["ops"] if "assert" in op) == \
        sum(len(op["assert"]) for op in
            workloads.generate("stream_commits", seed + 10, 0.2)["ops"] if "assert" in op)


def test_every_tenant_is_provisioned_before_it_is_read():
    script = workloads.generate("serve_sharded_tenants", 1, SMOKE)["scripts"][1]
    provisioned = set()
    for op in script:
        if op["class"] == "provision":
            provisioned.add(op["tenant"])
        else:
            assert op["tenant"] in provisioned
    assert len(provisioned) == workloads.TENANTS


def test_invariant_pool_never_meets_a_write():
    inputs = workloads.generate("serve_write_heavy", 1, SMOKE)
    for script in inputs["scripts"]:
        for op in script:
            if op["method"] == "POST":
                assert "/inv/" not in op["body"]
    assert {q["partition"] for q in inputs["pool"]} == {"inv", "live"}
