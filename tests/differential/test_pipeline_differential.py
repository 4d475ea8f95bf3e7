"""Differential: one write pipeline, three engines, one closure.

A seeded interleaving of assert/retract submissions — cut into drained
batches of seeded sizes, so last-writer-wins netting across submitters
really decides outcomes — is pushed through every engine the pipeline
fronts:

* ``ReasoningService(shards=1)`` (a lone ``Slider``),
* ``ReasoningService(shards=2)`` (a ``ShardedReasoner``),
* a single-tenant ``TenantManager`` (keyed fair-share drain),

and each must end at the closure sequential ``Slider.apply`` of the
same deltas reaches.
"""

import random

import pytest

from repro import Slider
from repro.server import ReasoningService
from repro.tenancy import TenantManager, TenantQuota, TenantRegistry

from .test_differential import SEEDS, generate_script


def drive(submit, coalescer, script, seed: int) -> None:
    """Submit ``script`` in arrival order, in paused batches of 1-4."""
    rng = random.Random(seed)
    index = 0
    while index < len(script):
        size = rng.randint(1, 4)
        with coalescer.paused():
            batch = [
                submit(delta.assertions, delta.retractions)
                for delta in script[index : index + size]
            ]
        results = [pending.wait(30) for pending in batch]
        assert len({result.revision for result in results}) == 1
        index += size


def service_closure(shards: int, script, seed: int) -> set:
    with ReasoningService(shards=shards, fragment="rhodf", workers=0) as service:
        drive(service.submit, service.writes, script, seed)
        return set(service.graph())


def tenant_closure(script, seed: int) -> set:
    registry = TenantRegistry(default_quota=TenantQuota())
    with TenantManager(registry=registry, coalesce_tick=0.0, fragment="rhodf") as manager:
        drive(
            lambda assertions, retractions: manager.submit("solo", assertions, retractions),
            manager.writes,
            script,
            seed,
        )
        return set(manager.scope("solo").graph())


@pytest.mark.parametrize("seed", SEEDS)
def test_every_pipeline_configuration_matches_sequential_apply(seed):
    script = generate_script(seed, steps=12)
    with Slider(fragment="rhodf", workers=0, timeout=None) as sequential:
        for delta in script:
            sequential.apply(delta)
        reference = set(sequential.graph)

    assert service_closure(1, script, seed) == reference
    assert service_closure(2, script, seed) == reference
    assert tenant_closure(script, seed) == reference
