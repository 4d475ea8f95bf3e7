"""The tenancy policy on the write pipeline: stats, saturation, tracing.

``FairShareCoalescer`` has no drain loop of its own — netting, paused
bursts, close, failure isolation, DRR shares and the queue bound are
the pipeline's contract, checked once for every configuration in
``tests/server/test_write_pipeline.py``.  What is left here is what
only the tenant-keyed front end adds.
"""

import types

import pytest

from repro.obs import TRACER
from repro.rdf import RDF, Triple
from repro.tenancy import AdmissionRejectedError, FairShareCoalescer

from ..conftest import EX


def triple(tenant: str, i: int) -> Triple:
    return Triple(EX[f"{tenant}-{i}"], RDF.type, EX.Event)


@pytest.fixture
def coalescer():
    revisions = {}

    def commit_fn(tenant, deltas):
        revisions[tenant] = revisions.get(tenant, 0) + 1
        return types.SimpleNamespace(revision=revisions[tenant])

    coalescer = FairShareCoalescer(commit_fn, tick=0.0, queue_limit=4)
    yield coalescer
    coalescer.close()


class TestVisibility:
    def test_stats_expose_per_tenant_queue(self, coalescer):
        coalescer.apply("acme", assertions=[triple("acme", 1)])
        stats = coalescer.stats()
        assert stats["commits"] == 1
        assert stats["queue_limit"] == 4
        assert stats["tenants"]["acme"] == {
            "queued": 0,
            "submitted": 1,
            "commits": 1,
            "rejected_queue": 0,
            "weight": 1.0,
        }
        assert coalescer.tenant_stats("ghost") == {
            "queued": 0,
            "submitted": 0,
            "commits": 0,
            "rejected_queue": 0,
        }

    def test_saturation_tracks_the_worst_queue(self, coalescer):
        with coalescer.paused():
            for i in range(4):
                coalescer.submit("noisy", assertions=[triple("noisy", i)])
            coalescer.submit("calm", assertions=[triple("calm", 0)])
            with pytest.raises(AdmissionRejectedError):
                coalescer.submit("noisy", assertions=[triple("noisy", 4)])
            assert coalescer.saturation() == {
                "queued": 5,
                "queue_limit": 4,
                "tenants_backlogged": 2,
                "max_saturation": 1.0,
            }

    def test_forget_drops_only_idle_tenants(self, coalescer):
        coalescer.apply("gone", assertions=[triple("gone", 0)])
        with coalescer.paused():
            busy = coalescer.submit("busy", assertions=[triple("busy", 0)])
            coalescer.forget("gone")
            coalescer.forget("busy")  # backlogged: stays until drained
            assert set(coalescer.stats()["tenants"]) == {"busy"}
        assert busy.wait(5).revision == 1


class TestTracing:
    def test_blocking_apply_carries_its_trace_id_to_the_commit_span(self, coalescer):
        """Regression: ``apply()`` used to drop ``trace_id`` (only
        ``submit`` took it), so a tenant write made through the blocking
        convenience never reached the shared commit span."""
        coalescer.apply(
            "acme", assertions=[triple("acme", 1)], trace_id="tenant-apply-trace"
        )
        (commit,) = [
            span
            for span in TRACER.ring.snapshot(trace_id="tenant-apply-trace")
            if span["name"] == "commit"
        ]
        assert commit["attrs"]["tenant"] == "acme"
        assert commit["attrs"]["coalesced"] == 1
