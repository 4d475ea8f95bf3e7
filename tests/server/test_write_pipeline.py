"""The write pipeline's contract, once, over every configuration.

``WriteCoalescer`` is the only drain loop in the system; what differs
between deployments is the engine behind ``commit_fn`` and the
scheduling policy.  The same contract must therefore hold for

* the default graph on a lone ``Slider``,
* the default graph on a 2-shard ``ShardedReasoner``,
* keyed deficit round robin over per-tenant engines (``TenantManager``).

The scheduling half (DRR shares, starvation bound, queue bound) is
checked against a recording ``commit_fn``, where batch shapes and round
numbers are observable.
"""

import threading
import time
import types

import pytest

from repro.rdf import RDF, Triple
from repro.reasoner.delta import net_deltas
from repro.server import CoalescerClosedError, ReasoningService, WriteCoalescer
from repro.tenancy import (
    AdmissionRejectedError,
    FairShareCoalescer,
    TenantManager,
    TenantQuota,
    TenantRegistry,
)

from ..conftest import EX


def triple(key, i) -> Triple:
    return Triple(EX[f"{key}-{i}"], RDF.type, EX.Event)


class DefaultGraph:
    """The default graph (the pipeline's single key ``None``) behind a
    ``ReasoningService``: one engine or a cluster of ``shards``."""

    keys = (None,)
    #: With no quantum a round takes the whole queue, however deep.
    burst = 40

    def __init__(self, shards: int):
        options = {"timeout": None} if shards == 1 else {}
        self.service = ReasoningService(
            shards=shards, fragment="rhodf", workers=0, **options
        )
        self.coalescer = self.service.writes

    def submit(self, key, assertions=(), retractions=()):
        return self.service.submit(assertions, retractions)

    def closure(self, key) -> set:
        return set(self.service.reasoner.graph)

    def revision(self, key) -> int:
        return self.service.reasoner.revision

    def commit_target(self, key):
        return self.service.reasoner, "apply_many"

    def close(self):
        self.service.close()


class Tenants:
    """Keyed DRR over per-tenant engines behind a ``TenantManager``."""

    keys = ("acme", "globex")
    #: One round drains ``weight * quantum`` = 8 submissions per tenant.
    burst = 8

    def __init__(self):
        self.manager = TenantManager(
            registry=TenantRegistry(default_quota=TenantQuota()), coalesce_tick=0.0
        )
        self.coalescer = self.manager.writes

    def submit(self, key, assertions=(), retractions=()):
        return self.manager.submit(key, assertions, retractions)

    def closure(self, key) -> set:
        return set(self.manager.graph(key))

    def revision(self, key) -> int:
        return self.manager.revision(key)

    def commit_target(self, key):
        return self.manager.engine(key), "apply"

    def close(self):
        self.manager.close()


CONFIGURATIONS = {
    "slider": lambda: DefaultGraph(shards=1),
    "sharded": lambda: DefaultGraph(shards=2),
    "tenants": Tenants,
}


@pytest.fixture(params=sorted(CONFIGURATIONS))
def pipeline(request):
    configured = CONFIGURATIONS[request.param]()
    yield configured
    configured.close()


class TestContract:
    def test_last_writer_wins_across_submitters(self, pipeline):
        """Assert-then-retract from different callers in one drained
        batch nets to the retraction even though the triple predates
        the batch; retract-then-assert nets to the assertion."""
        for key in pipeline.keys:
            subject = triple(key, 0)
            pipeline.submit(key, [subject]).wait(10)
            with pipeline.coalescer.paused():
                batch = [pipeline.submit(key, [subject]), pipeline.submit(key, (), [subject])]
            for pending in batch:
                pending.wait(10)
            assert subject not in pipeline.closure(key)

            with pipeline.coalescer.paused():
                batch = [pipeline.submit(key, (), [subject]), pipeline.submit(key, [subject])]
            for pending in batch:
                pending.wait(10)
            assert subject in pipeline.closure(key)

    def test_paused_burst_is_one_commit_per_key(self, pipeline):
        before = {key: pipeline.revision(key) for key in pipeline.keys}
        commits = pipeline.coalescer.commits
        with pipeline.coalescer.paused():
            bursts = {
                key: [pipeline.submit(key, [triple(key, i)]) for i in range(pipeline.burst)]
                for key in pipeline.keys
            }
        for key, burst in bursts.items():
            results = [pending.wait(10) for pending in burst]
            assert {r.revision for r in results} == {before[key] + 1}
            assert {r.coalesced for r in results} == {pipeline.burst}
            assert results[0].report.explicit_added_count == pipeline.burst
            assert pipeline.revision(key) == before[key] + 1
        assert pipeline.coalescer.commits == commits + len(pipeline.keys)
        assert pipeline.coalescer.max_coalesced >= pipeline.burst

    def test_close_commits_everything_accepted_before_it(self, pipeline):
        with pipeline.coalescer.paused():
            accepted = {key: pipeline.submit(key, [triple(key, 0)]) for key in pipeline.keys}
            # close() lifts the pause and drains before joining.
            closer = threading.Thread(target=pipeline.coalescer.close)
            closer.start()
            closer.join(10)
            assert not closer.is_alive()
        for key, pending in accepted.items():
            assert pending.done()
            pending.wait(0)
            assert triple(key, 0) in pipeline.closure(key)
        with pytest.raises(CoalescerClosedError):
            pipeline.submit(pipeline.keys[0], [triple("late", 0)])

    def test_raising_commit_fails_its_batch_and_the_loop_keeps_draining(
        self, pipeline, monkeypatch
    ):
        broken = pipeline.keys[0]
        owner, method = pipeline.commit_target(broken)

        def boom(*args, **kwargs):
            raise RuntimeError("engine is broken")

        with pipeline.coalescer.paused():
            monkeypatch.setattr(owner, method, boom)
            doomed = [pipeline.submit(broken, [triple(broken, i)]) for i in range(2)]
            spared = [pipeline.submit(key, [triple(key, 0)]) for key in pipeline.keys[1:]]
        for pending in doomed:
            with pytest.raises(RuntimeError, match="broken"):
                pending.wait(10)
        for pending in spared:
            pending.wait(10)
        assert pipeline.coalescer.failed == 2
        monkeypatch.undo()
        # Same drain thread, next round: the key commits again.
        pipeline.submit(broken, [triple(broken, 9)]).wait(10)
        assert triple(broken, 9) in pipeline.closure(broken)
        assert triple(broken, 0) not in pipeline.closure(broken)


class Recorder:
    """A fake ``commit_fn``: records (key, batch size, round) per commit."""

    def __init__(self):
        self.commits = []
        self.revisions = {}
        self.coalescer = None

    def __call__(self, key, deltas):
        self.revisions[key] = self.revisions.get(key, 0) + 1
        self.commits.append((key, len(deltas), self.coalescer.rounds))
        return types.SimpleNamespace(revision=self.revisions[key])


def fair_share(**options):
    recorder = Recorder()
    options.setdefault("tick", 0.0)
    recorder.coalescer = FairShareCoalescer(recorder, **options)
    return recorder, recorder.coalescer


class TestScheduling:
    def test_drain_bandwidth_follows_weight(self):
        weights = {"heavy": 3.0, "light": 1.0}
        recorder, coalescer = fair_share(weight_fn=weights.get, quantum=1)
        try:
            with coalescer.paused():
                pendings = [
                    coalescer.submit(t, assertions=[triple(t, i)])
                    for i in range(12)
                    for t in ("heavy", "light")
                ]
            for pending in pendings:
                pending.wait(5)
            # While both stay backlogged, every round drains 3 heavy
            # submissions for each light one.
            sizes = {
                t: [n for key, n, _ in recorder.commits if key == t] for t in weights
            }
            assert sizes["heavy"][:4] == [3, 3, 3, 3]
            assert sizes["light"][:4] == [1, 1, 1, 1]
        finally:
            coalescer.close()

    def test_one_write_tenant_commits_within_two_rounds_of_a_deep_neighbour(self):
        recorder, coalescer = fair_share(queue_limit=1000, quantum=8)
        try:
            with coalescer.paused():
                bulk = [
                    coalescer.submit("bulk", assertions=[triple("bulk", i)])
                    for i in range(1000)
                ]
                quick = coalescer.submit("quick", assertions=[triple("quick", 0)])
            quick.wait(10)
            for pending in bulk:
                pending.wait(30)
            position = [key for key, _, _ in recorder.commits].index("quick")
            _, _, round_number = recorder.commits[position]
            assert round_number <= 2
            bulk_first = sum(n for key, n, _ in recorder.commits[:position] if key == "bulk")
            assert bulk_first <= 8, "the deep queue was served more than one quantum first"
            assert coalescer.stats()["rounds"] >= 1000 // 8
        finally:
            coalescer.close()

    def test_full_queue_rejects_with_a_positive_retry_after(self):
        recorder, coalescer = fair_share(queue_limit=2)
        try:
            with coalescer.paused():
                coalescer.submit("acme", assertions=[triple("acme", 1)])
                coalescer.submit("acme", assertions=[triple("acme", 2)])
                with pytest.raises(AdmissionRejectedError) as info:
                    coalescer.submit("acme", assertions=[triple("acme", 3)])
                # One tenant's full queue sheds only that tenant's load.
                other = coalescer.submit("calm", assertions=[triple("calm", 1)])
            assert info.value.tenant == "acme"
            assert info.value.retry_after > 0
            assert coalescer.tenant_stats("acme")["rejected_queue"] == 1
            assert other.wait(5).revision == 1
        finally:
            coalescer.close()

    def test_pause_overlapping_drain_tick_holds_the_whole_batch(self):
        """Regression: a pause that begins *during* the drainer's tick
        sleep must still hold the queue.  The drainer used to grab the
        queue unconditionally after the tick, splitting the paused
        caller's batch across two commits (and two revisions)."""
        committed = []

        def commit_fn(key, deltas):
            committed.append(net_deltas(deltas))
            return types.SimpleNamespace(revision=len(committed))

        coalescer = WriteCoalescer(commit_fn, tick=1.0)
        try:
            # Wake the drainer into its 1 s tick sleep ...
            first = coalescer.submit([Triple(EX.a, EX.p, EX.o)])
            time.sleep(0.1)
            with coalescer.paused():
                # ... then pause while it sleeps and queue more writes.
                second = coalescer.submit([Triple(EX.b, EX.p, EX.o)])
                third = coalescer.submit((), [Triple(EX.a, EX.p, EX.o)])
                time.sleep(1.2)  # the tick expires while still paused
                assert committed == [], "drainer committed during a pause"
            results = {p.wait(10).revision for p in (first, second, third)}
            assert results == {1}, "pause/resume split the batch"
            assert len(committed) == 1
            # Arrival order held across the pause boundary: the later
            # retraction cancels the first submission's assertion.
            assert set(committed[0].assertions) == {Triple(EX.b, EX.p, EX.o)}
            assert set(committed[0].retractions) == {Triple(EX.a, EX.p, EX.o)}
        finally:
            coalescer.close()
