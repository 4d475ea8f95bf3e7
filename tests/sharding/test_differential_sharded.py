"""Differential harness: N-shard cluster == single-node, bit for bit.

The sharding PR's acceptance property: for seeded random delta scripts
(adds / retracts / ghosts), an N-shard cluster and a single-node engine
must agree at **every** revision on

* the closure (the full materialized graph),
* the :class:`~repro.reasoner.delta.InferenceReport` — explicit added,
  inferred added, removed, and the revision number itself,
* subscription binding deltas (same events, same revisions),

for N ∈ {2, 4}, both supported fragments and both routing policies.
Batched ``apply_many`` commits must equal the
single-node engine applying the coalescer-netted delta.
"""

import pytest

from repro import Delta, Slider, Variable
from repro.rdf import RDF
from repro.sharding import ShardedReasoner

from ..conftest import each_execution_mode
from ..differential.test_differential import SEEDS, generate_script

FRAGMENTS = ("rhodf", "rdfs")  # the shardable fragments
SHARD_COUNTS = (2, 4)


def report_image(report):
    """The order-free content of one report (what must be identical)."""
    return (
        report.revision,
        frozenset(report.explicit_added),
        frozenset(report.inferred_added),
        frozenset(report.removed),
    )


def coalesce(deltas):
    """Last-writer-wins netting in arrival order (the coalescer's)."""
    assertions, retractions = {}, {}
    for delta in deltas:
        for triple in delta.retractions:
            assertions.pop(triple, None)
            retractions[triple] = None
        for triple in delta.assertions:
            retractions.pop(triple, None)
            assertions[triple] = None
    return Delta(tuple(assertions), tuple(retractions))


class TestClusterMatchesSingleNode:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_every_revision_report_and_closure(self, fragment, shards, seed):
        script = generate_script(seed)
        with Slider(fragment=fragment, workers=0, timeout=None) as single, \
                ShardedReasoner(fragment=fragment, shards=shards) as cluster:
            for step, delta in enumerate(script, start=1):
                single_report = single.apply(delta)
                cluster_report = cluster.apply(delta)
                assert report_image(cluster_report) == report_image(single_report), (
                    f"report diverged at revision {step} "
                    f"(fragment={fragment}, shards={shards}, seed={seed})"
                )
                assert set(cluster.graph) == set(single.graph), (
                    f"closure diverged at revision {step} "
                    f"(fragment={fragment}, shards={shards}, seed={seed})"
                )
                assert cluster.input_count == single.input_count
                assert cluster.inferred_count == single.inferred_count

    @each_execution_mode
    @pytest.mark.parametrize("router", ("subject", "predicate"))
    def test_routers(self, execution, router):
        """Both routing policies, with the shard engines firing inline or
        on a pool, reach the same per-revision truth (one fragment/width
        keeps the sweep fast)."""
        seed = SEEDS[0]
        script = generate_script(seed)
        with Slider(
            fragment="rhodf", workers=0, timeout=None
        ) as single, ShardedReasoner(
            fragment="rhodf", shards=4, router=router, **execution
        ) as cluster:
            for delta in script:
                single_report = single.apply(delta)
                cluster_report = cluster.apply(delta)
                assert report_image(cluster_report) == report_image(single_report)
            assert set(cluster.graph) == set(single.graph)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_apply_many_matches_coalesced_single_node(self, shards, seed):
        """A multi-delta batch (what the sharded coalescer drains) lands
        exactly where the single-node engine lands applying the netted
        delta — same report, same closure, one revision."""
        script = generate_script(seed)
        splits = [script[index : index + 3] for index in range(0, len(script), 3)]
        with Slider(fragment="rhodf", workers=0, timeout=None) as single, \
                ShardedReasoner(fragment="rhodf", shards=shards) as cluster:
            for batch in splits:
                single_report = single.apply(coalesce(batch))
                cluster_report = cluster.apply_many(batch)
                assert report_image(cluster_report) == report_image(single_report)
                assert set(cluster.graph) == set(single.graph)
                assert cluster.input_count == single.input_count


class TestSubscriptionsMatchSingleNode:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_binding_deltas_identical(self, shards):
        seed = SEEDS[0]
        script = generate_script(seed, steps=9)
        patterns = [(Variable("x"), RDF.type, Variable("c"))]

        def run(reasoner):
            events = []
            midpoint = len(script) // 2
            subscription = None
            for step, delta in enumerate(script):
                if step == midpoint:
                    subscription = reasoner.subscribe(patterns)
                reasoner.apply(delta)
            assert subscription.error is None
            return [
                (
                    event.revision,
                    frozenset(frozenset(b.items()) for b in event.added),
                    frozenset(frozenset(b.items()) for b in event.removed),
                )
                for event in subscription.drain()
            ], subscription.seeded_revision

        with Slider(fragment="rhodf", workers=0, timeout=None) as single:
            single_events, single_seeded = run(single)
        with ShardedReasoner(fragment="rhodf", shards=shards) as cluster:
            cluster_events, cluster_seeded = run(cluster)

        assert cluster_seeded == single_seeded
        assert cluster_events == single_events
        assert cluster_events, "script produced no subscription events"
