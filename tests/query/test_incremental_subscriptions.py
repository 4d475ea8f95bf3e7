"""Property tests: incrementally maintained subscription plans.

A :class:`~repro.reasoner.subscription.Subscription` compiles its BGP
once into an :class:`~repro.store.planner.IncrementalBGPPlan` and folds
each revision's delta in without re-running the query.  These tests
pin the two invariants that make that sound:

1. **maintained == re-solve**: after *every* committed revision of a
   random delta script, the maintained binding set equals a
   from-scratch ``solve_naive`` over a fresh graph holding the same
   closure;
2. **events are exact set diffs**: each revision's event carries
   ``added`` / ``removed`` tuples that are precisely the difference
   between consecutive maintained sets — no spurious or missed
   notifications;
3. **the support index is exact**: after every revision it holds
   precisely the instantiated pattern triples of the live solutions —
   removals leak no keys.

Scripts reuse the engine differential harness's generator (adds,
retracts, mixed revisions, ghost retractions; under OWL-Horst also
transitivity declarations coming and going), driven by Hypothesis.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import Slider
from repro.rdf import RDF, RDFS, Variable
from repro.store import Graph, solve_naive

from ..conftest import EX, each_execution_mode
from ..differential.test_differential import generate_script, script_for
from ..reasoner.test_subscriptions import assert_index_is_exact

X, Y, Z = Variable("x"), Variable("y"), Variable("z")

#: Standing BGPs spanning the planner's shapes: single pattern, chains,
#: repeated variables, variable predicates, full scans.
PATTERN_SETS = (
    [(X, RDF.type, Y)],
    [(X, RDFS.subClassOf, Y), (Y, RDFS.subClassOf, Z)],
    [(X, RDF.type, Y), (Y, RDFS.subClassOf, Z)],
    [(X, EX.knows, Y), (Y, EX.likes, Z)],
    [(X, EX.knows, X)],
    [(X, Y, EX.n3)],
    [(X, Y, Z)],
)

FRAGMENTS = ("rhodf", "rdfs", "owl-horst")


def as_set(bindings) -> set:
    return {frozenset(binding.items()) for binding in bindings}


def fresh_resolve(graph, patterns) -> set:
    """Written-order re-solve on a *fresh* graph with the same closure
    (isolated from the engine's dictionary and planner state)."""
    scratch = Graph()
    scratch.add_all(iter(graph))
    return as_set(solve_naive(scratch, patterns))


def check_revision(subscription, graph, revision, previous) -> set:
    """Assert the invariants for one committed revision; return the
    maintained set for the next round."""
    assert_index_is_exact(subscription)
    maintained = as_set(subscription.solutions)
    expected = fresh_resolve(graph, subscription.patterns)
    assert maintained == expected, (
        f"maintained != re-solve at revision {revision} "
        f"for patterns {subscription.patterns}: "
        f"{len(maintained - expected)} extra, {len(expected - maintained)} missing"
    )
    events = subscription.drain()
    assert len(events) <= 1, "at most one event per committed revision"
    event_added = as_set(events[0].added) if events else set()
    event_removed = as_set(events[0].removed) if events else set()
    assert event_added == maintained - previous, (
        f"event.added is not the exact set diff at revision {revision} "
        f"for patterns {subscription.patterns}"
    )
    assert event_removed == previous - maintained, (
        f"event.removed is not the exact set diff at revision {revision} "
        f"for patterns {subscription.patterns}"
    )
    if events:
        assert events[0].revision == revision
    return maintained


class TestMaintainedEqualsResolve:
    """Subscriptions registered on an empty engine, checked per revision."""

    @each_execution_mode
    @pytest.mark.parametrize("fragment", FRAGMENTS)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=8, deadline=None)
    def test_every_revision(self, execution, fragment, seed):
        script = script_for(fragment, seed)
        with Slider(fragment=fragment, timeout=None, **execution) as r:
            subscriptions = [r.subscribe(patterns) for patterns in PATTERN_SETS]
            previous = {id(s): as_set(s.solutions) for s in subscriptions}
            for delta in script:
                report = r.apply(delta)
                for subscription in subscriptions:
                    previous[id(subscription)] = check_revision(
                        subscription, r.graph, report.revision,
                        previous[id(subscription)],
                    )

    @each_execution_mode
    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=6, deadline=None)
    def test_mid_script_subscribe(self, execution, seed):
        """Registering on a populated graph seeds the exact solution set,
        then stays consistent through the remaining revisions."""
        script = generate_script(seed, steps=8)
        with Slider(fragment="rdfs", timeout=None, **execution) as r:
            for delta in script[:4]:
                r.apply(delta)
            subscription = r.subscribe(
                [(X, RDF.type, Y), (Y, RDFS.subClassOf, Z)]
            )
            previous = as_set(subscription.solutions)
            assert previous == fresh_resolve(r.graph, subscription.patterns)
            for delta in script[4:]:
                report = r.apply(delta)
                previous = check_revision(
                    subscription, r.graph, report.revision, previous
                )
