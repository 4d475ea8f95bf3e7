"""Tests for standing BGP subscriptions over revision deltas.

Pins the acceptance criterion: a registered subscription receives
precisely the binding-level diff of each committed revision — every
genuine change, and *nothing* for revisions that cannot affect it.
"""

import pytest

from repro import Delta, Slider, Variable
from repro.rdf import RDF, RDFS, Triple

from ..conftest import EX, each_execution_mode

X = Variable("x")
Y = Variable("y")

SCHEMA = [
    Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
    Triple(EX.Dog, RDFS.subClassOf, EX.Animal),
]


def animal_pattern():
    return [(X, RDF.type, EX.Animal)]


class TestBindingDeltas:
    def test_additions_notify_exact_bindings(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA)
            events = []
            r.subscribe(animal_pattern(), events.append)
            r.apply(Delta(assertions=[Triple(EX.tom, RDF.type, EX.Cat)]))
            assert len(events) == 1
            assert [dict(b) for b in events[0].added] == [{X: EX.tom}]
            assert events[0].removed == ()

    def test_removals_notify_exact_bindings(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            events = []
            r.subscribe(animal_pattern(), events.append)
            r.apply(Delta(retractions=[Triple(EX.tom, RDF.type, EX.Cat)]))
            assert len(events) == 1
            assert events[0].added == ()
            assert [dict(b) for b in events[0].removed] == [{X: EX.tom}]

    def test_no_spurious_notifications(self):
        """Unrelated commits and no-op revisions never wake a subscriber."""
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA)
            events = []
            r.subscribe(animal_pattern(), events.append)
            r.apply(Delta(assertions=[Triple(EX.a, EX.knows, EX.b)]))
            r.flush()  # empty revision
            # Solution already known at subscribe time: re-asserting the
            # supporting triple changes nothing.
            r.apply(Delta(assertions=[Triple(EX.c, EX.knows, EX.d)]))
            assert events == []

    def test_existing_solutions_not_renotified(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            events = []
            sub = r.subscribe(animal_pattern(), events.append)
            assert {X: EX.tom} in sub.solutions  # seeded, not notified
            # A second, independent way to derive "tom a Animal":
            r.apply(Delta(assertions=[Triple(EX.tom, RDF.type, EX.Dog)]))
            assert events == []  # the binding was already live

    @each_execution_mode
    def test_subscription_tracks_report_diff(self, execution):
        """The notified bindings are exactly the report's graph diff
        projected through the pattern."""
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.materialize(SCHEMA)
            events = []
            r.subscribe(animal_pattern(), events.append)
            report = r.apply(
                Delta(
                    assertions=[
                        Triple(EX.tom, RDF.type, EX.Cat),
                        Triple(EX.rex, RDF.type, EX.Dog),
                    ]
                )
            )
            expected = {
                t.subject
                for t in report.added
                if t.predicate == RDF.type and t.object == EX.Animal
            }
            assert {b[X] for b in events[-1].added} == expected == {EX.tom, EX.rex}


class TestJoins:
    def test_two_pattern_join_additions(self):
        patterns = [(X, RDF.type, EX.Animal), (Y, EX.hasPet, X)]
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            events = []
            r.subscribe(patterns, events.append)
            # Completing the join with the *second* pattern's triple:
            r.apply(Delta(assertions=[Triple(EX.alice, EX.hasPet, EX.tom)]))
            assert [dict(b) for b in events[-1].added] == [{X: EX.tom, Y: EX.alice}]
            # Completing another solution via the *first* pattern:
            r.apply(
                Delta(
                    assertions=[
                        Triple(EX.bob, EX.hasPet, EX.rex),
                        Triple(EX.rex, RDF.type, EX.Dog),
                    ]
                )
            )
            assert {frozenset(b.items()) for b in events[-1].added} == {
                frozenset({X: EX.rex, Y: EX.bob}.items())
            }

    def test_join_removal_when_one_support_dies(self):
        patterns = [(X, RDF.type, EX.Animal), (Y, EX.hasPet, X)]
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(
                SCHEMA
                + [
                    Triple(EX.tom, RDF.type, EX.Cat),
                    Triple(EX.alice, EX.hasPet, EX.tom),
                ]
            )
            events = []
            r.subscribe(patterns, events.append)
            r.apply(Delta(retractions=[Triple(EX.tom, RDF.type, EX.Cat)]))
            assert [dict(b) for b in events[-1].removed] == [{X: EX.tom, Y: EX.alice}]
            assert events[-1].added == ()


class TestLifecycle:
    def test_cancel_stops_notifications(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA)
            events = []
            sub = r.subscribe(animal_pattern(), events.append)
            sub.cancel()
            r.apply(Delta(assertions=[Triple(EX.tom, RDF.type, EX.Cat)]))
            assert events == []

    def test_polling_mode_queues_events(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA)
            sub = r.subscribe(animal_pattern())  # no callback
            r.apply(Delta(assertions=[Triple(EX.tom, RDF.type, EX.Cat)]))
            events = sub.drain()
            assert len(events) == 1
            assert [dict(b) for b in events[0].added] == [{X: EX.tom}]
            assert sub.drain() == []

    def test_callback_errors_are_isolated(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA)

            def explode(event):
                raise ValueError("subscriber bug")

            sub = r.subscribe(animal_pattern(), explode)
            report = r.apply(Delta(assertions=[Triple(EX.tom, RDF.type, EX.Cat)]))
            assert report.revision  # the commit itself succeeded
            assert isinstance(sub.error, ValueError)

    def test_validation(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            with pytest.raises(ValueError):
                r.subscribe([])
            with pytest.raises(ValueError):
                r.subscribe([(X, RDF.type)])

    def test_window_expiry_notifies_subscribers(self):
        from repro import CountWindow, WindowedReasoner

        def typed(i):
            return Triple(EX[f"item{i}"], RDF.type, EX.Event)

        with WindowedReasoner(CountWindow(2), fragment="rhodf") as window:
            window.load_background([Triple(EX.Event, RDFS.subClassOf, EX.Thing)])
            window.flush()
            events = []
            window.reasoner.subscribe([(X, RDF.type, EX.Thing)], events.append)
            window.extend([typed(1), typed(2)])
            assert {b[X] for b in events[-1].added} == {EX.item1, EX.item2}
            window.extend([typed(3)])  # item1 expires
            assert {b[X] for b in events[-1].removed} == {EX.item1}
            assert {b[X] for b in events[-1].added} == {EX.item3}


# --- the support index ---------------------------------------------------------
# Removal is driven by an index (supporting triple → solutions resting on
# it) instead of a pass over every maintained solution.  The reference
# below is the maintenance it replaced, kept as the oracle: its events
# must be reproduced binding for binding, in order.


class ScanningReference:
    """Pre-index maintenance: every removal scans every solution."""

    def __init__(self, patterns, graph):
        from repro.store.planner import IncrementalBGPPlan

        self.patterns = [tuple(p) for p in patterns]
        self.plan = IncrementalBGPPlan(self.patterns)
        self.plan.compile(graph)
        self.solutions = {
            frozenset(s.items()): s for s in self.plan.solutions(graph)
        }

    def _instantiate(self, pattern, solution):
        return Triple(*(solution.get(term, term) for term in pattern))

    def fold(self, report, graph):
        """(added, removed) binding tuples for one revision."""
        gone = set(report.removed)
        removed = []
        for key, solution in list(self.solutions.items()):
            if any(self._instantiate(p, solution) in gone for p in self.patterns):
                removed.append(solution)
                del self.solutions[key]
        added = []
        for solution in self.plan.additions(graph, list(report.added_encoded)):
            key = frozenset(solution.items())
            if key not in self.solutions:
                self.solutions[key] = solution
                added.append(solution)
        return tuple(added), tuple(removed)


def assert_index_is_exact(subscription):
    """The support index holds exactly the live solutions' triples."""
    expected: dict = {}
    for solution in subscription.solutions:
        key = frozenset(solution.items())
        for pattern in subscription.patterns:
            triple = tuple(solution.get(term, term) for term in pattern)
            expected.setdefault(triple, set()).add(key)
    actual = {t: set(keys) for t, keys in subscription._support.items()}
    assert actual == expected


def run_against_reference(reasoner, patterns, deltas):
    """Commit ``deltas``; the live subscription must emit the reference's
    events exactly.  Returns the events for further assertions."""
    subscription = reasoner.subscribe(patterns)
    reference = ScanningReference(patterns, reasoner.graph)
    events = []
    for delta in deltas:
        report = reasoner.apply(delta)
        added, removed = reference.fold(report, reasoner.graph)
        emitted = subscription.drain()
        if not added and not removed:
            assert emitted == []
        else:
            assert len(emitted) == 1
            assert emitted[0].revision == report.revision
            assert emitted[0].added == added
            assert emitted[0].removed == removed
            events.append(emitted[0])
        assert_index_is_exact(subscription)
    return events


OWNS_ANIMAL = [(Y, EX.hasPet, X), (X, RDF.type, EX.Animal)]


class TestSupportIndex:
    @each_execution_mode
    def test_solution_losing_two_supports_dies_once(self, execution):
        pet = Triple(EX.alice, EX.hasPet, EX.tom)
        cat = Triple(EX.tom, RDF.type, EX.Cat)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.materialize(SCHEMA + [pet, cat])
            events = run_against_reference(
                r, OWNS_ANIMAL, [Delta(retractions=[pet, cat])]
            )
            assert [dict(b) for b in events[0].removed] == [{X: EX.tom, Y: EX.alice}]

    @each_execution_mode
    def test_solutions_sharing_a_support_die_together(self, execution):
        cat = Triple(EX.tom, RDF.type, EX.Cat)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.materialize(SCHEMA + [
                cat,
                Triple(EX.alice, EX.hasPet, EX.tom),
                Triple(EX.bob, EX.hasPet, EX.tom),
                Triple(EX.bob, EX.hasPet, EX.rex),
                Triple(EX.rex, RDF.type, EX.Dog),
            ])
            events = run_against_reference(r, OWNS_ANIMAL, [Delta(retractions=[cat])])
            assert {b[Y] for b in events[0].removed} == {EX.alice, EX.bob}
            assert all(b[X] == EX.tom for b in events[0].removed)

    @each_execution_mode
    def test_remove_then_readd_across_revisions(self, execution):
        cat = Triple(EX.tom, RDF.type, EX.Cat)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.materialize(SCHEMA + [cat, Triple(EX.alice, EX.hasPet, EX.tom)])
            events = run_against_reference(
                r,
                OWNS_ANIMAL,
                [
                    Delta(retractions=[cat]),
                    Delta(assertions=[cat]),
                    Delta(retractions=[cat]),
                    Delta(assertions=[cat], retractions=[cat]),  # nets to nothing
                ],
            )
            assert [(len(e.added), len(e.removed)) for e in events] == [
                (0, 1), (1, 0), (0, 1),
            ]

    def test_repeated_pattern_triple_is_indexed_once(self):
        """Both patterns instantiate to the same triple when x = y."""
        patterns = [(X, EX.knows, Y), (Y, EX.knows, X)]
        loop = Triple(EX.a, EX.knows, EX.a)
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize([loop, Triple(EX.a, EX.knows, EX.b), Triple(EX.b, EX.knows, EX.a)])
            run_against_reference(
                r, patterns, [Delta(retractions=[loop]), Delta(assertions=[loop])]
            )

    @each_execution_mode
    @pytest.mark.parametrize("seed", (11, 12, 13))
    def test_seeded_scripts_match_the_reference(self, execution, seed):
        import random

        rng = random.Random(seed)
        people = [EX[f"p{i}"] for i in range(5)]
        pets = [EX[f"a{i}"] for i in range(5)]
        pool = (
            [Triple(p, EX.hasPet, a) for p in people for a in pets]
            + [Triple(a, RDF.type, c) for a in pets for c in (EX.Cat, EX.Dog)]
        )
        live: set = set()
        deltas = []
        for _ in range(25):
            adds = [t for t in rng.sample(pool, 4) if t not in live]
            drops = rng.sample(sorted(live), min(len(live), rng.randint(0, 3)))
            delta = Delta(assertions=adds, retractions=drops)
            live.difference_update(delta.retractions)
            live.update(delta.assertions)
            deltas.append(delta)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.materialize(SCHEMA)
            events = run_against_reference(r, OWNS_ANIMAL, deltas)
            assert any(e.removed for e in events) and any(e.added for e in events)

    def test_removal_touches_one_entry_not_every_solution(self):
        """10k maintained solutions, one removed triple: the fold probes
        that triple's index entry and never walks the solution set."""

        class NoScan(dict):
            def _refuse(self, *args, **kwargs):
                raise AssertionError("removal iterated the maintained solutions")

            __iter__ = items = values = keys = _refuse

        class Touched(dict):
            def __init__(self, *args):
                super().__init__(*args)
                self.touched = set()

            def pop(self, key, *default):
                self.touched.add(key)
                return super().pop(key, *default)

            def get(self, key, default=None):
                self.touched.add(key)
                return super().get(key, default)

        members = [Triple(EX[f"m{i}"], RDF.type, EX.Event) for i in range(10_000)]
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(members)
            sub = r.subscribe([(X, RDF.type, EX.Event)])
            assert len(sub._solutions) == 10_000
            sub._solutions = NoScan(sub._solutions)
            sub._support = Touched(sub._support)
            r.apply(Delta(retractions=[members[1234]]))
            (event,) = sub.drain()
            assert [dict(b) for b in event.removed] == [{X: EX.m1234}]
            assert sub._support.touched == {(EX.m1234, RDF.type, EX.Event)}
            assert len(dict.keys(sub._solutions)) == 9_999
