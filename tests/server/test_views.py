"""Read views: immutable per-revision snapshots with structure sharing.

The property backing the serving layer's consistency model: the view
derived incrementally from each revision's report is *identical* to a
view rebuilt from the store at that revision — for adds, retractions,
and re-derivations — on every method of the read
protocol, across re-bases, while retained predecessors keep answering as
they did.  ``advance()`` is O(delta) by counting index entries, not by
clock.
"""

import random
from types import SimpleNamespace

import pytest

from repro import Delta, Slider, Triple
from repro.rdf import RDF, RDFS
from repro.server import ReadView, RevisionGoneError, ViewRegistry
from repro.store.backends.hashdict import HashDictStore

from ..conftest import EX, each_execution_mode, make_chain, small_ontology


def make_engine(workers=0, **options):
    return Slider(fragment="rhodf", workers=workers, timeout=None, **options)


DELTAS = [
    Delta(assertions=small_ontology()),
    Delta(assertions=make_chain(8)),
    Delta(retractions=[small_ontology()[2]]),  # DRed removal
    Delta(
        assertions=[Triple(EX.rex, RDF.type, EX.Cat)],
        retractions=make_chain(8)[:2],
    ),
]


class TestReadView:
    @each_execution_mode
    def test_from_store_matches_store(self, execution):
        with make_engine(**execution) as r:
            r.apply(Delta(assertions=small_ontology()))
            view = ReadView.from_store(r.revision, r.store)
            assert len(view) == len(r.store)
            assert set(view) == set(r.store)
            assert sorted(view.predicates()) == sorted(r.store.predicates())

    @each_execution_mode
    def test_advance_equals_rebuild_at_every_revision(self, execution):
        """Incrementally advanced view == full rebuild, after each delta."""
        with make_engine(**execution) as r:
            view = ReadView.from_store(r.revision, r.store)
            for delta in DELTAS:
                report = r.apply(delta)
                view = view.advance(report)
                rebuilt = ReadView.from_store(r.revision, r.store)
                assert view.revision == rebuilt.revision == r.revision
                assert set(view) == set(rebuilt)
                assert len(view) == len(rebuilt)
                for predicate in rebuilt.predicates():
                    assert view.count_predicate(predicate) == rebuilt.count_predicate(
                        predicate
                    )

    def test_advance_does_not_mutate_predecessor(self):
        with make_engine() as r:
            r.apply(Delta(assertions=small_ontology()))
            old_view = ReadView.from_store(r.revision, r.store)
            old_triples = set(old_view)
            old_size = len(old_view)
            report = r.apply(Delta(assertions=[Triple(EX.rex, RDF.type, EX.Cat)]))
            new_view = old_view.advance(report)
            # The predecessor is untouched: snapshot isolation.
            assert set(old_view) == old_triples
            assert len(old_view) == old_size
            assert len(new_view) > old_size
            assert new_view.revision == old_view.revision + 1

    def test_read_protocol(self):
        with make_engine() as r:
            r.apply(Delta(assertions=small_ontology()))
            view = ReadView.from_store(r.revision, r.store)
            encoded = next(iter(r.store))
            s, p, o = encoded
            assert encoded in view
            assert (s + 999_999, p, o) not in view
            assert view.has_predicate(p)
            assert encoded in view.match(None, p, None)
            assert view.match(s, p, o) == [encoded]
            assert o in view.objects(p, s)
            assert s in view.subjects(p, o)
            assert view.stats()["triples"] == len(view)

    def test_views_are_immutable(self):
        view = ReadView.from_store(0, HashDictStore())
        for method in (view.add, view.remove, view.clear):
            with pytest.raises(TypeError):
                method((1, 2, 3))
        with pytest.raises(TypeError):
            view.add_all([(1, 2, 3)])

    def test_graph_queries_run_on_views(self):
        """The ordinary BGP machinery evaluates against a view unchanged."""
        from repro import Variable
        from repro.store.graph import Graph

        with make_engine() as r:
            r.apply(Delta(assertions=small_ontology()))
            graph = Graph(r.dictionary, ReadView.from_store(r.revision, r.store))
            x = Variable("x")
            rows = graph.select([x], [(x, RDF.type, EX.Animal)])
            assert (EX.tom,) in rows
            assert graph.ask([(x, RDFS.subClassOf, EX.Animal)])


def report(revision, added=(), removed=()):
    """The slice of an InferenceReport ``advance()`` reads."""
    return SimpleNamespace(
        revision=revision, added_encoded=list(added), removed_encoded=list(removed)
    )


def store_of(triples) -> HashDictStore:
    store = HashDictStore()
    store.add_all(triples)
    return store


def assert_reads_equal(view, store, subjects, predicates, objects):
    """``view`` answers every read-protocol method as ``store`` does."""
    assert len(view) == len(store)
    assert sorted(view) == sorted(store)
    assert sorted(view.predicates()) == sorted(store.predicates())
    assert view.stats_vector() == store.stats_vector()
    assert view.stats()["triples"] == len(store)
    assert view.stats()["predicates"] == len(store.predicates())
    assert sorted(view.match()) == sorted(store.match())
    for p in predicates:
        assert view.has_predicate(p) == store.has_predicate(p)
        assert view.count_predicate(p) == store.count_predicate(p)
        assert view.predicate_stats(p) == store.predicate_stats(p)
        assert sorted(view.pairs_for_predicate(p)) == sorted(store.pairs_for_predicate(p))
        assert sorted(view.match(None, p, None)) == sorted(store.match(None, p, None))
        for s in subjects:
            assert sorted(view.objects(p, s)) == sorted(store.objects(p, s))
            assert sorted(view.match(s, p, None)) == sorted(store.match(s, p, None))
        for o in objects:
            assert sorted(view.subjects(p, o)) == sorted(store.subjects(p, o))
            assert sorted(view.match(None, p, o)) == sorted(store.match(None, p, o))
    for s in subjects:
        assert view.count_subject(s) == store.count_subject(s)
        assert sorted(view.triples_for_subject(s)) == sorted(store.triples_for_subject(s))
        assert sorted(view.match(s, None, None)) == sorted(store.match(s, None, None))
        for o in objects:
            assert sorted(view.predicates_between(s, o)) == sorted(
                store.predicates_between(s, o)
            )
            assert sorted(view.match(s, None, o)) == sorted(store.match(s, None, o))
            for p in predicates:
                assert ((s, p, o) in view) == ((s, p, o) in store)
                assert view.match(s, p, o) == store.match(s, p, o)
    for o in objects:
        assert view.count_object(o) == store.count_object(o)
        assert sorted(view.triples_for_object(o)) == sorted(store.triples_for_object(o))
        assert sorted(view.match(None, None, o)) == sorted(store.match(None, None, o))


class TestAdvanceChainProperty:
    """A chain of ``advance()`` over random reports ≡ a fresh HashDictStore."""

    SUBJECTS = range(1, 11)
    PREDICATES = range(100, 105)  # 104 is never stored
    OBJECTS = range(1, 9)

    @pytest.mark.parametrize("seed", (7, 2024, 90210))
    def test_chain_equals_fresh_store_and_predecessors_hold(self, seed, monkeypatch):
        from repro.server import views

        # Small budget: the chain crosses re-base points with a universe
        # small enough to compare exhaustively.
        monkeypatch.setattr(views, "REBASE_FLOOR", 12)
        rng = random.Random(seed)
        universe = [
            (s, p, o)
            for s in self.SUBJECTS
            for p in self.PREDICATES[:-1]
            for o in self.OBJECTS
        ]
        alive = set(rng.sample(universe, 60))
        view = ReadView.from_store(0, store_of(alive))
        retained = [(view, frozenset(alive))]
        rebases = resurrected = emptied = 0
        graveyard: list = []  # removed earlier, candidates for re-assertion
        for revision in range(1, 121):
            kind = rng.random()
            if kind < 0.08 and alive:
                # Empty one whole partition.
                predicate = rng.choice(sorted({p for _, p, _ in alive}))
                removed = [t for t in alive if t[1] == predicate]
                added = []
                emptied += 1
            else:
                removed = rng.sample(sorted(alive), min(len(alive), rng.randint(0, 4)))
                fresh = [t for t in universe if t not in alive]
                added = rng.sample(fresh, rng.randint(0, 6))
                if graveyard and kind < 0.5:
                    # Re-assert something tombstoned (or folded away) earlier.
                    again = rng.choice(graveyard)
                    if again not in alive and again not in added:
                        added.append(again)
                        resurrected += 1
                if kind > 0.9 and alive:
                    added.append(rng.choice(sorted(alive)))  # redundant add: a no-op
            graveyard.extend(removed)
            alive = (alive - set(removed)) | set(added)
            successor = view.advance(report(revision, added, removed))
            assert successor.revision == revision
            rebases += successor._base is not view._base
            view = successor
            assert_reads_equal(
                view, store_of(alive), self.SUBJECTS, self.PREDICATES, self.OBJECTS
            )
            retained = (retained + [(view, frozenset(alive))])[-5:]
            if revision % 8 == 0:
                for old, contents in retained:
                    assert_reads_equal(
                        old, store_of(contents), self.SUBJECTS, self.PREDICATES, self.OBJECTS
                    )
        assert rebases >= 2 and resurrected >= 2 and emptied >= 1, (
            rebases, resurrected, emptied,
        )

    def test_a_view_advanced_twice_forks_cleanly(self):
        """Two successors of one view share its posting lists' prefix;
        neither sees the other's members, nor does the predecessor."""
        root = ReadView.from_store(0, store_of([(1, 100, 2)]))
        trunk = root.advance(report(1, added=[(1, 100, 3), (5, 100, 2)]))
        left = trunk.advance(report(2, added=[(1, 100, 4)]))
        right = trunk.advance(report(2, added=[(1, 100, 9), (6, 100, 2)]))
        assert sorted(trunk.objects(100, 1)) == [2, 3]
        assert sorted(left.objects(100, 1)) == [2, 3, 4]
        assert sorted(right.objects(100, 1)) == [2, 3, 9]
        assert sorted(left.subjects(100, 2)) == [1, 5]
        assert sorted(right.subjects(100, 2)) == [1, 5, 6]
        assert sorted(root) == [(1, 100, 2)]

    def test_no_tombstones_no_filtering(self):
        """With nothing retracted the tombstone map stays empty — one
        missed dict probe is all a read pays for it."""
        view = ReadView.from_store(0, store_of([(1, 100, 2)]))
        for revision in range(1, 6):
            view = view.advance(report(revision, added=[(revision, 100, 7)]))
        assert view._dead == {}
        view = view.advance(report(6, removed=[(1, 100, 2)]))
        assert view._dead == {100: {(1, 2)}}
        view = view.advance(report(7, added=[(1, 100, 2)]))
        assert view._dead == {}


class TestRebase:
    def test_outgrown_overlay_folds_into_a_fresh_base(self, monkeypatch):
        """Past the budget the overlay is folded: the successor has a new
        base and an empty overlay, untouched partitions are shared with
        the old base, and the predecessor keeps its own."""
        from repro.obs import instruments
        from repro.server import views

        monkeypatch.setattr(views, "REBASE_FLOOR", 4)
        store = store_of([(s, 100, 1) for s in range(40)] + [(s, 200, 2) for s in range(40)])
        first = ReadView.from_store(0, store)
        folds_before = instruments.VIEWS_REBASES.value()
        view, chain = first, []
        for revision in range(1, 30):
            view = view.advance(report(revision, added=[(1000 + revision, 100, 1)]))
            chain.append(view)
        folds = [b for a, b in zip([first] + chain, chain) if b._base is not a._base]
        # Budget = max(4, 0.25 x 80 = 20): the 21st added triple folds.
        assert [v.revision for v in folds] == [21]
        assert instruments.VIEWS_REBASES.value() - folds_before == 1
        folded = folds[0]
        assert folded._overlay == 0 and not folded._pso and not folded._stats
        assert len(folded) == 80 + 21 and len(folded.subjects(100, 1)) == 40 + 21
        assert folded._base.pso[200] is first._base.pso[200]  # untouched: shared
        assert folded._base.pso[100] is not first._base.pso[100]
        assert len(chain[19]) == 80 + 20 and chain[19]._base is first._base


def fresh_entries(before: ReadView, after: ReadView) -> int:
    """Index entries of ``after``'s overlay that are not shared (by
    identity) with ``before`` — an audit of ``entries_written`` that does
    not trust the counter."""
    fresh = 0
    for new, old in ((after._pso, before._pso), (after._pos, before._pos)):
        if new is not old:
            fresh += len(new)
        for predicate, index in new.items():
            previous = old.get(predicate)
            if index is previous:
                continue
            fresh += len(index)
            for key, (members, n) in index.items():
                shared = (previous or {}).get(key)
                if shared is None:
                    fresh += n
                elif shared[0] is members:
                    fresh += n - shared[1]  # appended cells only
                else:
                    fresh += n  # a copied posting would show up here
    return fresh


class TestAdvanceIsDeltaProportional:
    """By counting, not by clock: what ``advance()`` writes for a k-triple
    delta does not depend on how many members the touched class has."""

    TYPE, KNOWS, CLASS = 1, 2, 3

    def _typed_into(self, members: int):
        store = store_of(
            [(100 + i, self.TYPE, self.CLASS) for i in range(members)]
            + [(100 + i, self.KNOWS, 100 + (i * 7) % members) for i in range(members)]
        )
        view = ReadView.from_store(0, store)
        written, audited = [], []
        for revision in range(1, 4):
            newcomer = 10_000_000 + revision
            delta = [
                (newcomer, self.TYPE, self.CLASS),
                (newcomer, self.KNOWS, 100),
                (100, self.KNOWS, newcomer),
            ]
            successor = view.advance(report(revision, added=delta))
            assert successor._base is view._base  # no re-base, no copy of the base
            assert newcomer in successor.subjects(self.TYPE, self.CLASS)
            assert len(successor.subjects(self.TYPE, self.CLASS)) == members + revision
            written.append(successor.entries_written)
            audited.append(fresh_entries(view, successor))
            view = successor
        return written, audited

    def test_entries_written_independent_of_class_size(self):
        small_written, small_audit = self._typed_into(1_000)
        large_written, large_audit = self._typed_into(50_000)
        assert small_written == large_written
        assert small_audit == large_audit
        # ... and small in absolute terms: a 3-triple delta writes a few
        # dozen entries (spine slots + one cell per index side), not 50k.
        assert max(large_written) < 60
        assert max(large_audit) <= max(large_written)

    def test_posting_members_are_appended_never_copied(self):
        view = ReadView.from_store(0, store_of([(1, self.TYPE, self.CLASS)]))
        view = view.advance(report(1, added=[(2, self.TYPE, self.CLASS)]))
        members_before = view._pos[self.TYPE][self.CLASS][0]
        for revision in range(2, 200):
            view = view.advance(report(revision, added=[(revision + 1, self.TYPE, self.CLASS)]))
        members, n = view._pos[self.TYPE][self.CLASS]
        assert members is members_before and n == len(members) == 199


class TestReadersRaceTheWriter:
    def test_snapshot_answers_hold_while_postings_grow(self):
        """Readers outnumbering the cores probe views whose posting lists
        the writer is appending to in place; every view must keep
        answering for its own revision (a reader seeing a later view's
        members, or a torn append, breaks the count)."""
        import sys
        import threading
        import time

        TYPE, CLASS, BASE = 1, 2, 50
        registry = ViewRegistry(
            ReadView.from_store(0, store_of([(s, TYPE, CLASS) for s in range(BASE)])),
            retain=4,
        )
        stop = threading.Event()
        failures: list = []
        probes = [0]

        def reader():
            while not stop.is_set():
                view = registry.current()
                revision = view.revision
                members = view.subjects(TYPE, CLASS)
                if not (
                    len(members) == len(set(members)) == BASE + revision == len(view)
                    and view.predicate_stats(TYPE) == (BASE + revision, BASE + revision, 1)
                    and ((1000 + revision, TYPE, CLASS) in view) == (revision > 0)
                    and (1000 + revision + 1, TYPE, CLASS) not in view
                ):
                    failures.append((revision, len(members), len(view)))
                    stop.set()
                probes[0] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, daemon=True) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 1.5
            revision = 0
            while time.monotonic() < deadline and not stop.is_set():
                revision += 1
                registry.advance(report(revision, added=[(1000 + revision, TYPE, CLASS)]))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        assert revision > 100 and probes[0] > 100, (revision, probes[0])


class TestPlannerPricesViewsFromCounts:
    def test_predicate_free_patterns_use_subject_and_object_counts(self):
        """A view has ``count_subject`` / ``count_object``, so the planner
        prices ``<s> ?p ?o`` and ``?s ?p <o>`` exactly as on the live
        store instead of falling back to sqrt(size)."""
        from repro import Variable
        from repro.store.graph import Graph
        from repro.store.planner import plan_bgp

        p, x = Variable("p"), Variable("x")
        with make_engine() as r:
            r.apply(Delta(assertions=small_ontology()))
            view = ReadView.from_store(r.revision, r.store)
            view = view.advance(r.apply(Delta(assertions=make_chain(8))))
            assert view._pso
            on_view = Graph(r.dictionary, view)
            for pattern in ((EX.tom, p, x), (x, p, EX.Animal)):
                (step,) = plan_bgp(on_view, [pattern]).steps
                (live,) = plan_bgp(r.graph, [pattern]).steps
                assert step.estimated_rows == live.estimated_rows
                assert step.estimated_rows == len(on_view.solve([pattern]))


class TestViewRegistry:
    def test_pinning_and_eviction(self):
        with make_engine() as r:
            registry = ViewRegistry(
                ReadView.from_store(r.revision, r.store), retain=2
            )
            first = r.apply(Delta(assertions=[Triple(EX.a, EX.p, EX.b)]))
            registry.advance(first)
            second = r.apply(Delta(assertions=[Triple(EX.c, EX.p, EX.d)]))
            registry.advance(second)
            assert registry.current().revision == second.revision
            assert registry.at(first.revision).revision == first.revision
            # Initial revision evicted by retain=2.
            with pytest.raises(RevisionGoneError):
                registry.at(0)
            assert registry.revisions() == [first.revision, second.revision]

    def test_retain_validation(self):
        with pytest.raises(ValueError):
            ViewRegistry(ReadView.from_store(0, HashDictStore()), retain=0)
