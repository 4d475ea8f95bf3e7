"""Tests for the delta-centric transaction API.

Pins the PR's acceptance criteria: a mixed add+retract transaction
yields the same closure as the equivalent sequential one-shot calls,
and an InferenceReport's added/removed triple
sets are *exactly* the observed graph diff between consecutive
revisions.
"""

import pytest

from repro import Delta, InferenceReport, Slider, Ticket, Transaction
from repro.rdf import RDF, RDFS, Triple

from ..conftest import EX, each_execution_mode, make_chain, small_ontology


def typed(i: int) -> Triple:
    return Triple(EX[f"item{i}"], RDF.type, EX.Event)


SCHEMA = [
    Triple(EX.Event, RDFS.subClassOf, EX.Thing),
    Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
]


class TestDelta:
    def test_normalization_cancels_add_and_retract(self):
        t = typed(1)
        delta = Delta(assertions=[t, typed(2)], retractions=[t])
        assert t not in delta.assertions
        assert t not in delta.retractions
        assert delta.assertions == (typed(2),)

    def test_duplicates_collapse_preserving_order(self):
        delta = Delta(assertions=[typed(1), typed(2), typed(1)])
        assert delta.assertions == (typed(1), typed(2))

    def test_single_triple_accepted(self):
        delta = Delta(assertions=typed(1), retractions=typed(2))
        assert delta.assertions == (typed(1),)
        assert delta.retractions == (typed(2),)

    def test_empty_delta_is_falsy(self):
        assert not Delta()
        assert Delta(assertions=typed(1))
        assert len(Delta(assertions=typed(1), retractions=typed(2))) == 2


class TestApply:
    def test_apply_requires_a_delta(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            with pytest.raises(TypeError):
                r.apply([typed(1)])

    def test_apply_returns_report_with_monotonic_revisions(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            first = r.apply(Delta(assertions=SCHEMA))
            second = r.apply(Delta(assertions=[typed(1)]))
            assert isinstance(first, InferenceReport)
            assert 0 < first.revision < second.revision
            assert r.revision == second.revision

    def test_add_then_retract_in_same_transaction_is_noop(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.apply(Delta(assertions=SCHEMA))
            before = set(r.graph)
            report = r.apply(
                Delta(assertions=[typed(7)], retractions=[typed(7)])
            )
            assert set(r.graph) == before
            assert not report  # empty diff
            assert report.added_count == 0 and report.removed_count == 0

    def test_report_counts_explicit_vs_inferred(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            report = r.apply(
                Delta(assertions=SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            )
            assert set(report.explicit_added) >= set(SCHEMA)
            assert Triple(EX.tom, RDF.type, EX.Animal) in report.inferred_added
            assert report.added_count == len(report.added)
            assert report.net_change == report.added_count  # nothing removed

    def test_report_timings_cover_firing_rules(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            report = r.apply(
                Delta(assertions=SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            )
            assert report.timings  # at least one module fired
            rule_names = {rule.name for rule in r.rules}
            assert set(report.timings) <= rule_names
            assert all(seconds >= 0 for seconds in report.timings.values())

    def test_as_dict_is_json_serializable(self):
        import json

        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            report = r.apply(Delta(assertions=SCHEMA))
            payload = json.loads(json.dumps(report.as_dict()))
            assert payload["revision"] == report.revision
            assert payload["explicit_added"] == report.explicit_added_count


class TestMixedTransactionClosure:
    """Acceptance: mixed tx closure == the equivalent sequential calls."""

    @each_execution_mode
    def test_matches_sequential_add_and_retract(self, execution):
        ontology = small_ontology() + make_chain(8)
        stale = [ontology[0], ontology[3]]
        fresh = [Triple(EX.extra, RDF.type, EX.Cat), typed(1)]

        with Slider(fragment="rhodf", timeout=None, **execution) as seq:
            seq.materialize(ontology)
            seq.retract(stale)
            seq.add(fresh)
            seq.flush()
            sequential = set(seq.graph)

        with Slider(fragment="rhodf", timeout=None, **execution) as txr:
            txr.materialize(ontology)
            with txr.transaction() as tx:
                tx.add(fresh)
                tx.retract(stale)
            transactional = set(txr.graph)

        assert transactional == sequential
        assert tx.report is not None and tx.report.removed_count > 0

    def test_threaded_engine_matches_inline(self):
        ontology = small_ontology()
        with Slider(
            fragment="rhodf", workers=4, buffer_size=3, timeout=0.01
        ) as r:
            with r.transaction() as tx:
                tx.add(ontology)
                tx.retract([ontology[2]])
            threaded = set(r.graph)
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(ontology)
            r.retract([ontology[2]])
            r.flush()
            inline = set(r.graph)
        assert threaded == inline


class TestReportMatchesGraphDiff:
    """Acceptance: report added/removed == observed store diff."""

    @each_execution_mode
    def test_consecutive_revisions(self, execution):
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.apply(Delta(assertions=small_ontology()))
            snapshots = [set(r.graph)]
            reports = []

            deltas = [
                Delta(assertions=make_chain(6)),
                Delta(
                    assertions=[Triple(EX.extra, RDF.type, EX.Cat)],
                    retractions=[small_ontology()[2]],  # tom a Cat leaves
                ),
                Delta(retractions=make_chain(6)[:2]),
            ]
            for delta in deltas:
                reports.append(r.apply(delta))
                snapshots.append(set(r.graph))

            for before, after, report in zip(snapshots, snapshots[1:], reports):
                assert set(report.added) == after - before
                assert set(report.removed) == before - after
                assert set(report.explicit_added).isdisjoint(report.inferred_added)

    def test_deferred_adds_fold_into_next_revision(self):
        """One-shot add() lands in the revision sealed by the next flush."""
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.flush()
            before = set(r.graph)
            r.add(SCHEMA)
            r.add([Triple(EX.tom, RDF.type, EX.Cat)])
            report = r.flush()
            assert set(report.added) == set(r.graph) - before
            assert report.revision == r.revision


class TestNeverCommittedRetraction:
    """Regression: retracting a triple the store never held is a no-op.

    The delta pipeline must tolerate retractions of never-committed
    triples in every shape — a bare retraction, a retraction mixed into
    a live delta, and the sharp edge the changelog replay path walks
    straight into: a triple whose assertion was cancelled by ``Delta``
    net-normalization in an earlier revision and which is then
    retracted again later.  None of these may raise (historically a
    risk of ``KeyError`` in the bookkeeping dicts) and none may perturb
    the closure.
    """

    @each_execution_mode
    def test_netted_then_retracted_is_noop(self, execution):
        ghost = typed(99)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.apply(Delta(assertions=SCHEMA))
            before = set(r.graph)
            # Revision n: the assertion is cancelled by net-normalization,
            # so `ghost` never reaches the store...
            netted = r.apply(Delta(assertions=[ghost], retractions=[ghost]))
            assert not netted
            # ...revision n+1: retracting it again must be a clean no-op.
            report = r.apply(Delta(retractions=[ghost]))
            assert not report
            assert report.dred_deleted == 0
            assert set(r.graph) == before

    @each_execution_mode
    def test_unknown_retraction_inside_live_delta(self, execution):
        ghost = typed(98)
        with Slider(fragment="rhodf", timeout=None, **execution) as r:
            r.apply(Delta(assertions=SCHEMA))
            report = r.apply(
                Delta(
                    assertions=[Triple(EX.tom, RDF.type, EX.Cat)],
                    retractions=[ghost],
                )
            )
            assert Triple(EX.tom, RDF.type, EX.Animal) in report.inferred_added
            assert report.removed_count == 0  # the ghost changed nothing

    def test_retract_shim_returns_zero_for_unknown(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.apply(Delta(assertions=SCHEMA))
            assert r.retract(typed(97)) == 0
            # Terms of the ghost entered the dictionary during encoding;
            # that alone must not corrupt later commits.
            report = r.apply(Delta(assertions=[typed(97)]))
            assert typed(97) in report.explicit_added


class TestTransactionLifecycle:
    def test_abort_discards_mutations(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA)
            before = set(r.graph)
            with r.transaction() as tx:
                tx.add([typed(1)])
                tx.abort()
            assert set(r.graph) == before
            assert tx.report is None
            assert tx.state == "aborted"

    def test_exception_aborts(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            before = set(r.graph)
            with pytest.raises(RuntimeError, match="boom"):
                with r.transaction() as tx:
                    tx.add([typed(1)])
                    raise RuntimeError("boom")
            assert set(r.graph) == before
            assert tx.state == "aborted"

    def test_commit_is_single_shot(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            tx = r.transaction().add([typed(1)])
            tx.commit()
            with pytest.raises(RuntimeError, match="committed"):
                tx.add([typed(2)])

    def test_transaction_returns_builder(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            tx = r.transaction()
            assert isinstance(tx, Transaction)
            assert tx.add(typed(1)) is tx
            assert tx.retract(typed(2)) is tx
            delta = tx.delta()
            assert delta.assertions == (typed(1),)
            tx.abort()


class TestShims:
    """The one-shot methods stay behaviourally identical."""

    def test_add_returns_new_count(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            assert r.add(SCHEMA) == len(SCHEMA)
            assert r.add(SCHEMA) == 0  # duplicates

    def test_retract_return_value_matches_dred(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.materialize(SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            removed = r.retract(Triple(EX.tom, RDF.type, EX.Cat))
            assert removed == 2  # the assertion + tom a Animal
            assert r.retract(Triple(EX.never, EX.was, EX.there)) == 0


class TestFlushAsync:
    def test_ticket_resolves_to_the_report(self):
        with Slider(fragment="rhodf", workers=2, buffer_size=5, timeout=0.01) as r:
            r.add(SCHEMA + [Triple(EX.tom, RDF.type, EX.Cat)])
            ticket = r.flush_async()
            assert isinstance(ticket, Ticket)
            report = ticket.result(timeout=30.0)
            assert ticket.done()
            assert Triple(EX.tom, RDF.type, EX.Animal) in r.graph
            assert report.revision >= 1

    def test_tickets_pipeline_in_order(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            r.add(SCHEMA)
            first = r.flush_async()
            r.add([Triple(EX.tom, RDF.type, EX.Cat)])
            second = r.flush_async()
            a = first.result(timeout=30.0)
            b = second.result(timeout=30.0)
            # Each ticket seals exactly one revision; commit order is
            # whichever background flush wins the transaction lock.
            assert abs(a.revision - b.revision) == 1

    def test_writes_keep_flowing_during_async_flush(self):
        """The commit barrier must not close the writer gate: adds issued
        while a background flush runs complete and reach the closure."""
        chain = make_chain(60)
        with Slider(fragment="rhodf", workers=2, buffer_size=5, timeout=0.01) as r:
            r.add(chain[:30])
            ticket = r.flush_async()
            r.add(chain[30:])  # must not deadlock or block until the barrier
            ticket.result(timeout=30.0)
            final = r.flush()
            assert final.revision >= 1
            with Slider(fragment="rhodf", workers=0, timeout=None) as ref:
                ref.materialize(chain)
                assert set(r.graph) == set(ref.graph)


class TestWindowDeltaIntegration:
    def test_window_expiry_flows_through_apply(self):
        from repro import CountWindow, WindowedReasoner

        with WindowedReasoner(CountWindow(2), fragment="rhodf") as window:
            window.load_background(SCHEMA)
            window.extend([typed(1), typed(2)])
            revision_before = window.reasoner.revision
            window.extend([typed(3)])  # expires item1
            report = window.last_report
            assert report is not None
            assert report.revision > revision_before
            assert typed(1) in report.removed
            assert typed(3) in report.explicit_added

    def test_restreamed_triple_expiring_in_same_chunk_is_retracted(self):
        """A *live* triple that is re-streamed and expires within the
        same chunk must still leave the store: only brand-new triples
        are eligible for net-delta cancellation."""
        from repro import CountWindow, WindowedReasoner

        with WindowedReasoner(CountWindow(3), fragment="rhodf") as window:
            window.extend([typed(1), typed(2)])
            assert typed(1) in window.graph
            # typed(1) is refreshed, then immediately overflows together
            # with everything older than the last three arrivals.
            window.extend([typed(1), typed(4), typed(5), typed(6)])
            live = {triple for _, triple in window._entries}
            assert typed(1) not in live
            assert typed(1) not in window.graph  # no silent store leak
            assert set(window.graph) == live

    def test_same_chunk_add_and_expire_is_net_noop(self):
        from repro import CountWindow, WindowedReasoner

        with WindowedReasoner(CountWindow(2), fragment="rhodf") as window:
            window.extend([typed(i) for i in range(7)])
            # items 0-4 expired inside the same chunk: they must never
            # have reached the store at all.
            report = window.last_report
            assert set(report.explicit_added) == {typed(5), typed(6)}
            assert report.removed_count == 0
            assert window.expired_total == 5


class TestStreamPumpTransactional:
    def test_per_chunk_reports(self):
        from repro.reasoner import ListSource, StreamPump

        triples = SCHEMA + [typed(i) for i in range(10)]
        seen = []
        with Slider(fragment="rhodf", workers=0, timeout=None) as r:
            pump = StreamPump(
                r,
                ListSource(triples),
                chunk_size=4,
                transactional=True,
                # on_chunk keeps its one-argument contract in every mode;
                # the chunk's report is published on last_report first.
                on_chunk=lambda size: seen.append((size, pump.last_report.revision)),
            )
            assert pump.run() == len(triples)
            assert pump.last_report is not None
            assert [size for size, _ in seen] == [4, 4, 4]
            revisions = [rev for _, rev in seen]
            assert revisions == sorted(revisions)
            assert Triple(EX.item1, RDF.type, EX.Thing) in r.graph
