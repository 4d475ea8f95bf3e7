"""Graph-scoped deltas through the engine: tagging, reports, filters.

Pins the named-graph semantics of the delta pipeline: a
``Delta(graph=...)`` tags exactly its newly-explicit assertions into
the store's sparse graph column, inferred consequences stay in the
default graph (rule conclusions are dataset-wide), retraction clears
tags, reports carry the commit's scope, and graph-filtered
subscriptions only see their own graph's revisions.
"""

import pytest

from repro import Delta, Slider
from repro.rdf import RDF, RDFS, Quad, Triple, Variable

from ..conftest import EX, EXECUTION_MODES, each_execution_mode

G1 = EX.graph1
G2 = EX.graph2

SCHEMA = [Triple(EX.Event, RDFS.subClassOf, EX.Thing)]


def typed(i: int) -> Triple:
    return Triple(EX[f"item{i}"], RDF.type, EX.Event)


def make_engine(**options):
    options.setdefault("workers", 0)
    options.setdefault("timeout", None)
    return Slider(fragment="rhodf", **options)


@pytest.fixture(params=list(EXECUTION_MODES))
def engine(request):
    with make_engine(**EXECUTION_MODES[request.param]) as reasoner:
        yield reasoner


class TestGraphScopedApply:
    def test_default_graph_delta_tags_nothing(self, engine):
        report = engine.apply(Delta(assertions=[typed(1)]))
        assert report.graph is None
        assert engine.graph_counts() == {}

    def test_graph_delta_tags_explicit_assertions(self, engine):
        report = engine.apply(Delta(assertions=SCHEMA + [typed(1)], graph=G1))
        assert report.graph == G1
        assert engine.graph_counts() == {G1: 2}
        assert typed(1) in engine.triples_in_graph(G1)

    def test_inferred_triples_stay_in_default_graph(self, engine):
        engine.apply(Delta(assertions=SCHEMA + [typed(1)], graph=G1))
        inferred = Triple(EX.item1, RDF.type, EX.Thing)
        assert inferred in engine.graph
        assert inferred not in engine.triples_in_graph(G1)
        assert inferred in engine.triples_in_graph(None)

    def test_two_graphs_stay_disjoint(self, engine):
        engine.apply(Delta(assertions=[typed(1)], graph=G1))
        engine.apply(Delta(assertions=[typed(2)], graph=G2))
        assert engine.triples_in_graph(G1) == [typed(1)]
        assert engine.triples_in_graph(G2) == [typed(2)]

    def test_reassertion_does_not_steal_the_tag(self, engine):
        engine.apply(Delta(assertions=[typed(1)], graph=G1))
        engine.apply(Delta(assertions=[typed(1)], graph=G2))
        # Already-explicit triples are a no-op (not journaled, not
        # re-tagged), so the original scope survives.
        assert engine.graph_counts() == {G1: 1}

    def test_retraction_clears_the_tag(self, engine):
        engine.apply(Delta(assertions=[typed(1), typed(2)], graph=G1))
        engine.apply(Delta(retractions=[typed(1)], graph=G1))
        assert engine.graph_counts() == {G1: 1}
        assert engine.triples_in_graph(G1) == [typed(2)]

    def test_quad_assertions_adopt_their_graph(self, engine):
        engine.apply(Delta(assertions=[Quad.from_triple(typed(1), G1)]))
        assert engine.triples_in_graph(G1) == [typed(1)]

    def test_transaction_graph_scope(self, engine):
        with engine.transaction(graph=G1) as tx:
            tx.add([typed(1), typed(2)])
        assert tx.report.graph == G1
        assert engine.graph_counts() == {G1: 2}

    def test_report_as_dict_carries_graph(self, engine):
        report = engine.apply(Delta(assertions=[typed(1)], graph=G1))
        assert report.as_dict()["graph"] == G1.n3()
        default = engine.apply(Delta(assertions=[typed(2)]))
        assert default.as_dict()["graph"] is None

    def test_triples_in_graph_validates_term(self, engine):
        with pytest.raises(TypeError):
            engine.triples_in_graph("not-a-term")


class TestGraphFilteredSubscriptions:
    def test_scoped_subscription_sees_only_its_graph(self, engine):
        x = Variable("x")
        sub = engine.subscribe([(x, RDF.type, EX.Event)], graph=G1)
        engine.apply(Delta(assertions=[typed(1)], graph=G1))
        engine.apply(Delta(assertions=[typed(2)], graph=G2))
        engine.apply(Delta(assertions=[typed(3)]))
        events = sub.drain()
        assert len(events) == 1
        assert [b[x] for b in events[0].added] == [EX.item1]

    def test_unscoped_subscription_sees_every_graph(self, engine):
        x = Variable("x")
        sub = engine.subscribe([(x, RDF.type, EX.Event)])
        engine.apply(Delta(assertions=[typed(1)], graph=G1))
        engine.apply(Delta(assertions=[typed(2)]))
        assert len(sub.drain()) == 2

    def test_scoped_subscription_sees_scoped_retractions(self, engine):
        x = Variable("x")
        engine.apply(Delta(assertions=[typed(1)], graph=G1))
        sub = engine.subscribe([(x, RDF.type, EX.Event)], graph=G1)
        engine.apply(Delta(retractions=[typed(1)], graph=G1))
        events = sub.drain()
        assert len(events) == 1 and events[0].removed


class TestDifferentialIsolation:
    """Interleaved graph-scoped tenants ≡ isolated engines."""

    @each_execution_mode
    def test_interleaved_equals_isolated(self, execution):
        # Tenant data is disjoint (tenant-prefixed subjects); the shared
        # schema lives in the default graph in both settings.  A triple
        # asserted by two graphs keeps its *first* asserter's tag, so
        # full isolation of overlapping data is the tenancy layer's job
        # (engine per tenant) — the engine contract pinned here is for
        # disjoint datasets.
        scripts = {
            G1: [Delta(assertions=[typed(i) for i in range(4)])],
            G2: [
                Delta(assertions=[typed(i) for i in range(10, 16)]),
                Delta(retractions=[typed(12)]),
            ],
        }
        with make_engine(**execution) as shared:
            shared.apply(Delta(assertions=SCHEMA))
            for step in range(2):
                for graph, deltas in scripts.items():
                    if step < len(deltas):
                        d = deltas[step]
                        shared.apply(
                            Delta(
                                assertions=d.assertions,
                                retractions=d.retractions,
                                graph=graph,
                            )
                        )
            shared_graphs = {
                graph: sorted(shared.triples_in_graph(graph)) for graph in scripts
            }
        for graph, deltas in scripts.items():
            with make_engine(**execution) as isolated:
                isolated.apply(Delta(assertions=SCHEMA))
                for d in deltas:
                    isolated.apply(
                        Delta(
                            assertions=d.assertions,
                            retractions=d.retractions,
                            graph=graph,
                        )
                    )
                assert shared_graphs[graph] == sorted(
                    isolated.triples_in_graph(graph)
                )
