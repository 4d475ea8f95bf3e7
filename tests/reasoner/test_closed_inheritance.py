"""Closed inheritance, by counting: a rule that inherits along a closed
hierarchy derives each conclusion once, in one firing.

rdfs9/cax-sco over a transitively closed ``subClassOf`` chain (and
rdfs7/prp-spo1 over ``subPropertyOf``) does not re-read its own
conclusions, so one instance typed ``k`` levels deep costs exactly one
firing that derives its ``k`` inherited types — not a second firing that
joins each new type with that type's ancestors again (about
``k(k+1)/2`` head instances, hidden by deduplication).
"""

import pytest

from repro import Delta, Slider
from repro.rdf import RDF, RDFS, Triple

from ..conftest import EX, each_execution_mode

INHERITANCE_RULE = {
    "rhodf": ("cax-sco", "prp-spo1"),
    "rdfs": ("rdfs9", "rdfs7"),
    "rdfs-full": ("rdfs9", "rdfs7"),
    "owl-horst": ("rdfs9", "rdfs7"),
}


def commit_counters(reasoner: Slider, rule: str, delta: Delta) -> dict[str, int]:
    """``rule``'s counters for the one commit of ``delta``."""
    before = reasoner.counters()[rule]
    reasoner.apply(delta)
    after = reasoner.counters()[rule]
    return {key: after[key] - before[key] for key in ("executions", "consumed", "derived")}


def ancestors(reasoner: Slider, node, relation) -> int:
    """How many ``(node relation ?)`` edges the closure holds: the chain
    above ``node``, plus the reflexive and ``Resource`` edges rdfs-full's
    axioms and rdfs8/rdfs10 add."""
    return reasoner.graph.count(node, relation)


@each_execution_mode
@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("fragment", sorted(INHERITANCE_RULE))
class TestOneFiringPerInstance:
    def test_typing_at_depth_k(self, fragment, n, execution):
        rule = INHERITANCE_RULE[fragment][0]
        chain = [Triple(EX[f"C{i}"], RDFS.subClassOf, EX[f"C{i + 1}"]) for i in range(n - 1)]
        # ``x`` already exists, so the typing commit adds no other
        # type triple (rdfs4a's <x type Resource>) for the rule to read.
        with Slider(fragment=fragment, timeout=None, **execution) as reasoner:
            reasoner.apply(Delta(assertions=chain + [Triple(EX.x, EX.seen, EX.y)]))
            k = ancestors(reasoner, EX.C0, RDFS.subClassOf)
            counts = commit_counters(
                reasoner, rule, Delta(assertions=[Triple(EX.x, RDF.type, EX.C0)])
            )
            assert counts == {"executions": 1, "consumed": 1, "derived": k}
            if fragment != "rdfs-full":
                assert k == n - 1
            assert Triple(EX.x, RDF.type, EX[f"C{n - 1}"]) in reasoner.graph

    def test_property_at_depth_k(self, fragment, n, execution):
        rule = INHERITANCE_RULE[fragment][1]
        chain = [
            Triple(EX[f"p{i}"], RDFS.subPropertyOf, EX[f"p{i + 1}"]) for i in range(n - 1)
        ]
        with Slider(fragment=fragment, timeout=None, **execution) as reasoner:
            reasoner.apply(Delta(assertions=chain + [Triple(EX.x, EX.seen, EX.y)]))
            k = ancestors(reasoner, EX.p0, RDFS.subPropertyOf)
            counts = commit_counters(
                reasoner, rule, Delta(assertions=[Triple(EX.x, EX.p0, EX.y)])
            )
            assert counts == {"executions": 1, "consumed": 1, "derived": k}
            if fragment != "rdfs-full":
                assert k == n - 1
            assert Triple(EX.x, EX[f"p{n - 1}"], EX.y) in reasoner.graph


@pytest.mark.parametrize("instances", [1, 40])
def test_cost_is_independent_of_store_size(instances):
    """The same typing commit costs the same on a chain that already
    types ``instances`` other individuals."""
    chain = [Triple(EX[f"C{i}"], RDFS.subClassOf, EX[f"C{i + 1}"]) for i in range(19)]
    others = [Triple(EX[f"i{j}"], RDF.type, EX.C0) for j in range(instances)]
    with Slider(fragment="rdfs", workers=0, timeout=None) as reasoner:
        reasoner.apply(Delta(assertions=chain + others + [Triple(EX.x, EX.seen, EX.y)]))
        counts = commit_counters(
            reasoner, "rdfs9", Delta(assertions=[Triple(EX.x, RDF.type, EX.C0)])
        )
    assert counts == {"executions": 1, "consumed": 1, "derived": 19}


@each_execution_mode
def test_meta_edge_conclusions_still_re_enter(execution):
    """A subPropertyOf triple rdfs7 derives through the meta-edge
    ``(p subPropertyOf subPropertyOf)`` is an edge rdfs7 must still join."""
    triples = [
        Triple(EX.broader, RDFS.subPropertyOf, RDFS.subPropertyOf),
        Triple(EX.a, EX.broader, EX.b),
        Triple(EX.x, EX.a, EX.y),
    ]
    with Slider(fragment="rdfs", timeout=None, **execution) as reasoner:
        reasoner.apply(Delta(assertions=triples))
        assert Triple(EX.a, RDFS.subPropertyOf, EX.b) in reasoner.graph
        assert Triple(EX.x, EX.b, EX.y) in reasoner.graph
