"""Tests for DRed retraction: delete-and-rederive correctness."""

import os
import threading
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from repro import Delta
from repro.rdf import OWL, RDF, RDFS, Triple
from repro.reasoner import Slider
from repro.store import HashDictStore

from ..conftest import EX, closure_with_slider, each_execution_mode, make_chain


def fresh(**kwargs) -> Slider:
    options = {"fragment": "rhodf", "workers": 0, "timeout": None, "buffer_size": 8}
    options.update(kwargs)
    return Slider(**options)


class TestBasicRetraction:
    def test_retract_explicit_triple(self):
        with fresh() as r:
            triple = Triple(EX.a, RDFS.subClassOf, EX.b)
            r.materialize([triple])
            r.retract(triple)
            assert triple not in r.graph
            assert len(r) == 0
            assert r.input_count == 0

    def test_consequences_removed(self):
        with fresh() as r:
            r.materialize(
                [
                    Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                    Triple(EX.tom, RDF.type, EX.Cat),
                ]
            )
            assert Triple(EX.tom, RDF.type, EX.Animal) in r.graph
            r.retract(Triple(EX.tom, RDF.type, EX.Cat))
            assert Triple(EX.tom, RDF.type, EX.Animal) not in r.graph
            assert Triple(EX.Cat, RDFS.subClassOf, EX.Animal) in r.graph

    def test_alternative_support_survives(self):
        """A consequence derivable two ways survives losing one."""
        with fresh() as r:
            r.materialize(
                [
                    Triple(EX.tom, RDF.type, EX.Cat),
                    Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                    Triple(EX.tom, RDF.type, EX.Pet),
                    Triple(EX.Pet, RDFS.subClassOf, EX.Animal),
                ]
            )
            r.retract(Triple(EX.tom, RDF.type, EX.Cat))
            # tom is still an Animal via Pet.
            assert Triple(EX.tom, RDF.type, EX.Animal) in r.graph

    def test_explicit_assertion_immune_to_overdelete(self):
        """An asserted triple survives retraction of a rule derivation
        that also produces it."""
        with fresh() as r:
            r.materialize(
                [
                    Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                    Triple(EX.tom, RDF.type, EX.Cat),
                    Triple(EX.tom, RDF.type, EX.Animal),  # ALSO asserted
                ]
            )
            r.retract(Triple(EX.tom, RDF.type, EX.Cat))
            assert Triple(EX.tom, RDF.type, EX.Animal) in r.graph

    def test_retract_absent_triple_is_noop(self):
        with fresh() as r:
            r.materialize(make_chain(5))
            size = len(r)
            assert r.retract(Triple(EX.never, EX.was, EX.there)) == 0
            assert len(r) == size

    def test_retract_middle_of_chain(self):
        with fresh() as r:
            r.materialize(make_chain(10))  # C2 ⊑ C1, ..., C10 ⊑ C9
            r.retract(Triple(EX.C6, RDFS.subClassOf, EX.C5))
            # Everything crossing the cut is gone ...
            assert Triple(EX.C10, RDFS.subClassOf, EX.C1) not in r.graph
            assert Triple(EX.C6, RDFS.subClassOf, EX.C5) not in r.graph
            # ... both sides of the cut survive intact.
            assert Triple(EX.C5, RDFS.subClassOf, EX.C1) in r.graph
            assert Triple(EX.C10, RDFS.subClassOf, EX.C6) in r.graph

    def test_add_after_retract(self):
        with fresh() as r:
            link = Triple(EX.C6, RDFS.subClassOf, EX.C5)
            r.materialize(make_chain(10))
            full = set(r.graph)
            r.retract(link)
            r.materialize([link])
            assert set(r.graph) == full

    def test_counts_reflect_retraction(self):
        with fresh() as r:
            r.materialize(make_chain(8))
            r.retract(Triple(EX.C8, RDFS.subClassOf, EX.C7))
            assert r.input_count == 6
            assert r.inferred_count == 7 * 6 // 2 - 6
            assert len(r) == r.input_count + r.inferred_count


class TestAgainstRecomputation:
    """The gold standard: retract(B) ≡ closure(A \\ B) from scratch."""

    @pytest.mark.parametrize("fragment", ["rhodf", "rdfs"])
    def test_chain_cut_equals_recomputation(self, fragment):
        chain = make_chain(12)
        removed = [chain[4], chain[9]]
        with fresh(fragment=fragment) as r:
            r.materialize(chain)
            r.retract(removed)
            incremental = set(r.graph)
        remaining = [t for t in chain if t not in removed]
        assert incremental == closure_with_slider(remaining, fragment)

    def test_retract_everything(self):
        ontology = make_chain(8)
        with fresh() as r:
            r.materialize(ontology)
            r.retract(ontology)
            assert len(r) == 0


#: Store reads a support check may make, and how many rows each call
#: hands back: a list's length, one answer per existence probe.
READ_ROWS = {
    "match": len,
    "objects": len,
    "subjects": len,
    "has_match": lambda found: 1,
}


class TestSupportCheckCostIsScaleFree:
    """Retracting one member's type over-deletes ``C type Resource``,
    whose rdfs4b support is any ``(?x ?p C)``.  Answering that reads
    the same rows whether ``C`` has 100 members or 10 000."""

    @staticmethod
    def rows_read(members: int, execution: dict) -> Counter:
        typed = [Triple(EX[f"m{n}"], RDF.type, EX.C) for n in range(members)]
        rows: Counter = Counter()
        guard = threading.Lock()
        with fresh(fragment="rdfs", **execution) as r, pytest.MonkeyPatch.context() as patch:
            r.materialize(typed)
            for method, size in READ_ROWS.items():
                real = getattr(HashDictStore, method, None)
                if real is None:  # a store without has_match: count the rest
                    continue

                def counting(*args, _real=real, _method=method, _size=size, **kwargs):
                    result = _real(*args, **kwargs)
                    with guard:
                        rows[_method] += _size(result)
                    return result

                patch.setattr(HashDictStore, method, counting)
            report = r.apply(Delta(retractions=[typed[0]]))
            assert Triple(EX.C, RDF.type, RDFS.Resource) in r.graph
        assert report.removed_count
        return rows

    @each_execution_mode
    def test_same_rows_read_at_100_and_10000_members(self, execution):
        small = self.rows_read(100, execution)
        large = self.rows_read(10_000, execution)
        assert small == large
        assert small["has_match"] > 0  # the support check probed


class TestTransitivityDeclarations:
    """prp-trp keeps no registry: the declaration is ordinary body data."""

    DECLARATION = Triple(EX.anc, RDF.type, OWL.TransitiveProperty)

    @each_execution_mode
    def test_retracting_the_declaration_retracts_its_closure(self, execution):
        with fresh(fragment="owl-horst", **execution) as r:
            r.apply(Delta([
                self.DECLARATION,
                Triple(EX.a, EX.anc, EX.b),
                Triple(EX.b, EX.anc, EX.c),
            ]))
            assert Triple(EX.a, EX.anc, EX.c) in r.graph
            r.apply(Delta(retractions=[self.DECLARATION]))
            assert Triple(EX.a, EX.anc, EX.c) not in r.graph
            # ... and the rule stops deriving: nothing declares anc now.
            r.apply(Delta([Triple(EX.c, EX.anc, EX.d)]))
            assert Triple(EX.a, EX.anc, EX.d) not in r.graph
            assert Triple(EX.b, EX.anc, EX.d) not in r.graph
            assert set(r.graph) == closure_with_slider(
                [
                    Triple(EX.a, EX.anc, EX.b),
                    Triple(EX.b, EX.anc, EX.c),
                    Triple(EX.c, EX.anc, EX.d),
                ],
                "owl-horst",
            )

    def test_inferred_edge_with_a_second_path_survives(self):
        """a anc c is derivable through b and through d; cutting one
        path leaves it supported — the probe must require the other."""
        with fresh(fragment="owl-horst") as r:
            r.apply(Delta([
                self.DECLARATION,
                Triple(EX.a, EX.anc, EX.b), Triple(EX.b, EX.anc, EX.c),
                Triple(EX.a, EX.anc, EX.d), Triple(EX.d, EX.anc, EX.c),
            ]))
            r.apply(Delta(retractions=[Triple(EX.a, EX.anc, EX.b)]))
            assert Triple(EX.a, EX.anc, EX.c) in r.graph
            r.apply(Delta(retractions=[Triple(EX.d, EX.anc, EX.c)]))
            assert Triple(EX.a, EX.anc, EX.c) not in r.graph

    def test_redeclaring_closes_the_property_again(self):
        with fresh(fragment="owl-horst") as r:
            edges = [Triple(EX.a, EX.anc, EX.b), Triple(EX.b, EX.anc, EX.c)]
            r.apply(Delta([self.DECLARATION] + edges))
            r.apply(Delta(retractions=[self.DECLARATION]))
            r.apply(Delta([self.DECLARATION]))
            assert Triple(EX.a, EX.anc, EX.c) in r.graph


# --- property tests ------------------------------------------------------------
# materialize(A); retract(B) ≡ closure(A \ B), on every fragment.
# The OWL-Horst cell draws transitivity/symmetry declarations, inverseOf and
# sameAs — and retracts them like any other triple.

_nodes = st.integers(min_value=0, max_value=8).map(lambda i: EX[f"n{i}"])
_rdfs_triples = st.builds(
    Triple,
    _nodes,
    st.sampled_from(
        [RDFS.subClassOf, RDFS.subPropertyOf, RDFS.domain, RDFS.range, RDF.type, EX.knows]
    ),
    _nodes,
)
_properties = st.sampled_from([EX.knows, EX.near, EX.n1, EX.n2])
_owl_triples = st.one_of(
    st.builds(
        Triple,
        _properties,
        st.just(RDF.type),
        st.sampled_from([OWL.TransitiveProperty, OWL.SymmetricProperty]),
    ),
    st.builds(Triple, _properties, st.just(OWL.inverseOf), _properties),
    st.builds(Triple, _nodes, st.just(OWL.sameAs), _nodes),
    st.builds(Triple, _nodes, _properties, _nodes),
)
_ONTOLOGIES = {
    "rhodf": st.lists(_rdfs_triples, min_size=1, max_size=30),
    "rdfs": st.lists(_rdfs_triples, min_size=1, max_size=30),
    "owl-horst": st.lists(st.one_of(_rdfs_triples, _owl_triples), min_size=1, max_size=24),
}


# CI replays one pinned Hypothesis run on every push (same variable as the
# differential harness), on top of the free-running one.
_pinned = os.environ.get("SLIDER_DIFF_SEED")
_replay = seed(int(_pinned)) if _pinned else (lambda test: test)


@each_execution_mode
@pytest.mark.parametrize("fragment", sorted(_ONTOLOGIES))
@_replay
@given(st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dred_equals_recomputation(execution, fragment, data):
    triples = data.draw(_ONTOLOGIES[fragment])
    removed = data.draw(st.lists(st.sampled_from(triples), max_size=6))
    with fresh(fragment=fragment, **execution) as r:
        r.materialize(triples)
        r.retract(removed)
        incremental = set(r.graph)
    remaining = [t for t in triples if t not in set(removed)]
    assert incremental == closure_with_slider(remaining, fragment)
