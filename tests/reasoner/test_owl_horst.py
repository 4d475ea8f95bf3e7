"""Semantics tests for the OWL-Horst extension fragment."""

from repro.rdf import OWL, RDF, RDFS, Triple
from repro.reasoner.fragments import get_fragment

from ..conftest import EX, closure_with_slider


def horst_closure(triples) -> set[Triple]:
    # Materialized once per registered store backend; results asserted
    # identical before one is returned (backend-equivalence coverage).
    return closure_with_slider(triples, "owl-horst")


class TestTransitivity:
    def test_declared_then_data(self):
        closure = horst_closure(
            [
                Triple(EX.ancestorOf, RDF.type, OWL.TransitiveProperty),
                Triple(EX.a, EX.ancestorOf, EX.b),
                Triple(EX.b, EX.ancestorOf, EX.c),
            ]
        )
        assert Triple(EX.a, EX.ancestorOf, EX.c) in closure

    def test_data_then_declared(self):
        """Data triples that predate the declaration are re-joined."""
        closure = horst_closure(
            [
                Triple(EX.a, EX.ancestorOf, EX.b),
                Triple(EX.b, EX.ancestorOf, EX.c),
                Triple(EX.ancestorOf, RDF.type, OWL.TransitiveProperty),
            ]
        )
        assert Triple(EX.a, EX.ancestorOf, EX.c) in closure

    def test_deep_chain_fully_closed(self):
        triples = [Triple(EX.anc, RDF.type, OWL.TransitiveProperty)]
        n = 8
        triples += [
            Triple(EX[f"x{i}"], EX.anc, EX[f"x{i + 1}"]) for i in range(n)
        ]
        closure = horst_closure(triples)
        assert Triple(EX.x0, EX.anc, EX[f"x{n}"]) in closure
        anc_triples = [t for t in closure if t.predicate == EX.anc]
        assert len(anc_triples) == (n + 1) * n // 2

    def test_non_transitive_property_untouched(self):
        closure = horst_closure(
            [
                Triple(EX.a, EX.knows, EX.b),
                Triple(EX.b, EX.knows, EX.c),
            ]
        )
        assert Triple(EX.a, EX.knows, EX.c) not in closure


class TestSymmetry:
    def test_symmetric_property(self):
        closure = horst_closure(
            [
                Triple(EX.marriedTo, RDF.type, OWL.SymmetricProperty),
                Triple(EX.a, EX.marriedTo, EX.b),
            ]
        )
        assert Triple(EX.b, EX.marriedTo, EX.a) in closure


class TestInverse:
    def test_inverse_forward(self):
        closure = horst_closure(
            [
                Triple(EX.owns, OWL.inverseOf, EX.ownedBy),
                Triple(EX.alice, EX.owns, EX.car),
            ]
        )
        assert Triple(EX.car, EX.ownedBy, EX.alice) in closure

    def test_inverse_backward(self):
        closure = horst_closure(
            [
                Triple(EX.owns, OWL.inverseOf, EX.ownedBy),
                Triple(EX.car, EX.ownedBy, EX.alice),
            ]
        )
        assert Triple(EX.alice, EX.owns, EX.car) in closure


class TestSameAs:
    def test_symmetry(self):
        closure = horst_closure([Triple(EX.a, OWL.sameAs, EX.b)])
        assert Triple(EX.b, OWL.sameAs, EX.a) in closure

    def test_transitivity(self):
        closure = horst_closure(
            [
                Triple(EX.a, OWL.sameAs, EX.b),
                Triple(EX.b, OWL.sameAs, EX.c),
            ]
        )
        assert Triple(EX.a, OWL.sameAs, EX.c) in closure

    def test_subject_replacement(self):
        closure = horst_closure(
            [
                Triple(EX.a, OWL.sameAs, EX.b),
                Triple(EX.a, EX.likes, EX.pizza),
            ]
        )
        assert Triple(EX.b, EX.likes, EX.pizza) in closure

    def test_object_replacement(self):
        closure = horst_closure(
            [
                Triple(EX.a, OWL.sameAs, EX.b),
                Triple(EX.carol, EX.knows, EX.a),
            ]
        )
        assert Triple(EX.carol, EX.knows, EX.b) in closure


class TestEquivalence:
    def test_equivalent_class_both_directions(self):
        closure = horst_closure([Triple(EX.Human, OWL.equivalentClass, EX.Person)])
        assert Triple(EX.Human, RDFS.subClassOf, EX.Person) in closure
        assert Triple(EX.Person, RDFS.subClassOf, EX.Human) in closure

    def test_equivalent_class_types_instances(self):
        closure = horst_closure(
            [
                Triple(EX.Human, OWL.equivalentClass, EX.Person),
                Triple(EX.alice, RDF.type, EX.Human),
            ]
        )
        assert Triple(EX.alice, RDF.type, EX.Person) in closure

    def test_equivalent_property(self):
        closure = horst_closure(
            [
                Triple(EX.title, OWL.equivalentProperty, EX.name),
                Triple(EX.book, EX.title, EX.something),
            ]
        )
        assert Triple(EX.book, EX.name, EX.something) in closure


class TestFragmentShape:
    def test_includes_rdfs(self):
        """The extension keeps full RDFS reasoning (paper: 'more complex
        fragments' extend, not replace)."""
        closure = horst_closure(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                Triple(EX.tom, RDF.type, EX.Cat),
            ]
        )
        assert Triple(EX.tom, RDF.type, EX.Animal) in closure

    def test_rule_count(self):
        from repro.dictionary import TermDictionary
        from repro.reasoner import Vocabulary

        rules = get_fragment("owl-horst").rules(Vocabulary(TermDictionary()))
        assert len(rules) == 24  # 12 RDFS + 12 Horst rules

    def test_fresh_rule_state_per_build(self):
        """rules() returns fresh instances (custom rules may carry state)."""
        from repro.dictionary import TermDictionary
        from repro.reasoner import Vocabulary

        fragment = get_fragment("owl-horst")
        vocab = Vocabulary(TermDictionary())
        first = fragment.rules(vocab)
        second = fragment.rules(vocab)
        assert {id(r) for r in first}.isdisjoint({id(r) for r in second})
