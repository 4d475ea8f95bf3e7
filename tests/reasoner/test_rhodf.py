"""Semantics tests: each ρdf rule derives exactly what it should."""


from repro.rdf import RDF, RDFS, Literal, Triple
from repro.reasoner.fragments import get_fragment

from ..conftest import EX, closure_with_slider


def rhodf_closure(triples) -> set[Triple]:
    return closure_with_slider(triples, "rhodf")


class TestCaxSco:
    def test_type_lifted_through_subclass(self):
        closure = rhodf_closure(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                Triple(EX.tom, RDF.type, EX.Cat),
            ]
        )
        assert Triple(EX.tom, RDF.type, EX.Animal) in closure

    def test_order_of_arrival_irrelevant(self):
        closure = rhodf_closure(
            [
                Triple(EX.tom, RDF.type, EX.Cat),
                Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
            ]
        )
        assert Triple(EX.tom, RDF.type, EX.Animal) in closure

    def test_no_unrelated_typing(self):
        closure = rhodf_closure(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                Triple(EX.rex, RDF.type, EX.Dog),
            ]
        )
        assert Triple(EX.rex, RDF.type, EX.Animal) not in closure


class TestScmSco:
    def test_transitivity(self):
        closure = rhodf_closure(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Feline),
                Triple(EX.Feline, RDFS.subClassOf, EX.Animal),
            ]
        )
        assert Triple(EX.Cat, RDFS.subClassOf, EX.Animal) in closure

    def test_chain_closure_is_quadratic(self):
        n = 12
        chain = [
            Triple(EX[f"C{i}"], RDFS.subClassOf, EX[f"C{i - 1}"])
            for i in range(2, n + 1)
        ]
        closure = rhodf_closure(chain)
        sco_triples = {t for t in closure if t.predicate == RDFS.subClassOf}
        assert len(sco_triples) == n * (n - 1) // 2  # all strict pairs

    def test_cycle_is_safe(self):
        closure = rhodf_closure(
            [
                Triple(EX.A, RDFS.subClassOf, EX.B),
                Triple(EX.B, RDFS.subClassOf, EX.A),
            ]
        )
        # Terminates and derives the reflexive pairs via the cycle.
        assert Triple(EX.A, RDFS.subClassOf, EX.A) in closure
        assert Triple(EX.B, RDFS.subClassOf, EX.B) in closure


class TestScmSpo:
    def test_transitivity(self):
        closure = rhodf_closure(
            [
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
                Triple(EX.keeps, RDFS.subPropertyOf, EX.interactsWith),
            ]
        )
        assert Triple(EX.hasPet, RDFS.subPropertyOf, EX.interactsWith) in closure


class TestPrpSpo1:
    def test_property_inheritance(self):
        closure = rhodf_closure(
            [
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.alice, EX.keeps, EX.tom) in closure

    def test_literal_object_preserved(self):
        closure = rhodf_closure(
            [
                Triple(EX.nick, RDFS.subPropertyOf, EX.label),
                Triple(EX.alice, EX.nick, Literal("Ali")),
            ]
        )
        assert Triple(EX.alice, EX.label, Literal("Ali")) in closure

    def test_inheritance_through_derived_subproperty(self):
        closure = rhodf_closure(
            [
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
                Triple(EX.keeps, RDFS.subPropertyOf, EX.interactsWith),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        # Needs the scm-spo output to feed prp-spo1 (dependency edge).
        assert Triple(EX.alice, EX.interactsWith, EX.tom) in closure


class TestPrpDom:
    def test_domain_typing(self):
        closure = rhodf_closure(
            [
                Triple(EX.hasPet, RDFS.domain, EX.Person),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.alice, RDF.type, EX.Person) in closure

    def test_schema_after_data(self):
        closure = rhodf_closure(
            [
                Triple(EX.alice, EX.hasPet, EX.tom),
                Triple(EX.hasPet, RDFS.domain, EX.Person),
            ]
        )
        assert Triple(EX.alice, RDF.type, EX.Person) in closure


class TestPrpRng:
    def test_range_typing(self):
        closure = rhodf_closure(
            [
                Triple(EX.hasPet, RDFS.range, EX.Animal),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.tom, RDF.type, EX.Animal) in closure

    def test_literal_object_not_typed(self):
        closure = rhodf_closure(
            [
                Triple(EX.age, RDFS.range, EX.Number),
                Triple(EX.alice, EX.age, Literal("42")),
            ]
        )
        assert not any(
            t.predicate == RDF.type and t.object == EX.Number for t in closure
        )


class TestScmDom2:
    def test_domain_inherited_by_subproperty(self):
        closure = rhodf_closure(
            [
                Triple(EX.keeps, RDFS.domain, EX.Person),
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
            ]
        )
        assert Triple(EX.hasPet, RDFS.domain, EX.Person) in closure

    def test_then_types_data(self):
        closure = rhodf_closure(
            [
                Triple(EX.keeps, RDFS.domain, EX.Person),
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.alice, RDF.type, EX.Person) in closure


class TestScmRng2:
    def test_range_inherited_by_subproperty(self):
        closure = rhodf_closure(
            [
                Triple(EX.keeps, RDFS.range, EX.Animal),
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
            ]
        )
        assert Triple(EX.hasPet, RDFS.range, EX.Animal) in closure


class TestFragmentShape:
    def test_has_exactly_eight_rules(self):
        from repro.dictionary import TermDictionary
        from repro.reasoner import Vocabulary

        rules = get_fragment("rhodf").rules(Vocabulary(TermDictionary()))
        assert len(rules) == 8
        assert {r.name for r in rules} == {
            "prp-dom", "prp-rng", "prp-spo1", "cax-sco",
            "scm-sco", "scm-spo", "scm-dom2", "scm-rng2",
        }

    def test_no_axioms(self):
        assert get_fragment("rhodf").axioms() == []

    def test_paper_example_cax_sco(self):
        """The paper's §1 running example."""
        closure = rhodf_closure(
            [
                Triple(EX.X, RDFS.subClassOf, EX.Y),
                Triple(EX.Y, RDFS.subClassOf, EX.Z),
            ]
        )
        assert Triple(EX.X, RDFS.subClassOf, EX.Z) in closure
