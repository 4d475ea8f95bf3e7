"""Semantics tests for the RDFS fragments (practical and full)."""

from repro.rdf import RDF, RDFS, Literal, Triple
from repro.reasoner.fragments import get_fragment
from repro.reasoner.fragments.rdfs import axiomatic_triples

from ..conftest import EX, closure_with_slider


def rdfs_closure(triples) -> set[Triple]:
    return closure_with_slider(triples, "rdfs")


def rdfs_full_closure(triples) -> set[Triple]:
    return closure_with_slider(triples, "rdfs-full")


class TestRdfs2Domain:
    def test_domain_typing(self):
        closure = rdfs_closure(
            [
                Triple(EX.hasPet, RDFS.domain, EX.Person),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.alice, RDF.type, EX.Person) in closure


class TestRdfs3Range:
    def test_range_typing(self):
        closure = rdfs_closure(
            [
                Triple(EX.hasPet, RDFS.range, EX.Animal),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.tom, RDF.type, EX.Animal) in closure

    def test_literals_never_typed(self):
        closure = rdfs_closure(
            [
                Triple(EX.age, RDFS.range, EX.Number),
                Triple(EX.alice, EX.age, Literal("42")),
            ]
        )
        assert all(
            not isinstance(t.subject, Literal) for t in closure
        )


class TestRdfs4Resource:
    def test_subject_typed_resource(self):
        closure = rdfs_closure([Triple(EX.a, EX.p, EX.b)])
        assert Triple(EX.a, RDF.type, RDFS.Resource) in closure

    def test_iri_object_typed_resource(self):
        closure = rdfs_closure([Triple(EX.a, EX.p, EX.b)])
        assert Triple(EX.b, RDF.type, RDFS.Resource) in closure

    def test_literal_object_not_typed(self):
        closure = rdfs_closure([Triple(EX.a, EX.p, Literal("x"))])
        assert not any(isinstance(t.subject, Literal) for t in closure)
        # the literal never becomes a Resource subject
        resource_typed = {t.subject for t in closure if t.object == RDFS.Resource}
        assert resource_typed == {EX.a, RDFS.Resource}


class TestRdfs5And7Properties:
    def test_subproperty_transitivity(self):
        closure = rdfs_closure(
            [
                Triple(EX.a, RDFS.subPropertyOf, EX.b),
                Triple(EX.b, RDFS.subPropertyOf, EX.c),
            ]
        )
        assert Triple(EX.a, RDFS.subPropertyOf, EX.c) in closure

    def test_property_inheritance(self):
        closure = rdfs_closure(
            [
                Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
                Triple(EX.alice, EX.hasPet, EX.tom),
            ]
        )
        assert Triple(EX.alice, EX.keeps, EX.tom) in closure


class TestRdfs9And11Classes:
    def test_type_lifting(self):
        closure = rdfs_closure(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                Triple(EX.tom, RDF.type, EX.Cat),
            ]
        )
        assert Triple(EX.tom, RDF.type, EX.Animal) in closure

    def test_subclass_transitivity(self):
        closure = rdfs_closure(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Feline),
                Triple(EX.Feline, RDFS.subClassOf, EX.Animal),
            ]
        )
        assert Triple(EX.Cat, RDFS.subClassOf, EX.Animal) in closure


class TestRdfs12Member:
    def test_container_membership_property(self):
        closure = rdfs_closure(
            [Triple(EX.item1, RDF.type, RDFS.ContainerMembershipProperty)]
        )
        assert Triple(EX.item1, RDFS.subPropertyOf, RDFS.member) in closure


class TestRdfs13Datatype:
    def test_datatype_subclass_of_literal(self):
        closure = rdfs_closure([Triple(EX.MyType, RDF.type, RDFS.Datatype)])
        assert Triple(EX.MyType, RDFS.subClassOf, RDFS.Literal) in closure


class TestPracticalOmissions:
    def test_no_reflexive_subclassof(self):
        closure = rdfs_closure([Triple(EX.C, RDF.type, RDFS.Class)])
        assert Triple(EX.C, RDFS.subClassOf, EX.C) not in closure

    def test_no_reflexive_subpropertyof(self):
        closure = rdfs_closure([Triple(EX.p, RDF.type, RDF.Property)])
        assert Triple(EX.p, RDFS.subPropertyOf, EX.p) not in closure

    def test_chain_surplus_is_linear(self):
        """Table 1 shape: RDFS adds ~n triples over the ρdf closure."""
        n = 10
        triples = [Triple(EX.C1, RDF.type, RDFS.Class)]
        for i in range(2, n + 1):
            triples.append(Triple(EX[f"C{i}"], RDF.type, RDFS.Class))
            triples.append(Triple(EX[f"C{i}"], RDFS.subClassOf, EX[f"C{i - 1}"]))
        rdfs = rdfs_closure(triples)
        rhodf = closure_with_slider(triples, "rhodf")
        surplus = len(rdfs) - len(rhodf)
        # n classes + RDFS.Class + RDFS.Resource typed as Resource
        assert surplus == n + 2


class TestFullVariant:
    def test_rdfs6_reflexive_subproperty(self):
        closure = rdfs_full_closure([Triple(EX.p, RDF.type, RDF.Property)])
        assert Triple(EX.p, RDFS.subPropertyOf, EX.p) in closure

    def test_rdfs8_class_subclass_resource(self):
        closure = rdfs_full_closure([Triple(EX.C, RDF.type, RDFS.Class)])
        assert Triple(EX.C, RDFS.subClassOf, RDFS.Resource) in closure

    def test_rdfs10_reflexive_subclass(self):
        closure = rdfs_full_closure([Triple(EX.C, RDF.type, RDFS.Class)])
        assert Triple(EX.C, RDFS.subClassOf, EX.C) in closure

    def test_axioms_seeded(self):
        closure = rdfs_full_closure([])
        assert Triple(RDF.type, RDF.type, RDF.Property) in closure

    def test_axiomatic_triples_are_well_formed(self):
        axioms = axiomatic_triples()
        assert len(axioms) == len(set(axioms))
        assert all(isinstance(t, Triple) for t in axioms)

    def test_full_contains_practical(self):
        triples = [
            Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
            Triple(EX.tom, RDF.type, EX.Cat),
            Triple(EX.hasPet, RDFS.domain, EX.Person),
            Triple(EX.alice, EX.hasPet, EX.tom),
        ]
        assert rdfs_closure(triples) <= rdfs_full_closure(triples)


class TestFragmentShape:
    def test_rule_names(self):
        from repro.dictionary import TermDictionary
        from repro.reasoner import Vocabulary

        rules = get_fragment("rdfs").rules(Vocabulary(TermDictionary()))
        names = {r.name for r in rules}
        assert "rdfs2" in names and "rdfs9" in names and "rdfs4a" in names
        assert "rdfs6" not in names  # practical variant

    def test_full_has_extra_rules(self):
        from repro.dictionary import TermDictionary
        from repro.reasoner import Vocabulary

        rules = get_fragment("rdfs-full").rules(Vocabulary(TermDictionary()))
        names = {r.name for r in rules}
        assert {"rdfs6", "rdfs8", "rdfs10"} <= names
