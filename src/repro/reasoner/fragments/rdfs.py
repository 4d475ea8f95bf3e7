"""The RDFS fragment: the standard rdfs2–rdfs13 entailment rules.

Two variants are provided, mirroring how deployed reasoners (including
the OWLIM rulesets the paper benchmarks against) trim the RDF Semantics
rule table:

* ``rdfs`` — the *practical* ruleset: rdfs2, rdfs3, rdfs4a, rdfs4b,
  rdfs5, rdfs7, rdfs9, rdfs11, rdfs12, rdfs13.  It omits the reflexive
  subClassOf/subPropertyOf rules (rdfs6, rdfs8, rdfs10) whose conclusions
  are tautological for query answering, and rdfs1 (literal
  generalization), which allocates blank nodes.  This matches the shape
  of the paper's Table 1: the RDFS-minus-ρdf surplus on the subClassOf_n
  chains is ≈ n (one ``<x type Resource>`` per resource), not ≈ 3n.
* ``rdfs-full`` — additionally rdfs6, rdfs8, rdfs10 and the RDF/RDFS
  axiomatic triples, for users who want the full RDF Semantics closure.

All of ρdf is subsumed: rdfs2/3/7/9/5/11 are prp-dom/prp-rng/prp-spo1/
cax-sco/scm-spo/scm-sco; scm-dom2/scm-rng2 are entailed by rdfs7 only
indirectly, so they are kept explicitly for parity with the ρdf closure.
"""

from __future__ import annotations

from ...rdf.namespaces import RDF, RDFS
from ...rdf.terms import Triple
from ..rules import JoinRule, Pattern, Rule, SingleRule, Var
from ..vocabulary import Vocabulary

__all__ = ["build_rules", "build_full_rules", "axiomatic_triples"]


def build_rules(vocab: Vocabulary) -> list[Rule]:
    """The practical RDFS ruleset (see module docstring)."""
    x, y = Var("x"), Var("y")
    c, d, e = Var("c"), Var("d"), Var("e")
    p, q, r = Var("p"), Var("q"), Var("r")

    return [
        JoinRule(
            "rdfs2",
            Pattern(p, vocab.domain, c),
            Pattern(x, p, y),
            head=Pattern(x, vocab.type, c),
        ),
        JoinRule(
            "rdfs3",
            Pattern(p, vocab.range, c),
            Pattern(x, p, y),
            head=Pattern(y, vocab.type, c),
        ),
        SingleRule(
            "rdfs4a",
            Pattern(x, p, y),
            head=Pattern(x, vocab.type, vocab.resource),
        ),
        SingleRule(
            "rdfs4b",
            Pattern(x, p, y),
            head=Pattern(y, vocab.type, vocab.resource),
        ),
        JoinRule(
            "rdfs5",
            Pattern(p, vocab.sub_property_of, q),
            Pattern(q, vocab.sub_property_of, r),
            head=Pattern(p, vocab.sub_property_of, r),
        ),
        JoinRule(
            "rdfs7",
            Pattern(p, vocab.sub_property_of, q),
            Pattern(x, p, y),
            head=Pattern(x, q, y),
        ),
        JoinRule(
            "rdfs9",
            Pattern(c, vocab.sub_class_of, d),
            Pattern(x, vocab.type, c),
            head=Pattern(x, vocab.type, d),
        ),
        JoinRule(
            "rdfs11",
            Pattern(c, vocab.sub_class_of, d),
            Pattern(d, vocab.sub_class_of, e),
            head=Pattern(c, vocab.sub_class_of, e),
        ),
        SingleRule(
            "rdfs12",
            Pattern(p, vocab.type, vocab.container_membership_property),
            head=Pattern(p, vocab.sub_property_of, vocab.member),
        ),
        SingleRule(
            "rdfs13",
            Pattern(c, vocab.type, vocab.datatype),
            head=Pattern(c, vocab.sub_class_of, vocab.literal),
        ),
        JoinRule(
            "scm-dom2",
            Pattern(q, vocab.domain, c),
            Pattern(p, vocab.sub_property_of, q),
            head=Pattern(p, vocab.domain, c),
        ),
        JoinRule(
            "scm-rng2",
            Pattern(q, vocab.range, c),
            Pattern(p, vocab.sub_property_of, q),
            head=Pattern(p, vocab.range, c),
        ),
    ]


def build_full_rules(vocab: Vocabulary) -> list[Rule]:
    """The practical ruleset plus the reflexive/axiomatic rules."""
    c = Var("c")
    p = Var("p")
    rules = build_rules(vocab)
    rules.extend(
        [
            SingleRule(
                "rdfs6",
                Pattern(p, vocab.type, vocab.property),
                head=Pattern(p, vocab.sub_property_of, p),
            ),
            SingleRule(
                "rdfs8",
                Pattern(c, vocab.type, vocab.class_),
                head=Pattern(c, vocab.sub_class_of, vocab.resource),
            ),
            SingleRule(
                "rdfs10",
                Pattern(c, vocab.type, vocab.class_),
                head=Pattern(c, vocab.sub_class_of, c),
            ),
        ]
    )
    return rules


def axiomatic_triples() -> list[Triple]:
    """The RDF/RDFS axiomatic triples that seed the ``rdfs-full`` closure.

    A pragmatic subset of the RDF Semantics axiomatic set: the typing of
    the RDFS vocabulary itself, plus the domain/range declarations of the
    core properties.  (The infinite rdf:_n container-membership family is
    represented by rdfs:member alone.)
    """
    return [
        Triple(RDF.type, RDF.type, RDF.Property),
        Triple(RDFS.subClassOf, RDF.type, RDF.Property),
        Triple(RDFS.subPropertyOf, RDF.type, RDF.Property),
        Triple(RDFS.domain, RDF.type, RDF.Property),
        Triple(RDFS.range, RDF.type, RDF.Property),
        Triple(RDFS.member, RDF.type, RDF.Property),
        Triple(RDFS.Resource, RDF.type, RDFS.Class),
        Triple(RDFS.Class, RDF.type, RDFS.Class),
        Triple(RDFS.Literal, RDF.type, RDFS.Class),
        Triple(RDFS.Datatype, RDF.type, RDFS.Class),
        Triple(RDF.Property, RDF.type, RDFS.Class),
        Triple(RDF.type, RDFS.domain, RDFS.Resource),
        Triple(RDF.type, RDFS.range, RDFS.Class),
        Triple(RDFS.domain, RDFS.domain, RDF.Property),
        Triple(RDFS.domain, RDFS.range, RDFS.Class),
        Triple(RDFS.range, RDFS.domain, RDF.Property),
        Triple(RDFS.range, RDFS.range, RDFS.Class),
        Triple(RDFS.subClassOf, RDFS.domain, RDFS.Class),
        Triple(RDFS.subClassOf, RDFS.range, RDFS.Class),
        Triple(RDFS.subPropertyOf, RDFS.domain, RDF.Property),
        Triple(RDFS.subPropertyOf, RDFS.range, RDF.Property),
    ]
