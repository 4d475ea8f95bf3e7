"""An OWL-Horst-style extension fragment (the paper's "future work").

The paper's conclusion plans "more complex inference rules, in order to
implement reasoning over a more complex fragment".  This module provides
that extension: the pD* (ter Horst) property-reasoning core layered on
top of RDFS — transitivity, symmetry, inverses, owl:sameAs equality and
equivalence of classes/properties.  All rules are the same
head-and-body pattern data the pipeline executes, which demonstrates
the fragment-agnostic claim: nothing in the engine changes.

Rules (names follow the OWL 2 RL profile tables where they exist):

=========  =========================================================
prp-trp    <p type TransitiveProperty> ∧ <x p y> ∧ <y p z> → <x p z>
prp-symp   <p type SymmetricProperty> ∧ <x p y> → <y p x>
prp-inv1   <p inverseOf q> ∧ <x p y> → <y q x>
prp-inv2   <p inverseOf q> ∧ <x q y> → <y p x>
eq-sym     <x sameAs y> → <y sameAs x>
eq-trans   <x sameAs y> ∧ <y sameAs z> → <x sameAs z>
eq-rep-s   <x sameAs y> ∧ <x p o> → <y p o>
eq-rep-o   <x sameAs y> ∧ <s p x> → <s p y>
scm-eqc1   <c1 equivalentClass c2> → <c1 subClassOf c2>
scm-eqc1i  <c1 equivalentClass c2> → <c2 subClassOf c1>
scm-eqp1   <p1 equivalentProperty p2> → <p1 subPropertyOf p2>
scm-eqp1i  <p1 equivalentProperty p2> → <p2 subPropertyOf p1>
=========  =========================================================

``prp-trp`` is the one rule with a *three*-pattern body.  Like every
other rule it is plain data, fired per body position: a data triple of a
declared property joins both ways against the store, and a declaration
joins its property with itself (its triples may predate the
declaration; on DRed's over-delete pass this is what enumerates the
consequences of a retracted declaration).  Which properties are
transitive is whatever the store says when the rule fires, so
retracting a declaration retracts its closure and a restored store
needs no re-priming.
"""

from __future__ import annotations

from ..rules import JoinRule, Pattern, Rule, SingleRule, Var
from ..vocabulary import Vocabulary
from . import rdfs as rdfs_fragment

__all__ = ["build_rules"]


def build_rules(vocab: Vocabulary) -> list[Rule]:
    """RDFS (practical) plus the OWL-Horst property/equality rules."""
    x, y, z = Var("x"), Var("y"), Var("z")
    s, o = Var("s"), Var("o")
    c1, c2 = Var("c1"), Var("c2")
    p, q = Var("p"), Var("q")
    p1, p2 = Var("p1"), Var("p2")

    rules: list[Rule] = rdfs_fragment.build_rules(vocab)
    rules.extend(
        [
            Rule(
                "prp-trp",
                head=Pattern(x, p, z),
                body=(
                    Pattern(p, vocab.type, vocab.transitive_property),
                    Pattern(x, p, y),
                    Pattern(y, p, z),
                ),
            ),
            JoinRule(
                "prp-symp",
                Pattern(p, vocab.type, vocab.symmetric_property),
                Pattern(x, p, y),
                head=Pattern(y, p, x),
            ),
            JoinRule(
                "prp-inv1",
                Pattern(p, vocab.inverse_of, q),
                Pattern(x, p, y),
                head=Pattern(y, q, x),
            ),
            JoinRule(
                "prp-inv2",
                Pattern(p, vocab.inverse_of, q),
                Pattern(x, q, y),
                head=Pattern(y, p, x),
            ),
            SingleRule(
                "eq-sym",
                Pattern(x, vocab.same_as, y),
                head=Pattern(y, vocab.same_as, x),
            ),
            JoinRule(
                "eq-trans",
                Pattern(x, vocab.same_as, y),
                Pattern(y, vocab.same_as, z),
                head=Pattern(x, vocab.same_as, z),
            ),
            JoinRule(
                "eq-rep-s",
                Pattern(x, vocab.same_as, y),
                Pattern(x, p, o),
                head=Pattern(y, p, o),
            ),
            JoinRule(
                "eq-rep-o",
                Pattern(x, vocab.same_as, y),
                Pattern(s, p, x),
                head=Pattern(s, p, y),
            ),
            SingleRule(
                "scm-eqc1",
                Pattern(c1, vocab.equivalent_class, c2),
                head=Pattern(c1, vocab.sub_class_of, c2),
            ),
            SingleRule(
                "scm-eqc1i",
                Pattern(c1, vocab.equivalent_class, c2),
                head=Pattern(c2, vocab.sub_class_of, c1),
            ),
            SingleRule(
                "scm-eqp1",
                Pattern(p1, vocab.equivalent_property, p2),
                head=Pattern(p1, vocab.sub_property_of, p2),
            ),
            SingleRule(
                "scm-eqp1i",
                Pattern(p1, vocab.equivalent_property, p2),
                head=Pattern(p2, vocab.sub_property_of, p1),
            ),
        ]
    )
    return rules
