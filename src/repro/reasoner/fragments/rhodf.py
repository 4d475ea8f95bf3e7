"""The ρdf fragment (Muñoz, Pérez & Gutierrez 2007), as used by Slider.

Figure 2 of the paper shows the eight rules, with their OWL 2 RL profile
names (tables 4–9 of the Profiles recommendation):

========  ==========================================================
PRP-DOM   <p domain c> ∧ <x p y> → <x type c>
PRP-RNG   <p range c>  ∧ <x p y> → <y type c>
PRP-SPO1  <p subPropertyOf q> ∧ <x p y> → <x q y>
CAX-SCO   <c1 subClassOf c2>  ∧ <x type c1> → <x type c2>
SCM-SCO   <c1 subClassOf c2>  ∧ <c2 subClassOf c3> → <c1 subClassOf c3>
SCM-SPO   <p1 subPropertyOf p2> ∧ <p2 subPropertyOf p3> → <p1 subPropertyOf p3>
SCM-DOM2  <p2 domain c> ∧ <p1 subPropertyOf p2> → <p1 domain c>
SCM-RNG2  <p2 range c>  ∧ <p1 subPropertyOf p2> → <p1 range c>
========  ==========================================================

PRP-DOM, PRP-RNG and PRP-SPO1 have *universal input* (their second body
pattern matches any predicate), exactly as the dependency graph in the
paper's Figure 2 shows.
"""

from __future__ import annotations

from ..rules import JoinRule, Pattern, Rule, Var
from ..vocabulary import Vocabulary

__all__ = ["build_rules"]


def build_rules(vocab: Vocabulary) -> list[Rule]:
    """Instantiate the eight ρdf rules against a vocabulary."""
    x, y = Var("x"), Var("y")
    c, c1, c2, c3 = Var("c"), Var("c1"), Var("c2"), Var("c3")
    p, q = Var("p"), Var("q")
    p1, p2, p3 = Var("p1"), Var("p2"), Var("p3")

    return [
        JoinRule(
            "prp-dom",
            Pattern(p, vocab.domain, c),
            Pattern(x, p, y),
            head=Pattern(x, vocab.type, c),
        ),
        JoinRule(
            "prp-rng",
            Pattern(p, vocab.range, c),
            Pattern(x, p, y),
            head=Pattern(y, vocab.type, c),
        ),
        JoinRule(
            "prp-spo1",
            Pattern(p, vocab.sub_property_of, q),
            Pattern(x, p, y),
            head=Pattern(x, q, y),
        ),
        JoinRule(
            "cax-sco",
            Pattern(c1, vocab.sub_class_of, c2),
            Pattern(x, vocab.type, c1),
            head=Pattern(x, vocab.type, c2),
        ),
        JoinRule(
            "scm-sco",
            Pattern(c1, vocab.sub_class_of, c2),
            Pattern(c2, vocab.sub_class_of, c3),
            head=Pattern(c1, vocab.sub_class_of, c3),
        ),
        JoinRule(
            "scm-spo",
            Pattern(p1, vocab.sub_property_of, p2),
            Pattern(p2, vocab.sub_property_of, p3),
            head=Pattern(p1, vocab.sub_property_of, p3),
        ),
        JoinRule(
            "scm-dom2",
            Pattern(p2, vocab.domain, c),
            Pattern(p1, vocab.sub_property_of, p2),
            head=Pattern(p1, vocab.domain, c),
        ),
        JoinRule(
            "scm-rng2",
            Pattern(p2, vocab.range, c),
            Pattern(p1, vocab.sub_property_of, p2),
            head=Pattern(p1, vocab.range, c),
        ),
    ]
