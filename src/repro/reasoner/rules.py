"""The rule framework: a rule is data — a head and a body of patterns.

A rule body is a short conjunction of triple *patterns* (one or two for
every built-in rule but prp-trp, which has three); the head is a triple
*template*.  Pattern terms are either an ``int`` (a constant term id,
normally a vocabulary predicate) or a :class:`Var`.  For example the
paper's running example CAX-SCO (``<c1 subClassOf c2> ∧ <x type c1> →
<x type c2>``) is declared as::

    JoinRule(
        "cax-sco",
        Pattern(Var("c1"), vocab.sub_class_of, Var("c2")),
        Pattern(Var("x"), vocab.type, Var("c1")),
        head=Pattern(Var("x"), vocab.type, Var("c2")),
    )

:class:`Rule` compiles ``(head, body)`` once into slot-state programs
on the planner's join core (:mod:`repro.store.planner.executor`); no
firing builds a binding dict:

* **the body's compiled conjunction**
  (:func:`~repro.store.planner.executor.compile_conjunction`, the same
  form a standing subscription runs on) — per body position, the batch
  triples matching that pattern are the seed rows, and the rows extend
  through the remaining patterns over the store, most-bound pattern
  first.  One ``itemgetter`` per position projects each row onto the
  head.  :meth:`Rule.apply_into` runs every position: the paper's
  Algorithm 1, generalised from two patterns to any body;
* **the head-seeded program** of :meth:`Rule.supports`, DRed's
  goal-directed question "is there one body instantiation of *this*
  triple in the store?".

**Why firing every position is complete.**  The input manager and the
distributors insert every triple into the store before they route it to
rule buffers.  Take any triples t₁ … tₙ that instantiate a body, and the
tᵢ among them that is routed to the rule last.  When that delivery
fires, the other n − 1 are already stored, so the program seeded at tᵢ's
body position finds them and derives the head.  Two firings running
concurrently on the pool may each miss the other's triple; the firing
of whichever was routed later still finds both.

One routing exception keeps that argument intact.  A *closed-inheritance*
rule — ``(a R b) ∧ D(a) → D(b)``, such as cax-sco, in a fragment whose
transitivity rule (scm-sco) keeps R closed — is not routed its own
conclusions, unless they are R edges themselves
(:func:`~repro.reasoner.dependency.closed_inheritance`).  Any ``D(e)``
it would have derived from its own ``D(b)`` and ``(b R e)`` it derives
anyway: follow its derivations back to the first ``D(a)`` another
producer inserted.  That triple was routed to the rule, the
transitivity rule stores ``(a R e)``, every R edge is routed to the
rule, and whichever of the two is routed last finds the other.

Evaluation is batch-native: :meth:`Rule.apply_into` emits one firing's
derivations into a caller-owned (and reusable) :class:`OutputBuffer`;
:meth:`Rule.apply` is the list-returning convenience wrapper.  The
binding-dict interpreter — :meth:`Pattern.matches` /
:meth:`Pattern.instantiate` — is left to :func:`derive_all`, the naive
baseline and the oracle the support check is tested against.

Rules advertise their *input predicates* (the constant predicate ids of
their body patterns; ``None`` means universal — the rule must see every
triple) and *output predicates* (the head's constant predicate id, or
``None`` when the head predicate is a variable).  The dependency graph
and the routing table are computed from these signatures alone, which is
what makes the reasoner fragment agnostic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from ..dictionary.encoder import EncodedTriple
from ..store.backends.base import TripleStore
from ..store.planner.executor import (
    compile_conjunction,
    has_row,
    match_program,
    match_rows,
    order_steps,
    seeded_rows,
)
from ..store.planner.plan import slot_states
from .vocabulary import Vocabulary

__all__ = [
    "Var",
    "Pattern",
    "Rule",
    "SingleRule",
    "JoinRule",
    "RuleViolation",
    "OutputBuffer",
]


class OutputBuffer:
    """A reusable, deduplicating sink for one rule firing's derivations.

    Rule modules keep one of these per worker thread and pass it to
    :meth:`Rule.apply_into`, so the hot write path accumulates into an
    already-allocated buffer instead of building a fresh list + seen-set
    pair per firing.  :meth:`take` hands the accumulated batch to the
    distributor (already intra-batch deduplicated — the store's
    ``add_all`` never sees a duplicate pair from one firing) and resets
    the buffer for reuse.
    """

    __slots__ = ("_items", "_seen")

    def __init__(self):
        self._items: list[EncodedTriple] = []
        self._seen: set[EncodedTriple] = set()

    def emit(self, triple: EncodedTriple) -> bool:
        """Append ``triple`` unless already emitted; True iff appended."""
        if triple in self._seen:
            return False
        self._seen.add(triple)
        self._items.append(triple)
        return True

    def extend(self, triples) -> None:
        """:meth:`emit` each of ``triples``, in order."""
        seen, items = self._seen, self._items
        for triple in triples:
            if triple not in seen:
                seen.add(triple)
                items.append(triple)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, triple: EncodedTriple) -> bool:
        return triple in self._seen

    def take(self) -> list[EncodedTriple]:
        """Return the accumulated batch and reset for the next firing."""
        items = self._items
        self._items = []
        self._seen.clear()
        return items


class Var:
    """A named variable inside a rule pattern."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("variable name must be a non-empty string")
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Var) and other.name == self.name

    def __hash__(self):
        return hash(("Var", self.name))

    def __repr__(self):
        return f"?{self.name}"


class Pattern:
    """One triple pattern/template: each slot a constant id or a variable.

    Constants are normally ``int`` term ids; under the dictionary-free
    ablation (:class:`~repro.dictionary.IdentityDictionary`) they are the
    term objects themselves.  Anything that is not a :class:`Var` and is
    hashable is treated as a constant.
    """

    __slots__ = ("subject", "predicate", "object")

    def __init__(self, subject, predicate, object):
        for slot, value in (("subject", subject), ("predicate", predicate), ("object", object)):
            if isinstance(value, (str, float, type(None))) or (
                not isinstance(value, (int, Var)) and not hasattr(value, "n3")
            ):
                raise TypeError(
                    f"pattern {slot} must be a term id, an RDF term, or Var, got {value!r}"
                )
        self.subject = subject
        self.predicate = predicate
        self.object = object

    def __iter__(self):
        yield self.subject
        yield self.predicate
        yield self.object

    def variables(self) -> set[str]:
        """Names of all variables occurring in the pattern."""
        return {slot.name for slot in self if isinstance(slot, Var)}

    def matches(self, triple: EncodedTriple, binding: dict[str, int]) -> dict[str, int] | None:
        """Try to match ``triple`` against this pattern under ``binding``.

        Returns the extended binding, or ``None`` on mismatch.  The input
        binding is never mutated.
        """
        extended = None
        for slot, value in zip(self, triple):
            if not isinstance(slot, Var):
                if slot != value:
                    return None
                continue
            bound = binding.get(slot.name)
            if extended is not None:
                bound = extended.get(slot.name, bound)
            if bound is None:
                if extended is None:
                    extended = dict(binding)
                extended[slot.name] = value
            elif bound != value:
                return None
        return binding if extended is None else extended

    def lookup_key(self, binding: dict[str, int]) -> tuple[int | None, int | None, int | None]:
        """The (s, p, o) store-lookup pattern under ``binding`` (None = wildcard)."""
        key = []
        for slot in self:
            if isinstance(slot, Var):
                key.append(binding.get(slot.name))
            else:
                key.append(slot)
        return tuple(key)

    def instantiate(self, binding: dict[str, int]) -> EncodedTriple:
        """Build a concrete triple from the template; raises on unbound vars."""
        out = []
        for slot in self:
            if isinstance(slot, Var):
                value = binding.get(slot.name)
                if value is None:
                    raise RuleViolation(f"unbound head variable ?{slot.name}")
                out.append(value)
            else:
                out.append(slot)
        return tuple(out)

    def __repr__(self):
        return f"({self.subject!r} {self.predicate!r} {self.object!r})"


class RuleViolation(RuntimeError):
    """Raised when a rule is declared or instantiated inconsistently."""


class Rule:
    """An inference rule: a name, a head template and a body of patterns.

    The constructor compiles ``(head, body)`` once (see the module
    docstring); :meth:`apply_into` fires the rule over a batch and
    :meth:`supports` checks one triple.  Subclasses need not override
    either: the head and the body are the rule's whole semantics.
    """

    name: str
    head: Pattern
    body: Sequence[Pattern]

    def __init__(self, name: str, head: Pattern, body: Sequence[Pattern]):
        if not name:
            raise RuleViolation("rule needs a name")
        head_vars = head.variables()
        body_vars = set()
        for pattern in body:
            body_vars |= pattern.variables()
        unbound = head_vars - body_vars
        if unbound:
            raise RuleViolation(
                f"rule {name}: head variables {sorted(unbound)} never bound by the body"
            )
        self.name = name
        self.head = head
        self.body = tuple(body)
        slots: dict = {}
        head_states = slot_states(head, slots, Var)
        self._witness = (match_program(head_states), order_steps(self.body, slots, Var))
        self._firings = tuple(
            (entry, *_projection(head, pattern, entry[-1]))
            for pattern, entry in zip(self.body, compile_conjunction(self.body, Var))
        )
        terms = tuple(head)
        # RDF well-formedness: literals cannot be subjects or predicates.
        # A constant head subject or predicate is checked once per firing
        # that has rows, a variable one per head instance.
        self._fixed = tuple(term for term in terms[:2] if not isinstance(term, Var))
        self._guards = tuple(pos for pos in (0, 1) if isinstance(terms[pos], Var))

    # --- signatures -------------------------------------------------------
    @property
    def input_predicates(self) -> frozenset[int] | None:
        """Constant predicate ids this rule consumes; ``None`` = universal.

        A rule is universal as soon as *any* body pattern has a variable
        predicate: it must then be offered every triple.
        """
        predicates = set()
        for pattern in self.body:
            if isinstance(pattern.predicate, Var):
                return None
            predicates.add(pattern.predicate)
        return frozenset(predicates)

    @property
    def activation_predicates(self) -> frozenset[int] | None:
        """Constant predicate ids anywhere in the body; ``None`` if none.

        For a *universal-input* rule this is its lazy-activation set: as
        long as every activation predicate's partition is empty, a data
        triple cannot complete the body, so the engine may skip buffering
        it — only triples carrying an activation predicate (which make
        the rule "live") must always be delivered.  A body with no
        constant predicate at all (e.g. rdfs4a) returns ``None``: such a
        rule can fire on anything and must see everything.
        """
        predicates = set()
        for pattern in self.body:
            if not isinstance(pattern.predicate, Var):
                predicates.add(pattern.predicate)
        return frozenset(predicates) if predicates else None

    @property
    def output_predicates(self) -> frozenset[int] | None:
        """Constant predicate ids this rule can produce; ``None`` = unknown."""
        if isinstance(self.head.predicate, Var):
            return None
        return frozenset({self.head.predicate})

    def accepts(self, predicate: int) -> bool:
        """Whether a triple with this predicate is relevant to the body."""
        inputs = self.input_predicates
        return inputs is None or predicate in inputs

    # --- evaluation -------------------------------------------------------
    def apply(
        self,
        store: TripleStore,
        new_triples: Sequence[EncodedTriple],
        vocab: Vocabulary,
    ) -> list[EncodedTriple]:
        """Derive consequences of ``new_triples`` w.r.t. the store, as a
        list: :meth:`apply_into` into a fresh buffer."""
        out = OutputBuffer()
        self.apply_into(store, new_triples, vocab, out)
        return out.take()

    def apply_into(
        self,
        store: TripleStore,
        new_triples: Sequence[EncodedTriple],
        vocab: Vocabulary,
        out: OutputBuffer,
    ) -> None:
        """One firing: emit into ``out`` every head instance with a body
        triple in ``new_triples`` and the others in ``store``.

        Each body position runs its entry of the compiled conjunction
        (:func:`~repro.store.planner.executor.seeded_rows`) in body
        order, and the rows project onto the head.
        """
        guards = self._guards
        is_literal = None
        for entry, consts, project in self._firings:
            rows = seeded_rows(store, entry, new_triples)
            if not rows:
                continue
            if is_literal is None:
                is_literal = vocab.dictionary.is_literal
                if any(map(is_literal, self._fixed)):
                    return  # no head instance is valid RDF
            if consts:
                triples = [project(row + consts) for row in rows]
            else:
                triples = map(project, rows)
            if guards:
                triples = dict.fromkeys(triples)  # a guard costs a call per triple
                for position in guards:
                    triples = [t for t in triples if not is_literal(t[position])]
            out.extend(triples)

    # --- goal-directed evaluation ------------------------------------------
    def supports(
        self, store: TripleStore, triple: EncodedTriple, vocab: Vocabulary
    ) -> bool:
        """Is ``triple`` one-step derivable by this rule from ``store``?

        The head-bound counterpart of :func:`derive_all`, and equivalent
        to ``triple in derive_all(rule, store, vocab)``: match ``triple``
        against the head, then look for *one* instantiation of the body
        extending that row.  Cost is bounded by the fan-in of the bound
        body patterns (two index probes for a typical join rule),
        independent of the store's size.
        """
        head, body = self._witness
        rows = match_rows(head, (triple,))
        if not rows:
            return False
        is_literal = vocab.dictionary.is_literal
        if is_literal(triple[0]) or is_literal(triple[1]):
            return False  # same well-formedness guards as a firing
        return has_row(store, body, rows)

    # --- head guards -----------------------------------------------------
    def _emit(
        self,
        binding: dict[str, int],
        vocab: Vocabulary,
        out: OutputBuffer,
    ) -> None:
        """Instantiate the head from a binding dict, under the firings'
        RDF well-formedness guards (rules like rdfs3/rdfs4b would
        otherwise type literals as resources)."""
        triple = self.head.instantiate(binding)
        if triple in out:
            return
        subject, predicate, obj = triple
        is_literal = vocab.dictionary.is_literal
        if is_literal(subject) or is_literal(predicate):
            return
        out.emit(triple)

    def __repr__(self):
        body = " ∧ ".join(repr(p) for p in self.body)
        return f"<Rule {self.name}: {body} → {self.head!r}>"


def _projection(head: Pattern, pattern: Pattern, layout: tuple) -> tuple:
    """``(head constants to append, head projection)`` for the rows seeded
    at ``pattern``, whose slots ``layout`` names.

    A head constant the seed pattern also has is read at its position in
    the row; the others are appended after the last slot, so the
    projection is one ``itemgetter`` over ``row + constants``.
    """
    seeded = {term: position for position, term in enumerate(pattern)
              if not isinstance(term, Var)}
    consts = tuple(dict.fromkeys(
        term for term in head if not isinstance(term, Var) and term not in seeded
    ))
    width = len(layout)
    project = itemgetter(*[
        layout.index(term) if isinstance(term, Var)
        else seeded[term] if term in seeded
        else width + consts.index(term)
        for term in head
    ])
    return consts, project


class SingleRule(Rule):
    """A rule with a one-pattern body, e.g. rdfs6: ``<p type Property> →
    <p subPropertyOf p>``."""

    def __init__(self, name: str, pattern: Pattern, head: Pattern):
        super().__init__(name, head, (pattern,))


class JoinRule(Rule):
    """A rule with a two-pattern body — the general case of Algorithm 1.

    The two body patterns must share a variable (the join) unless one of
    them is ground; every head variable must be bound by the body.
    """

    def __init__(self, name: str, left: Pattern, right: Pattern, head: Pattern):
        super().__init__(name, head, (left, right))
        left_vars, right_vars = left.variables(), right.variables()
        if left_vars and right_vars and not left_vars & right_vars:
            raise RuleViolation(f"rule {name}: body patterns share no variable")


def apply_rule_into(
    rule: Rule,
    store: TripleStore,
    new_triples: Sequence[EncodedTriple],
    vocab: Vocabulary,
    out: OutputBuffer,
) -> None:
    """Batch-native evaluation that tolerates duck-typed rules.

    Custom rules registered with a fragment need not subclass
    :class:`Rule`; any object with an ``apply`` method works.  This
    helper routes through ``apply_into`` when the rule has one and
    funnels a plain ``apply`` result through the buffer otherwise.
    """
    method = getattr(rule, "apply_into", None)
    if method is not None:
        method(store, new_triples, vocab, out)
        return
    for triple in rule.apply(store, new_triples, vocab):
        out.emit(triple)


def derive_all(rule: Rule, store: TripleStore, vocab: Vocabulary) -> list[EncodedTriple]:
    """Full evaluation of any rule against the whole store.

    The binding-dict reference, independent of the compiled programs:
    the body's patterns are matched in body order by
    :meth:`Pattern.matches`, each probing the store with the binding so
    far.  It is the "commonly used iterative rules scheme" of the naive
    baseline, so it does NOT deduplicate its output: every successful
    body instantiation is materialized and duplicate elimination is left
    to the store.  On the subClassOf chains this is exactly the O(n³)
    derivations for an O(n²) closure that the paper cites; the length of
    the returned list is the baseline's work metric.  It is also the
    oracle for :meth:`Rule.supports`.  A duck-typed rule without a body
    is applied with the whole store as its "new" triples.
    """
    body = getattr(rule, "body", None)
    if body is None:
        return rule.apply(store, list(store), vocab)
    bindings: list[dict] = [{}]
    for pattern in body:
        bindings = [
            merged
            for binding in bindings
            for triple in store.match(*pattern.lookup_key(binding))
            if (merged := pattern.matches(triple, binding)) is not None
        ]
    is_literal = vocab.dictionary.is_literal
    derived = [rule.head.instantiate(binding) for binding in bindings]
    # Same well-formedness guards as a firing.
    return [t for t in derived if not is_literal(t[0]) and not is_literal(t[1])]
