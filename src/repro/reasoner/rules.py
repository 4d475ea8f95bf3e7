"""The rule framework: declarative patterns and Algorithm 1's rule body.

A rule body is a short conjunction of triple *patterns* (one or two for
every built-in rule but prp-trp, which declares three); the head is a
triple *template*.  Pattern terms are either an ``int`` (a constant term id,
normally a vocabulary predicate) or a :class:`Var`.  For example the
paper's running example CAX-SCO (``<c1 subClassOf c2> ∧ <x type c1> →
<x type c2>``) is declared as::

    JoinRule(
        "cax-sco",
        Pattern(Var("c1"), vocab.sub_class_of, Var("c2")),
        Pattern(Var("x"), vocab.type, Var("c1")),
        head=Pattern(Var("x"), vocab.type, Var("c2")),
    )

:meth:`JoinRule.apply` implements the paper's Algorithm 1 verbatim but
generalized to any two-pattern body: it joins the *new* triples matching
pattern 1 against the *store* side of pattern 2, and vice versa.  Because
the input manager and distributors insert every triple into the store
before routing it to buffers, this two-sided delta join is complete: for
any pair of triples satisfying the body, whichever member is routed last
finds the other already in the store.

Evaluation is batch-native: the primitive is :meth:`Rule.apply_into`,
which emits one firing's derivations into a caller-owned (and reusable)
:class:`OutputBuffer` instead of allocating per-firing lists and dedup
sets.  :meth:`Rule.apply` remains as the list-returning convenience
wrapper, and custom rules may override either method — each has a
default implemented in terms of the other.

Firings never interpret the patterns: each built-in rule body compiles
once into a positional plan (:mod:`repro.reasoner.kernels`) that
filters, probes and projects by tuple position.  The binding-dict
interpreter — :meth:`Pattern.matches` / :meth:`Pattern.instantiate` —
serves the goal-directed and whole-store questions below.

Because head and body are data, a rule can also be asked the
goal-directed question DRed re-derivation needs —
:meth:`Rule.supports`: "is there one body instantiation of *this* triple
in the store?" — answered with index probes bound by the head, never by
evaluating the body over the whole store.

Rules advertise their *input predicates* (the constant predicate ids of
their body patterns; ``None`` means universal — the rule must see every
triple) and *output predicates* (the head's constant predicate id, or
``None`` when the head predicate is a variable).  The dependency graph
and the routing table are computed from these signatures alone, which is
what makes the reasoner fragment agnostic.
"""

from __future__ import annotations

from typing import Sequence

from ..dictionary.encoder import EncodedTriple
from ..store.backends.base import TripleStore
from .kernels import compile_half_join, compile_projection
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


PatternTerm = "int | Var"


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
    """Base class for inference rules.

    Subclasses must set :attr:`name`, :attr:`head`, :attr:`body`
    (a sequence of patterns) and implement :meth:`apply`.
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
        """Derive consequences of ``new_triples`` w.r.t. the store.

        Convenience wrapper over :meth:`apply_into`; subclasses normally
        override that instead (the pipeline only calls ``apply_into``).
        """
        if type(self).apply_into is Rule.apply_into:
            raise NotImplementedError(
                f"rule {self.name!r} must implement apply() or apply_into()"
            )
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
        """Batch-native evaluation: emit derivations into ``out``.

        The default bridges duck-typed custom rules that only define
        :meth:`apply`; built-in rules override this and emit directly.
        """
        for triple in self.apply(store, new_triples, vocab):
            out.emit(triple)

    # --- goal-directed evaluation ------------------------------------------
    def supports(
        self, store: TripleStore, triple: EncodedTriple, vocab: Vocabulary
    ) -> bool:
        """Is ``triple`` one-step derivable by this rule from ``store``?

        The head-bound counterpart of :func:`derive_all`, and equivalent
        to ``triple in derive_all(rule, store, vocab)``: unify ``triple``
        with the head, then look for *one* instantiation of the body
        under that binding.  Cost is bounded by the fan-in of the bound
        body patterns (two index probes for a typical join rule),
        independent of the store's size.  Subclasses whose ``head`` and
        ``body`` are their true semantics need no override.
        """
        binding = self.head.matches(triple, {})
        if binding is None:
            return False
        is_literal = vocab.dictionary.is_literal
        if is_literal(triple[0]) or is_literal(triple[1]):
            return False  # same well-formedness guards as _emit
        return _has_witness(store, self.body, binding)

    # --- head guards -----------------------------------------------------
    def _emit(
        self,
        binding: dict[str, int],
        vocab: Vocabulary,
        out: OutputBuffer,
    ) -> None:
        """Instantiate the head under RDF well-formedness guards.

        Inferred triples must be valid RDF: literals cannot be subjects or
        predicates, and blank nodes cannot be predicates.  Rules like
        rdfs3/rdfs4b would otherwise type literals as resources.
        """
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


def _has_witness(
    store: TripleStore, patterns: Sequence[Pattern], binding: dict[str, int]
) -> bool:
    """Does some extension of ``binding`` instantiate every pattern?

    Backtracking search, most-bound pattern first (ties in body order),
    returning on the first witness.  A fully bound pattern is a
    membership probe; a partially bound one is an index lookup whose
    matches each extend the binding for the remaining patterns.
    """
    if not patterns:
        return True
    keys = [pattern.lookup_key(binding) for pattern in patterns]
    best = min(range(len(keys)), key=lambda index: keys[index].count(None))
    rest = [pattern for index, pattern in enumerate(patterns) if index != best]
    key = keys[best]
    if None not in key:
        return key in store and _has_witness(store, rest, binding)
    pattern = patterns[best]
    for partner in store.match(*key):
        extended = pattern.matches(partner, binding)
        if extended is not None and _has_witness(store, rest, extended):
            return True
    return False


class SingleRule(Rule):
    """A rule with a one-pattern body, e.g. rdfs6: ``<p type Property> →
    <p subPropertyOf p>``.

    The body and head compile once into a
    :class:`~repro.reasoner.kernels.ProjectionPlan`: constant and
    repeated-variable checks filter the batch, and each survivor is
    projected onto the head — no binding dict per triple.  Emission
    keeps ``_emit``'s order: dedup first, then the literal guards.
    """

    def __init__(self, name: str, pattern: Pattern, head: Pattern):
        super().__init__(name, head, (pattern,))
        self.pattern = pattern
        self._plan = compile_projection(pattern, head)

    def apply_into(self, store, new_triples, vocab, out: OutputBuffer) -> None:
        self._plan.execute(new_triples, vocab.dictionary.is_literal, out)


class JoinRule(Rule):
    """A rule with a two-pattern body — the general case of Algorithm 1.

    The two body patterns must share at least one variable (the join), and
    every head variable must be bound by the body (checked by the base
    class).
    """

    def __init__(self, name: str, left: Pattern, right: Pattern, head: Pattern):
        super().__init__(name, head, (left, right))
        self.left = left
        self.right = right
        if not (left.variables() & right.variables()) and not self._ground_join():
            raise RuleViolation(f"rule {name}: body patterns share no variable")
        # One compiled plan per half-join direction; None only for a
        # cartesian direction, which stays on the classic loop below.
        self._plans = (
            compile_half_join(left, right, head),
            compile_half_join(right, left, head),
        )

    def _ground_join(self) -> bool:
        # A cartesian body (no shared variable) is legal only if one side
        # is fully ground; no built-in fragment needs it, but custom rules
        # might declare e.g. an activation pattern.
        return not self.left.variables() or not self.right.variables()

    def apply_into(self, store, new_triples, vocab, out: OutputBuffer) -> None:
        # Each direction runs its compiled plan at every batch size; the
        # plan picks merge join, hash join or positional probes by the
        # pass's cardinalities (see :mod:`repro.reasoner.kernels`).  Only
        # a plan-less (cartesian) direction of a custom rule takes the
        # binding-dict loop.
        is_literal = vocab.dictionary.is_literal
        left_plan, right_plan = self._plans
        if left_plan is not None:
            left_plan.execute(store, new_triples, is_literal, out)
        else:
            self._half_join(store, new_triples, self.left, self.right, vocab, out)
        if right_plan is not None:
            right_plan.execute(store, new_triples, is_literal, out)
        else:
            self._half_join(store, new_triples, self.right, self.left, vocab, out)

    def _half_join(
        self,
        store: TripleStore,
        new_triples: Sequence[EncodedTriple],
        new_side: Pattern,
        store_side: Pattern,
        vocab: Vocabulary,
        out: OutputBuffer,
    ) -> None:
        """One direction of Algorithm 1: new triples × stored partners.

        The binding-dict reference loop: firings run the compiled
        :class:`~repro.reasoner.kernels.HalfJoinPlan` instead, so this
        serves only plan-less (cartesian) directions of custom rules and
        the equivalence tests and micro-benchmark that compare against it.

        Short-circuit: when the stored side has a constant predicate with
        an empty partition, no probe can succeed — skip the whole sweep.
        This is safe, not just fast: if a matching stored-side triple
        arrives later, *its* half-join (the other direction) re-joins it
        against the store, which by then contains today's new triples.
        """
        store_predicate = store_side.predicate
        if not isinstance(store_predicate, Var) and not store.has_predicate(store_predicate):
            return
        new_predicate = new_side.predicate
        if not isinstance(new_predicate, Var):
            # C-speed pre-filter: only triples with the right predicate
            # can match, and most batches are dominated by others.
            new_triples = [t for t in new_triples if t[1] == new_predicate]
            if not new_triples:
                return
        empty: dict[str, int] = {}
        for triple in new_triples:
            binding = new_side.matches(triple, empty)
            if binding is None:
                continue
            subject, predicate, obj = store_side.lookup_key(binding)
            for partner in store.match(subject, predicate, obj):
                merged = store_side.matches(partner, binding)
                if merged is not None:
                    self._emit(merged, vocab, out)

    def derive_all(
        self, store: TripleStore, vocab: Vocabulary
    ) -> list[EncodedTriple]:
        """Full (non-incremental) evaluation of the body against the store.

        This is the "commonly used iterative rules scheme" of the naive
        baseline, so — unlike the pipeline's :meth:`apply` — it does NOT
        deduplicate its output: every successful body instantiation is
        materialized and duplicate elimination is left to the store.  On
        the subClassOf chains this is exactly the O(n³) derivations for
        an O(n²) closure that the paper cites; the length of the returned
        list is the baseline's work metric.
        """
        out: list[EncodedTriple] = []
        is_literal = vocab.dictionary.is_literal
        head = self.head
        subject, predicate, obj = self.left.lookup_key({})
        empty: dict[str, int] = {}
        for triple in store.match(subject, predicate, obj):
            binding = self.left.matches(triple, empty)
            if binding is None:
                continue
            s2, p2, o2 = self.right.lookup_key(binding)
            for partner in store.match(s2, p2, o2):
                merged = self.right.matches(partner, binding)
                if merged is None:
                    continue
                derived = head.instantiate(merged)
                if is_literal(derived[0]) or is_literal(derived[1]):
                    continue  # same well-formedness guards as _emit
                out.append(derived)
        return out


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

    The naive baseline's primitive and the oracle for
    :meth:`Rule.supports`.  ``JoinRule`` has a specialized
    implementation; every other rule (single-pattern, prp-trp,
    duck-typed) reuses ``apply`` with the store contents as the "new"
    side.
    """
    if isinstance(rule, JoinRule):
        return rule.derive_all(store, vocab)
    return rule.apply(store, list(store), vocab)
