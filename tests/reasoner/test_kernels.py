"""Compiled rule firings: identical emissions to the binding-dict loop.

The compiled plans are a pure performance substitution — the
acceptance line is triple-for-triple emission identity with the
binding-dict interpreter: ``JoinRule._half_join`` for every direction
of every fragment on every kernel path (hash join, positional probe
loop), and a ``Pattern.matches`` reference for ``SingleRule``.  A
counting test shows a commit's firings make no interpreter call at all.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dictionary import TermDictionary
from repro import Delta
from repro.datasets.bsbm import generate_bsbm
from repro.datasets.subclass_chains import subclass_chain
from repro.rdf import IRI, Literal
from repro.reasoner import Slider, kernels
from repro.reasoner.fragments import get_fragment
from repro.reasoner.rules import (
    JoinRule,
    OutputBuffer,
    Pattern,
    SingleRule,
    Var,
    derive_all,
)
from repro.reasoner.vocabulary import Vocabulary
from repro.store import HashDictStore

FRAGMENTS = ("rhodf", "rdfs", "owl-horst")

#: Extra ground terms beyond the fragment vocabulary, so random triples
#: mix schema ids with plain instance ids.
EXTRA_TERMS = 48
EXTRA_LITERALS = 8


def compiled_rules(fragment: str):
    """(join rules, vocab, dictionary) with every term pre-registered.

    Besides the fragment vocabulary the universe holds plain IRIs and
    literals, so random triples put literals in every slot and the
    well-formedness guards are exercised.
    """
    dictionary = TermDictionary()
    vocab = Vocabulary(dictionary)
    terms = [
        dictionary.encode(IRI(f"http://kernel.example/n{i}"))
        for i in range(EXTRA_TERMS)
    ]
    literals = [dictionary.encode(Literal(f"v{i}")) for i in range(EXTRA_LITERALS)]
    if fragment == "custom":
        return custom_rules(terms, literals), vocab, dictionary
    rules = [
        rule
        for rule in get_fragment(fragment).rules(vocab)
        if isinstance(rule, JoinRule)
    ]
    return rules, vocab, dictionary


def custom_rules(terms, literals) -> list[JoinRule]:
    """Body shapes no built-in fragment declares: a repeated unbound
    stored-side variable under a variable predicate, a ground stored
    object, two probe slots, a repeated new-side variable, constant
    literal heads."""
    P, Q, R, C = terms[:4]
    L = literals[0]
    x, y, z, p, q = (Var(n) for n in "xyzpq")
    return [
        JoinRule("loop", Pattern(x, P, q), Pattern(z, q, z), Pattern(x, q, z)),
        JoinRule("ground", Pattern(x, P, y), Pattern(y, Q, C), Pattern(x, Q, y)),
        JoinRule("both", Pattern(x, P, y), Pattern(y, Q, x), Pattern(x, R, y)),
        JoinRule("repeat", Pattern(x, P, x), Pattern(x, Q, y), Pattern(y, P, x)),
        JoinRule("lit-s", Pattern(x, P, y), Pattern(y, Q, z), Pattern(L, P, z)),
        JoinRule("lit-p", Pattern(x, P, y), Pattern(y, Q, z), Pattern(x, L, z)),
        JoinRule("var-po", Pattern(p, P, y), Pattern(x, p, y), Pattern(x, R, p)),
    ]


def random_encoded(rng: random.Random, universe: int, count: int):
    return {
        (
            rng.randrange(universe),
            rng.randrange(universe),
            rng.randrange(universe),
        )
        for _ in range(count)
    }


def joining_pair(plan, rng: random.Random, universe: int):
    """A (stored partner, new triple) pair the plan's direction joins.

    The partner satisfies the stored side's constants; the new triple
    takes the partner's values at the probe slots and the new side's
    constants elsewhere.
    """
    partner = [rng.randrange(universe) for _ in range(3)]
    partner_slots = (0, 1, 2) if plan.store_pred is None else (0, 2)
    if plan.store_pred is not None:
        partner[1] = plan.store_pred
    for ppos, val in plan.partner_checks:
        partner[partner_slots[ppos]] = val
    new = [rng.randrange(universe) for _ in range(3)]
    if plan.new_pred is not None:
        new[1] = plan.new_pred
    for pos, val in plan.new_checks:
        new[pos] = val
    for ppos, new_pos in plan.probe:
        new[new_pos] = partner[partner_slots[ppos]]
    return tuple(partner), tuple(new)


def directions(rule: JoinRule):
    return (
        (rule._plans[0], rule.left, rule.right),
        (rule._plans[1], rule.right, rule.left),
    )


class TestKernelMatchesClassic:
    """Fuzz: plan.execute == _half_join, rule by rule, direction by direction."""

    def test_every_builtin_direction_compiles(self):
        for fragment in FRAGMENTS:
            rules, _, _ = compiled_rules(fragment)
            for rule in rules:
                assert None not in rule._plans, f"{fragment}: {rule!r}"
            # Including the schema directions whose stored side has a
            # variable predicate (prp-dom, prp-rng, prp-spo1, ...).
            assert any(p.store_pred is None for r in rules for p in r._plans)

    @pytest.mark.parametrize("path", ["batch", "probe"])
    @pytest.mark.parametrize("fragment", FRAGMENTS + ("custom",))
    @pytest.mark.parametrize("seed", range(4))
    def test_every_kernel_path(self, monkeypatch, path, fragment, seed):
        # "batch" lets every batch size reach the hash join;
        # "probe" forces the positional probe loop.  Variable-predicate
        # directions probe with match() on both.  The selection
        # heuristic must never be load-bearing for correctness.
        monkeypatch.setattr(
            kernels, "KERNEL_MIN_BATCH", 0 if path == "batch" else 10**9
        )
        rules, vocab, dictionary = compiled_rules(fragment)
        rng = random.Random(seed)
        universe = len(dictionary)
        stored = random_encoded(rng, universe, 120)
        batch = sorted(random_encoded(rng, universe, 40))
        # Seed joining pairs so every direction actually fires.
        for rule in rules:
            for plan in rule._plans:
                for _ in range(6):
                    partner, new = joining_pair(plan, rng, universe)
                    stored.add(partner)
                    batch.append(new)

        store = HashDictStore()
        store.add_all(sorted(stored))
        is_literal = dictionary.is_literal
        fired = 0
        for rule in rules:
            for plan, new_side, store_side in directions(rule):
                classic_out = OutputBuffer()
                rule._half_join(
                    store, batch, new_side, store_side, vocab, classic_out
                )
                kernel_out = OutputBuffer()
                plan.execute(store, batch, is_literal, kernel_out)
                classic = set(classic_out.take())
                assert set(kernel_out.take()) == classic, (
                    f"kernel diverged: fragment={fragment} seed={seed} "
                    f"path={path} rule={rule!r}"
                )
                fired += bool(classic)
        assert fired > len(rules) // 2

    def test_a_seven_triple_batch_is_handled(self):
        rules, vocab, dictionary = compiled_rules("rhodf")
        rule = next(r for r in rules if r.name == "cax-sco")
        plan, new_side, store_side = directions(rule)[0]
        rng = random.Random(7)
        store = HashDictStore()
        batch = []
        for _ in range(kernels.KERNEL_MIN_BATCH - 1):
            partner, new = joining_pair(plan, rng, len(dictionary))
            store.add(partner)
            batch.append(new)
        classic_out = OutputBuffer()
        rule._half_join(store, batch, new_side, store_side, vocab, classic_out)
        expected = set(classic_out.take())
        out = OutputBuffer()
        plan.execute(store, batch, dictionary.is_literal, out)
        assert expected
        assert set(out.take()) == expected


#: A small id universe for SingleRule fuzzing: ids below LITERALS are
#: literals, the rest IRIs.
SINGLE_UNIVERSE = 6
SINGLE_LITERALS = 2


class _LiteralIds:
    @staticmethod
    def is_literal(term_id) -> bool:
        return term_id < SINGLE_LITERALS


class _Vocab:
    dictionary = _LiteralIds


SLOT = st.one_of(
    st.sampled_from([Var("a"), Var("b"), Var("c")]),
    st.integers(min_value=0, max_value=SINGLE_UNIVERSE - 1),
)


@st.composite
def single_rules(draw):
    body = Pattern(draw(SLOT), draw(SLOT), draw(SLOT))
    names = sorted(body.variables())
    head_slot = st.integers(min_value=0, max_value=SINGLE_UNIVERSE - 1)
    if names:
        head_slot = st.one_of(st.sampled_from([Var(n) for n in names]), head_slot)
    return SingleRule("fuzz", body, Pattern(draw(head_slot), draw(head_slot), draw(head_slot)))


def reference_single(rule: SingleRule, triples, is_literal) -> list:
    """The binding-dict interpreter a SingleRule firing used to run."""
    out = OutputBuffer()
    for triple in triples:
        binding = rule.pattern.matches(triple, {})
        if binding is None:
            continue
        head = rule.head.instantiate(binding)
        if head in out or is_literal(head[0]) or is_literal(head[1]):
            continue
        out.emit(head)
    return out.take()


class TestSingleRuleMatchesInterpreter:
    ID = st.integers(min_value=0, max_value=SINGLE_UNIVERSE - 1)

    @given(
        rule=single_rules(),
        triples=st.lists(st.tuples(ID, ID, ID), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_compiled_equals_pattern_matches(self, rule, triples):
        out = OutputBuffer()
        rule.apply_into(None, triples, _Vocab, out)
        assert out.take() == reference_single(rule, triples, _LiteralIds.is_literal)

    def test_repeated_variable_and_literal_slots(self):
        a = Var("a")
        rule = SingleRule("refl", Pattern(a, 5, a), Pattern(a, 4, 0))
        triples = [(2, 5, 2), (3, 5, 2), (0, 5, 0), (3, 5, 3), (2, 5, 2)]
        out = OutputBuffer()
        rule.apply_into(None, triples, _Vocab, out)
        # (0 5 0) binds a literal subject: the guard drops its head.
        assert out.take() == [(2, 4, 0), (3, 4, 0)]


class TestFiringsRunCompiled:
    """A commit's firings make no binding-dict interpreter call."""

    @pytest.mark.parametrize("fragment", FRAGMENTS)
    def test_no_pattern_calls_from_firings(self, monkeypatch, fragment):
        calls = {"matches": 0, "instantiate": 0}
        for name in calls:
            original = getattr(Pattern, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(Pattern, name, counted)
        chunk = generate_bsbm(500, seed=3)[:500]
        with Slider(fragment=fragment, workers=2, timeout=None) as reasoner:
            bsbm = reasoner.apply(Delta(assertions=chunk))
            chain = reasoner.apply(Delta(assertions=subclass_chain(20)))
            assert bsbm.inferred_added_count > 0
            assert chain.inferred_added_count > 0
            assert calls == {"matches": 0, "instantiate": 0}
            # The wrap is live: whole-store evaluation still interprets.
            for rule in reasoner.rules:
                derive_all(rule, reasoner.store, reasoner.vocab)
        assert calls["matches"] > 0
