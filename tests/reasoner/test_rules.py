"""Unit tests for the rule framework: patterns, joins, guards, signatures."""

import pytest

from repro.dictionary import TermDictionary
from repro.rdf import IRI, Literal
from repro.reasoner import JoinRule, Pattern, SingleRule, Var
from repro.reasoner.rules import RuleViolation, derive_all
from repro.reasoner.vocabulary import Vocabulary
from repro.store import HashDictStore


@pytest.fixture
def dictionary():
    return TermDictionary()


@pytest.fixture
def vocab(dictionary):
    return Vocabulary(dictionary)


@pytest.fixture
def store():
    return HashDictStore()


def iri_id(dictionary, name: str) -> int:
    return dictionary.encode(IRI(f"http://t/{name}"))


class TestVar:
    def test_equality(self):
        assert Var("x") == Var("x")
        assert Var("x") != Var("y")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Var("")

    def test_repr(self):
        assert repr(Var("x")) == "?x"


class TestPattern:
    def test_variables(self):
        pattern = Pattern(Var("x"), 5, Var("y"))
        assert pattern.variables() == {"x", "y"}

    def test_matches_binds_variables(self):
        pattern = Pattern(Var("x"), 5, Var("y"))
        binding = pattern.matches((1, 5, 2), {})
        assert binding == {"x": 1, "y": 2}

    def test_matches_rejects_wrong_constant(self):
        pattern = Pattern(Var("x"), 5, Var("y"))
        assert pattern.matches((1, 6, 2), {}) is None

    def test_matches_respects_existing_binding(self):
        pattern = Pattern(Var("x"), 5, Var("y"))
        assert pattern.matches((1, 5, 2), {"x": 1}) == {"x": 1, "y": 2}
        assert pattern.matches((1, 5, 2), {"x": 9}) is None

    def test_matches_repeated_variable(self):
        pattern = Pattern(Var("x"), 5, Var("x"))
        assert pattern.matches((3, 5, 3), {}) == {"x": 3}
        assert pattern.matches((3, 5, 4), {}) is None

    def test_matches_does_not_mutate_input_binding(self):
        pattern = Pattern(Var("x"), 5, Var("y"))
        binding = {"x": 1}
        pattern.matches((1, 5, 2), binding)
        assert binding == {"x": 1}

    def test_lookup_key(self):
        pattern = Pattern(Var("x"), 5, Var("y"))
        assert pattern.lookup_key({"x": 7}) == (7, 5, None)
        assert pattern.lookup_key({}) == (None, 5, None)

    def test_instantiate(self):
        pattern = Pattern(Var("x"), 5, 9)
        assert pattern.instantiate({"x": 2}) == (2, 5, 9)

    def test_instantiate_unbound_raises(self):
        with pytest.raises(RuleViolation):
            Pattern(Var("x"), 5, 9).instantiate({})

    def test_rejects_bad_slot(self):
        with pytest.raises(TypeError):
            Pattern("iri-as-string", 5, Var("x"))


class TestSignatures:
    def test_constant_predicates_collected(self, vocab):
        rule = JoinRule(
            "r",
            Pattern(Var("a"), vocab.sub_class_of, Var("b")),
            Pattern(Var("b"), vocab.sub_class_of, Var("c")),
            head=Pattern(Var("a"), vocab.sub_class_of, Var("c")),
        )
        assert rule.input_predicates == frozenset({vocab.sub_class_of})
        assert rule.output_predicates == frozenset({vocab.sub_class_of})

    def test_variable_predicate_makes_universal(self, vocab):
        rule = JoinRule(
            "r",
            Pattern(Var("p"), vocab.domain, Var("c")),
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), vocab.type, Var("c")),
        )
        assert rule.input_predicates is None
        assert rule.accepts(12345)

    def test_variable_head_predicate_means_unknown_output(self, vocab):
        rule = JoinRule(
            "r",
            Pattern(Var("p"), vocab.sub_property_of, Var("q")),
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), Var("q"), Var("y")),
        )
        assert rule.output_predicates is None

    def test_accepts(self, vocab):
        rule = SingleRule(
            "r",
            Pattern(Var("c"), vocab.type, vocab.class_),
            head=Pattern(Var("c"), vocab.sub_class_of, Var("c")),
        )
        assert rule.accepts(vocab.type)
        assert not rule.accepts(vocab.domain)


class TestValidation:
    def test_head_variable_must_be_bound(self, vocab):
        with pytest.raises(RuleViolation):
            SingleRule(
                "bad",
                Pattern(Var("x"), vocab.type, Var("y")),
                head=Pattern(Var("z"), vocab.type, Var("y")),
            )

    def test_join_patterns_must_share_variable(self, vocab):
        with pytest.raises(RuleViolation):
            JoinRule(
                "bad",
                Pattern(Var("a"), vocab.type, Var("b")),
                Pattern(Var("c"), vocab.domain, Var("d")),
                head=Pattern(Var("a"), vocab.type, Var("d")),
            )

    def test_rule_needs_name(self, vocab):
        with pytest.raises(RuleViolation):
            SingleRule(
                "",
                Pattern(Var("x"), vocab.type, Var("y")),
                head=Pattern(Var("x"), vocab.type, Var("y")),
            )


class TestSingleRuleApply:
    def test_emits_for_each_match(self, dictionary, vocab, store):
        rule = SingleRule(
            "typer",
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), vocab.type, vocab.resource),
        )
        a, b, p = (iri_id(dictionary, n) for n in "abp")
        out = rule.apply(store, [(a, p, b)], vocab)
        assert out == [(a, vocab.type, vocab.resource)]

    def test_deduplicates_within_batch(self, dictionary, vocab, store):
        rule = SingleRule(
            "typer",
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), vocab.type, vocab.resource),
        )
        a, b, c, p = (iri_id(dictionary, n) for n in "abcp")
        out = rule.apply(store, [(a, p, b), (a, p, c)], vocab)
        assert out == [(a, vocab.type, vocab.resource)]

    def test_literal_subject_guard(self, dictionary, vocab, store):
        rule = SingleRule(
            "typer-obj",
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("y"), vocab.type, vocab.resource),
        )
        a, p = iri_id(dictionary, "a"), iri_id(dictionary, "p")
        lit = dictionary.encode(Literal("text"))
        out = rule.apply(store, [(a, p, lit)], vocab)
        assert out == []  # literals must never become subjects

    def test_literal_predicate_guard(self, dictionary, vocab, store):
        rule = SingleRule(
            "pred-from-object",
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), Var("y"), Var("x")),
        )
        a, p = iri_id(dictionary, "a"), iri_id(dictionary, "p")
        lit = dictionary.encode(Literal("text"))
        assert rule.apply(store, [(a, p, lit)], vocab) == []


class TestJoinRuleApply:
    def make_transitive_rule(self, vocab):
        return JoinRule(
            "trans",
            Pattern(Var("a"), vocab.sub_class_of, Var("b")),
            Pattern(Var("b"), vocab.sub_class_of, Var("c")),
            head=Pattern(Var("a"), vocab.sub_class_of, Var("c")),
        )

    def test_joins_new_against_store(self, dictionary, vocab, store):
        rule = self.make_transitive_rule(vocab)
        a, b, c = (iri_id(dictionary, n) for n in "abc")
        sco = vocab.sub_class_of
        store.add((a, sco, b))
        out = rule.apply(store, [(b, sco, c)], vocab)
        assert (a, sco, c) in out

    def test_joins_both_directions(self, dictionary, vocab, store):
        rule = self.make_transitive_rule(vocab)
        a, b, c = (iri_id(dictionary, n) for n in "abc")
        sco = vocab.sub_class_of
        store.add((b, sco, c))
        out = rule.apply(store, [(a, sco, b)], vocab)
        assert (a, sco, c) in out

    def test_pair_within_batch_found_if_stored(self, dictionary, vocab, store):
        # The pipeline always stores triples before buffering them, so
        # batch-internal pairs are joined through the store side.
        rule = self.make_transitive_rule(vocab)
        a, b, c = (iri_id(dictionary, n) for n in "abc")
        sco = vocab.sub_class_of
        batch = [(a, sco, b), (b, sco, c)]
        store.add_all(batch)
        out = rule.apply(store, batch, vocab)
        assert (a, sco, c) in out

    def test_irrelevant_predicates_ignored(self, dictionary, vocab, store):
        rule = self.make_transitive_rule(vocab)
        a, b, p = (iri_id(dictionary, n) for n in "abp")
        store.add((a, vocab.sub_class_of, b))
        assert rule.apply(store, [(a, p, b)], vocab) == []

    def test_empty_store_side_short_circuit(self, dictionary, vocab, store):
        rule = JoinRule(
            "dom",
            Pattern(Var("p"), vocab.domain, Var("c")),
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), vocab.type, Var("c")),
        )
        a, b, p = (iri_id(dictionary, n) for n in "abp")
        # No domain triples anywhere: the data sweep must yield nothing.
        assert rule.apply(store, [(a, p, b)], vocab) == []

    def test_late_schema_triple_joins_against_store(self, dictionary, vocab, store):
        rule = JoinRule(
            "dom",
            Pattern(Var("p"), vocab.domain, Var("c")),
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), vocab.type, Var("c")),
        )
        a, b, c, p = (iri_id(dictionary, n) for n in "abcp")
        store.add((a, p, b))  # data first
        schema = (p, vocab.domain, c)
        store.add(schema)
        out = rule.apply(store, [schema], vocab)
        assert (a, vocab.type, c) in out

    def test_output_deduplicated(self, dictionary, vocab, store):
        rule = self.make_transitive_rule(vocab)
        a, b1, b2, c = (iri_id(dictionary, n) for n in ("a", "b1", "b2", "c"))
        sco = vocab.sub_class_of
        store.add_all([(a, sco, b1), (a, sco, b2)])
        out = rule.apply(store, [(b1, sco, c), (b2, sco, c)], vocab)
        assert out.count((a, sco, c)) == 1


class TestDeriveAll:
    def test_join_rule_full_evaluation(self, dictionary, vocab, store):
        rule = TestJoinRuleApply().make_transitive_rule(vocab)
        sco = vocab.sub_class_of
        ids = [iri_id(dictionary, f"c{i}") for i in range(4)]
        store.add_all([(ids[i + 1], sco, ids[i]) for i in range(3)])
        out = derive_all(rule, store, vocab)
        assert (ids[2], sco, ids[0]) in out
        assert (ids[3], sco, ids[1]) in out
        assert (ids[3], sco, ids[0]) not in out  # needs two hops -> next round

    def test_single_rule_full_evaluation(self, dictionary, vocab, store):
        rule = SingleRule(
            "typer",
            Pattern(Var("x"), Var("p"), Var("y")),
            head=Pattern(Var("x"), vocab.type, vocab.resource),
        )
        a, b, p = (iri_id(dictionary, n) for n in "abp")
        store.add((a, p, b))
        assert derive_all(rule, store, vocab) == [(a, vocab.type, vocab.resource)]

    def test_repr_mentions_name(self, vocab):
        rule = TestJoinRuleApply().make_transitive_rule(vocab)
        assert "trans" in repr(rule)


class TestOutputBuffer:
    """The reusable firing buffer behind the batch-native write path."""

    def test_emit_dedups_and_preserves_order(self):
        from repro.reasoner import OutputBuffer

        out = OutputBuffer()
        assert out.emit((1, 2, 3)) is True
        assert out.emit((4, 5, 6)) is True
        assert out.emit((1, 2, 3)) is False
        assert len(out) == 2
        assert (1, 2, 3) in out
        assert out.take() == [(1, 2, 3), (4, 5, 6)]

    def test_take_resets_for_reuse(self):
        from repro.reasoner import OutputBuffer

        out = OutputBuffer()
        out.emit((1, 2, 3))
        assert out.take() == [(1, 2, 3)]
        assert len(out) == 0
        assert out.emit((1, 2, 3)) is True  # seen-set cleared too
        assert out.take() == [(1, 2, 3)]

    def test_apply_wraps_apply_into(self, dictionary, vocab, store):
        rule = TestJoinRuleApply().make_transitive_rule(vocab)
        sco = vocab.sub_class_of
        a, b, c = (iri_id(dictionary, n) for n in "abc")
        store.add_all([(a, sco, b), (b, sco, c)])
        derived = rule.apply(store, [(a, sco, b)], vocab)
        assert derived == [(a, sco, c)]

    def test_duck_typed_rule_without_apply_into(self, dictionary, vocab, store):
        from repro.reasoner import OutputBuffer
        from repro.reasoner.rules import apply_rule_into

        class LegacyRule:
            name = "legacy"

            def apply(self, store, new_triples, vocab):
                return [t for t in new_triples] + [t for t in new_triples]

        out = OutputBuffer()
        apply_rule_into(LegacyRule(), store, [(1, 2, 3)], vocab, out)
        assert out.take() == [(1, 2, 3)]  # deduplicated by the buffer
