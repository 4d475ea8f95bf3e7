"""Tests for the rules dependency graph — including the paper's Figure 2."""

import pytest

from repro.dictionary import TermDictionary
from repro.rdf import OWL
from repro.reasoner import DependencyGraph, Vocabulary, build_routing_table
from repro.reasoner.dependency import closed_inheritance, own_output_routing
from repro.reasoner.fragments import get_fragment
from repro.reasoner.rules import JoinRule, Pattern, Var

from ..conftest import EX


@pytest.fixture
def rhodf_rules():
    return get_fragment("rhodf").rules(Vocabulary(TermDictionary()))


@pytest.fixture
def graph(rhodf_rules):
    return DependencyGraph(rhodf_rules)


class TestFigure2:
    """The ρdf dependency graph must match the paper's Figure 2."""

    def test_universal_input_rules(self, graph):
        assert graph.universal_rules() == ["prp-dom", "prp-rng", "prp-spo1"]

    def test_scm_sco_feeds_cax_sco(self, graph):
        """The paper's worked example: 'the directed edge from rule
        SCM-SCO to CAX-SCO depicts that output of first rule, a
        subclassOf relation, can be used as an input for second rule'."""
        assert "cax-sco" in graph.successors("scm-sco")

    def test_scm_sco_feeds_itself(self, graph):
        assert "scm-sco" in graph.successors("scm-sco")
        assert graph.has_cycle_through("scm-sco")

    def test_scm_spo_feeds_the_spo_consumers(self, graph):
        successors = set(graph.successors("scm-spo"))
        assert {"scm-spo", "scm-dom2", "scm-rng2", "prp-spo1"} <= successors

    def test_cax_sco_does_not_feed_scm_sco(self, graph):
        """cax-sco emits type triples, which scm-sco cannot consume."""
        assert "scm-sco" not in graph.successors("cax-sco")

    def test_everyone_feeds_universal_rules(self, graph):
        for producer in graph.rule_names():
            successors = set(graph.successors(producer))
            assert {"prp-dom", "prp-rng", "prp-spo1"} <= successors

    def test_prp_spo1_feeds_everything(self, graph):
        """prp-spo1's output predicate is unknown, so it may feed any rule."""
        assert set(graph.successors("prp-spo1")) == set(graph.rule_names())

    def test_scm_dom2_feeds_prp_dom_transitively(self, graph):
        # scm-dom2 emits domain triples; prp-dom has universal input so the
        # edge is present; the meaningful path is domain -> typing.
        assert "prp-dom" in graph.successors("scm-dom2")

    def test_predecessors_inverse_of_successors(self, graph):
        for producer in graph.rule_names():
            for consumer in graph.successors(producer):
                assert producer in graph.predecessors(consumer)


class TestGraphMechanics:
    def test_rule_lookup(self, graph):
        assert graph.rule("cax-sco").name == "cax-sco"

    def test_edges_sorted_pairs(self, graph):
        edges = graph.edges()
        assert edges == sorted(edges)
        assert all(len(edge) == 2 for edge in edges)

    def test_duplicate_rule_names_rejected(self, rhodf_rules):
        with pytest.raises(ValueError):
            DependencyGraph(rhodf_rules + [rhodf_rules[0]])

    def test_to_dot(self, graph):
        dot = graph.to_dot()
        assert dot.startswith("digraph")
        assert '"scm-sco" -> "cax-sco";' in dot
        assert "doubleoctagon" in dot  # universal rules marked

    def test_acyclic_rule_detection(self):
        rules = get_fragment("rdfs").rules(Vocabulary(TermDictionary()))
        graph = DependencyGraph(rules)
        # rdfs11 (subclass transitivity) feeds itself...
        assert graph.has_cycle_through("rdfs11")


class TestRoutingTable:
    def test_universal_rules_listed_separately(self, rhodf_rules):
        routing, universal = build_routing_table(rhodf_rules)
        universal_names = {rhodf_rules[i].name for i in universal}
        assert universal_names == {"prp-dom", "prp-rng", "prp-spo1"}

    def test_predicates_route_to_accepting_rules(self, rhodf_rules):
        vocab_dict = TermDictionary()
        vocab = Vocabulary(vocab_dict)
        rules = get_fragment("rhodf").rules(vocab)
        routing, universal = build_routing_table(rules)
        sco_rules = {rules[i].name for i in routing[vocab.sub_class_of]}
        assert sco_rules == {"cax-sco", "scm-sco"}
        spo_rules = {rules[i].name for i in routing[vocab.sub_property_of]}
        assert spo_rules == {"scm-spo", "scm-dom2", "scm-rng2"}

    def test_routing_covers_every_non_universal_rule(self, rhodf_rules):
        routing, universal = build_routing_table(rhodf_rules)
        routed = {index for indices in routing.values() for index in indices}
        expected = set(range(len(rhodf_rules))) - set(universal)
        assert routed == expected

    def test_unknown_predicate_routes_nowhere(self, rhodf_rules):
        routing, universal = build_routing_table(rhodf_rules)
        assert routing.get(999_999) is None


def closed_names(rules) -> set[str]:
    return {rules[index].name for index in closed_inheritance(rules)}


class TestClosedInheritance:
    """Which rules skip their own conclusions — read off the bodies."""

    @pytest.mark.parametrize("fragment", ["rdfs", "rdfs-full", "owl-horst"])
    def test_rdfs_fragments(self, fragment):
        vocab = Vocabulary(TermDictionary())
        rules = get_fragment(fragment).rules(vocab)
        closed = closed_inheritance(rules)
        by_name = {rules[index].name: relation for index, relation in closed.items()}
        assert by_name == {
            "rdfs7": vocab.sub_property_of,
            "rdfs9": vocab.sub_class_of,
            "scm-dom2": vocab.sub_property_of,
            "scm-rng2": vocab.sub_property_of,
        }

    def test_rhodf(self, rhodf_rules):
        assert closed_names(rhodf_rules) == {"prp-spo1", "cax-sco", "scm-dom2", "scm-rng2"}

    def test_needs_the_transitivity_rule(self):
        """Without rdfs11 the subClassOf edges are not closed, so rdfs9
        must read its own output; rdfs5 still closes subPropertyOf."""
        rules = [
            rule
            for rule in get_fragment("rdfs").rules(Vocabulary(TermDictionary()))
            if rule.name != "rdfs11"
        ]
        assert closed_names(rules) == {"rdfs7", "scm-dom2", "scm-rng2"}
        without_both = [rule for rule in rules if rule.name != "rdfs5"]
        assert closed_names(without_both) == set()

    def test_not_for_rhodf_without_scm_sco(self, rhodf_rules):
        rules = [rule for rule in rhodf_rules if rule.name != "scm-sco"]
        assert "cax-sco" not in closed_names(rules)

    def test_transitivity_rules_keep_their_output(self):
        vocab = Vocabulary(TermDictionary())
        for fragment in ("rhodf", "rdfs", "owl-horst"):
            names = closed_names(get_fragment(fragment).rules(vocab))
            assert not names & {"rdfs5", "rdfs11", "scm-sco", "scm-spo", "eq-trans", "prp-trp"}

    def test_transitivity_with_swapped_body_is_recognised(self):
        vocab = Vocabulary(TermDictionary())
        c, d, e, x = Var("c"), Var("d"), Var("e"), Var("x")
        sco = vocab.sub_class_of
        rules = [
            JoinRule("sco-swapped", Pattern(d, sco, e), Pattern(c, sco, d), Pattern(c, sco, e)),
            JoinRule("inherit", Pattern(c, sco, d), Pattern(x, vocab.type, c),
                     head=Pattern(x, vocab.type, d)),
        ]
        assert closed_names(rules) == {"inherit"}

    def test_equality_and_equivalence_rules_excluded(self):
        """eq-rep-s/o's data side has a free variable predicate, so it
        rewrites sameAs edges too; cax-eqc1/2 inherit over
        equivalentClass, which no rule keeps transitively closed."""
        dictionary = TermDictionary()
        vocab = Vocabulary(dictionary)
        rules = get_fragment("owl-horst").rules(vocab)
        equivalent = dictionary.encode(OWL.equivalentClass)
        c1, c2, x = Var("c1"), Var("c2"), Var("x")
        rules += [
            JoinRule("cax-eqc1", Pattern(c1, equivalent, c2), Pattern(x, vocab.type, c1),
                     head=Pattern(x, vocab.type, c2)),
            JoinRule("cax-eqc2", Pattern(c1, equivalent, c2), Pattern(x, vocab.type, c2),
                     head=Pattern(x, vocab.type, c1)),
        ]
        names = closed_names(rules)
        assert not names & {"eq-rep-s", "eq-rep-o", "cax-eqc1", "cax-eqc2"}
        assert any(rule.name == "prp-trp" and len(rule.body) == 3 for rule in rules)
        assert "prp-trp" not in names

    def test_head_must_be_the_inherited_pattern(self):
        vocab = Vocabulary(TermDictionary())
        c, d, x = Var("c"), Var("d"), Var("x")
        sco, type_ = vocab.sub_class_of, vocab.type
        transitive = JoinRule(
            "sco", Pattern(c, sco, d), Pattern(d, sco, Var("e")), Pattern(c, sco, Var("e"))
        )
        not_inheritance = [
            # The head keeps the shared variable: not D[c := d].
            JoinRule("same", Pattern(c, sco, d), Pattern(x, type_, c), Pattern(x, type_, c)),
            # The head moves a different slot.
            JoinRule("flip", Pattern(c, sco, d), Pattern(x, type_, c), Pattern(d, type_, x)),
            # D shares both ends of the edge.
            JoinRule("both", Pattern(c, sco, d), Pattern(c, type_, d), Pattern(d, type_, d)),
        ]
        assert closed_names([transitive] + not_inheritance) == set()

    def test_duck_typed_rule_excluded(self, rhodf_rules):
        class Duck:
            name = "duck"
            input_predicates = None
            output_predicates = None

            def apply(self, store, new_triples, vocab):
                return []

        rules = rhodf_rules + [Duck()]
        assert closed_names(rules) == {"prp-spo1", "cax-sco", "scm-dom2", "scm-rng2"}


class TestOwnOutputRouting:
    def test_skips_the_rule_except_on_its_edge_predicate(self):
        vocab = Vocabulary(TermDictionary())
        rules = get_fragment("rhodf").rules(vocab)
        routing, universal = build_routing_table(rules)
        names = [rule.name for rule in rules]
        for index, relation in closed_inheritance(rules).items():
            own, own_universal = own_output_routing(routing, universal, index, relation)
            assert index not in own_universal
            for predicate, indices in own.items():
                assert (index in indices) == (predicate == relation), names[index]
                assert set(indices) - {index} == set(routing.get(predicate, ())) - {index}
            assert set(own_universal) == set(universal) - {index}

    def test_universal_rule_moves_to_its_edge_predicate(self):
        """prp-spo1 has universal input; its own output reaches it only
        when the conclusion is itself a subPropertyOf edge."""
        dictionary = TermDictionary()
        vocab = Vocabulary(dictionary)
        rules = get_fragment("rhodf").rules(vocab)
        routing, universal = build_routing_table(rules)
        index = [rule.name for rule in rules].index("prp-spo1")
        assert index in universal
        own, own_universal = own_output_routing(routing, universal, index, vocab.sub_property_of)
        assert own[vocab.sub_property_of][-1] == index
        assert index not in own.get(dictionary.encode(EX.knows), ())
        assert index not in own_universal
