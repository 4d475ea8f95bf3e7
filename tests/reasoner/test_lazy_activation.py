"""Tests for lazy activation of universal-input rules.

A universal rule whose constant body predicates (its *activation set*)
have no stored triples cannot fire usefully, so the engine skips
buffering data triples for it — without ever giving up completeness
(schema-after-data is re-joined through the store).
"""

import pytest

from repro import Delta
from repro.dictionary import TermDictionary
from repro.rdf import OWL, RDF, RDFS, Triple
from repro.reasoner import Slider, Vocabulary
from repro.reasoner.fragments import get_fragment

from ..conftest import EX, closure_with_batch, closure_with_slider


def inline(**kwargs) -> Slider:
    options = {"fragment": "rhodf", "workers": 0, "timeout": None, "buffer_size": 10}
    options.update(kwargs)
    return Slider(**options)


class TestActivationSignatures:
    @pytest.fixture(scope="class")
    def rules(self):
        vocab = Vocabulary(TermDictionary())
        return vocab, {r.name: r for r in get_fragment("rhodf").rules(vocab)}

    def test_prp_dom_activates_on_domain(self, rules):
        vocab, by_name = rules
        assert by_name["prp-dom"].activation_predicates == frozenset({vocab.domain})

    def test_prp_spo1_activates_on_subpropertyof(self, rules):
        vocab, by_name = rules
        assert by_name["prp-spo1"].activation_predicates == frozenset(
            {vocab.sub_property_of}
        )

    def test_fully_variable_body_has_no_activation(self):
        vocab = Vocabulary(TermDictionary())
        rdfs_rules = {r.name: r for r in get_fragment("rdfs").rules(vocab)}
        assert rdfs_rules["rdfs4a"].activation_predicates is None


class TestSkipBehaviour:
    def test_dormant_universal_rules_receive_nothing(self):
        with inline() as reasoner:
            reasoner.add(
                [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(100)]
            )
            reasoner.flush()
            counters = reasoner.counters()
            for rule in ("prp-dom", "prp-rng", "prp-spo1"):
                assert counters[rule]["total_buffered"] == 0

    def test_activated_rule_receives_the_stream(self):
        with inline() as reasoner:
            reasoner.add([Triple(EX.knows, RDFS.domain, EX.Person)])
            reasoner.add(
                [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(50)]
            )
            reasoner.flush()
            assert reasoner.counters()["prp-dom"]["total_buffered"] >= 50
            assert reasoner.graph.count(predicate=RDF.type, obj=EX.Person) == 50

    def test_rdfs4a_always_sees_everything(self):
        with inline(fragment="rdfs") as reasoner:
            reasoner.add(
                [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(30)]
            )
            reasoner.flush()
            # 30 subjects + 30 objects + Resource itself
            assert reasoner.inferred_count == 61


class TestCompletenessPreserved:
    def test_schema_arriving_after_data(self):
        """The exact case lazy activation must not break."""
        with inline() as reasoner:
            reasoner.add(
                [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(40)]
            )
            reasoner.flush()
            assert reasoner.inferred_count == 0
            reasoner.add([Triple(EX.knows, RDFS.range, EX.Agent)])
            reasoner.flush()
            assert reasoner.graph.count(predicate=RDF.type, obj=EX.Agent) == 40

    def test_schema_and_data_in_one_batch(self):
        data = [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(20)]
        schema = [Triple(EX.knows, RDFS.domain, EX.Person)]
        mixed = data[:10] + schema + data[10:]
        closure = closure_with_slider(mixed, "rhodf")
        typed = [
            t for t in closure if t.predicate == RDF.type and t.object == EX.Person
        ]
        assert len(typed) == 20

    def test_retracting_the_last_activating_triple_keeps_the_closure_exact(self):
        """An activated rule stays live after its only schema triple
        leaves; the closure still equals the batch one, before and after
        another subPropertyOf arrives."""
        data = [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(20)]
        schema = Triple(EX.knows, RDFS.subPropertyOf, EX.interactsWith)
        later = Triple(EX.knows, RDFS.subPropertyOf, EX.near)
        with inline() as reasoner:
            reasoner.apply(Delta(assertions=data[:10] + [schema]))
            reasoner.apply(Delta(retractions=[schema]))
            reasoner.apply(Delta(assertions=data[10:]))
            assert set(reasoner.graph) == closure_with_batch(data, "rhodf")
            reasoner.apply(Delta(assertions=[later]))
            assert set(reasoner.graph) == closure_with_batch(data + [later], "rhodf")

    def test_owl_horst_same_as_after_facts(self):
        with inline(fragment="owl-horst") as reasoner:
            reasoner.add([Triple(EX.a, EX.likes, EX.pizza)])
            reasoner.flush()
            reasoner.add([Triple(EX.a, OWL.sameAs, EX.b)])
            reasoner.flush()
            assert Triple(EX.b, EX.likes, EX.pizza) in reasoner.graph

    def test_threaded_equivalence_with_interleaved_schema(self):
        data = [Triple(EX[f"s{i}"], EX.knows, EX[f"o{i}"]) for i in range(60)]
        schema = [
            Triple(EX.knows, RDFS.domain, EX.Person),
            Triple(EX.knows, RDFS.range, EX.Agent),
            Triple(EX.knows, RDFS.subPropertyOf, EX.interactsWith),
        ]
        mixed = data[:20] + schema[:1] + data[20:40] + schema[1:] + data[40:]
        inline_result = closure_with_slider(mixed, "rhodf")
        threaded = closure_with_slider(
            mixed, "rhodf", workers=4, buffer_size=3, timeout=0.01
        )
        assert threaded == inline_result
