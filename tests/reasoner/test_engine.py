"""Tests for the Slider engine: incrementality, flush, counters, errors."""

import weakref

import pytest

from repro import Delta
from repro.rdf import RDF, RDFS, Triple, Variable
from repro.reasoner import Slider, SliderError
from repro.reasoner.fragments import Fragment
from repro.reasoner.trace import Trace

from ..conftest import EX, each_execution_mode, make_chain, small_ontology


def inline_slider(**kwargs) -> Slider:
    options = {"fragment": "rhodf", "workers": 0, "timeout": None, "buffer_size": 10}
    options.update(kwargs)
    return Slider(**options)


class TestBasicReasoning:
    def test_empty_engine(self):
        reasoner = inline_slider()
        reasoner.flush()
        assert len(reasoner) == 0
        assert reasoner.input_count == 0
        assert reasoner.inferred_count == 0

    def test_small_ontology_closure(self):
        reasoner = inline_slider()
        reasoner.add(small_ontology())
        reasoner.flush()
        graph = reasoner.graph
        assert Triple(EX.tom, RDF.type, EX.Animal) in graph
        assert Triple(EX.alice, EX.keeps, EX.tom) in graph
        assert Triple(EX.alice, EX.interactsWith, EX.tom) in graph
        assert Triple(EX.alice, RDF.type, EX.Person) in graph
        assert Triple(EX.tom, RDF.type, EX.Animal) in graph
        assert Triple(EX.hasPet, RDFS.domain, EX.Person) in graph  # scm-dom2

    def test_single_triple_add(self):
        reasoner = inline_slider()
        reasoner.add(Triple(EX.a, RDFS.subClassOf, EX.b))
        reasoner.flush()
        assert reasoner.input_count == 1

    def test_counts_split_explicit_and_inferred(self):
        reasoner = inline_slider()
        reasoner.add(make_chain(10))
        reasoner.flush()
        assert reasoner.input_count == 9
        assert reasoner.inferred_count == 10 * 9 // 2 - 9
        assert len(reasoner) == reasoner.input_count + reasoner.inferred_count

    def test_duplicate_input_ignored(self):
        reasoner = inline_slider()
        triple = Triple(EX.a, RDFS.subClassOf, EX.b)
        assert reasoner.add([triple, triple]) == 1
        assert reasoner.add([triple]) == 0


class TestIncrementality:
    def test_incremental_equals_batch_add(self):
        chain = make_chain(12)
        all_at_once = inline_slider()
        all_at_once.add(chain)
        all_at_once.flush()

        one_by_one = inline_slider()
        for triple in chain:
            one_by_one.add([triple])
            one_by_one.flush()  # flush between every triple

        assert set(one_by_one.graph) == set(all_at_once.graph)

    def test_new_data_after_flush_extends_closure(self):
        reasoner = inline_slider()
        reasoner.add([Triple(EX.B, RDFS.subClassOf, EX.C)])
        reasoner.flush()
        size_before = len(reasoner)
        reasoner.add([Triple(EX.A, RDFS.subClassOf, EX.B)])
        reasoner.flush()
        assert Triple(EX.A, RDFS.subClassOf, EX.C) in reasoner.graph
        assert len(reasoner) == size_before + 2

    def test_no_rederivation_of_existing_inferences(self):
        reasoner = inline_slider()
        reasoner.add(make_chain(10))
        reasoner.flush()
        kept_before = sum(m.stats()["kept"] for m in reasoner.modules)
        # Adding an unrelated triple must not re-derive the closure.
        reasoner.add([Triple(EX.x, EX.unrelated, EX.y)])
        reasoner.flush()
        kept_after = sum(m.stats()["kept"] for m in reasoner.modules)
        assert kept_after == kept_before

    def test_schema_added_after_data(self):
        reasoner = inline_slider()
        reasoner.add([Triple(EX.alice, EX.hasPet, EX.tom)])
        reasoner.flush()
        reasoner.add([Triple(EX.hasPet, RDFS.domain, EX.Person)])
        reasoner.flush()
        assert Triple(EX.alice, RDF.type, EX.Person) in reasoner.graph


class TestFlushSemantics:
    def test_flush_reaches_fixpoint_with_large_buffers(self):
        # Buffers far larger than the input: only flush can fire them.
        reasoner = inline_slider(buffer_size=10_000)
        reasoner.add(make_chain(15))
        reasoner.flush()
        assert reasoner.inferred_count == 15 * 14 // 2 - 14

    def test_flush_is_idempotent(self):
        reasoner = inline_slider()
        reasoner.add(make_chain(8))
        reasoner.flush()
        size = len(reasoner)
        reasoner.flush()
        reasoner.flush()
        assert len(reasoner) == size

    def test_materialize_convenience(self):
        reasoner = inline_slider()
        new = reasoner.materialize(make_chain(6))
        assert new == 5
        assert reasoner.inferred_count == 6 * 5 // 2 - 5


class TestLifecycle:
    def test_context_manager_closes(self):
        with inline_slider() as reasoner:
            reasoner.add(make_chain(5))
        with pytest.raises(SliderError):
            reasoner.add(make_chain(2))

    def test_close_flushes_pending(self):
        reasoner = inline_slider(buffer_size=10_000)
        reasoner.add(make_chain(10))
        reasoner.close()  # must flush before shutting down
        assert reasoner.inferred_count == 10 * 9 // 2 - 9

    def test_double_close_is_safe(self):
        reasoner = inline_slider()
        reasoner.close()
        reasoner.close()

    def test_rule_failure_surfaces_as_slider_error(self):
        class ExplodingRule:
            name = "boom"
            input_predicates = None
            output_predicates = None

            def accepts(self, predicate):
                return True

            def apply(self, store, new_triples, vocab):
                raise RuntimeError("kaboom")

        fragment = Fragment("exploding", lambda vocab: [ExplodingRule()])
        reasoner = Slider(fragment=fragment, workers=0, timeout=None, buffer_size=1)
        with pytest.raises(SliderError, match="kaboom"):
            reasoner.add([Triple(EX.a, EX.p, EX.b)])
            reasoner.flush()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Slider(workers=-1)
        with pytest.raises(ValueError):
            Slider(timeout=-0.5)
        with pytest.raises(ValueError):
            Slider(buffer_size=0)


class TestClosedEngineIsFreed:
    """A closed engine, with its store and dictionary, is freed by
    reference counting alone: nothing it built still points back at it,
    so it does not wait for a full garbage collection."""

    @each_execution_mode
    def test_store_dies_with_the_last_reference(self, gc_disabled, execution):
        reasoner = Slider(timeout=None, **execution)
        reasoner.subscribe([(Variable("x"), RDF.type, EX.Animal)])
        reasoner.apply(Delta(assertions=small_ontology()))
        reasoner.close()
        # Reads keep working after close.
        assert Triple(EX.tom, RDF.type, EX.Animal) in reasoner.graph
        assert reasoner.input_count == len(small_ontology())
        assert reasoner.inferred_count > 0
        assert reasoner.counters()
        engine, store = weakref.ref(reasoner), weakref.ref(reasoner.store)
        del reasoner
        assert engine() is None
        assert store() is None

    @each_execution_mode
    def test_an_engine_left_by_an_exception_is_freed_too(self, gc_disabled, execution):
        with pytest.raises(RuntimeError, match="leaving"):
            with Slider(timeout=None, **execution) as reasoner:
                reasoner.apply(Delta(assertions=make_chain(5)))
                store = weakref.ref(reasoner.store)
                raise RuntimeError("leaving")
        del reasoner
        assert store() is None


class TestCountersAndIntrospection:
    def test_counters_expose_all_rules(self):
        reasoner = inline_slider()
        reasoner.add(make_chain(10))
        reasoner.flush()
        counters = reasoner.counters()
        assert set(counters) == {rule.name for rule in reasoner.rules}
        assert counters["scm-sco"]["kept"] == 10 * 9 // 2 - 9

    def test_module_lookup(self):
        reasoner = inline_slider()
        assert reasoner.module("cax-sco").rule.name == "cax-sco"
        with pytest.raises(KeyError):
            reasoner.module("not-a-rule")

    def test_repr(self):
        reasoner = inline_slider()
        assert "rhodf" in repr(reasoner)

    def test_dependency_graph_exposed(self):
        reasoner = inline_slider()
        assert "cax-sco" in reasoner.dependency_graph.successors("scm-sco")


class TestFileLoading:
    def test_load_ntriples(self, tmp_path):
        path = tmp_path / "in.nt"
        path.write_text(
            "<http://example.org/A> "
            "<http://www.w3.org/2000/01/rdf-schema#subClassOf> "
            "<http://example.org/B> .\n"
        )
        reasoner = inline_slider()
        assert reasoner.load(path) == 1

    def test_load_turtle(self, tmp_path):
        path = tmp_path / "in.ttl"
        path.write_text(
            "@prefix ex: <http://example.org/> .\nex:A rdfs:subClassOf ex:B .\n"
        )
        reasoner = inline_slider()
        assert reasoner.load(path) == 1


class TestSharedSubstrate:
    def test_reasoner_over_existing_graph(self):
        from repro.store import Graph

        graph = Graph()
        graph.add_all(make_chain(8))
        reasoner = Slider(
            fragment="rhodf",
            workers=0,
            timeout=None,
            dictionary=graph.dictionary,
            store=graph.store,
        )
        # Pre-existing triples are not re-dispatched automatically;
        # reinfer() routes the whole store through the rules once.
        reasoner.reinfer()
        assert len(graph) == 8 * 7 // 2  # closure visible through the graph

    def test_trace_records_lifecycle(self):
        trace = Trace(clock=lambda: 0.0)
        reasoner = inline_slider(trace=trace)
        reasoner.add(make_chain(5))
        reasoner.flush()
        kinds = {event.kind for event in trace}
        assert {"input", "rule_start", "rule_end", "flush", "done"} <= kinds


class TestMultipleInputManagers:
    def test_secondary_manager_feeds_same_pipeline(self):
        reasoner = inline_slider()
        secondary = reasoner.create_input_manager()
        secondary.add([Triple(EX.Cat, RDFS.subClassOf, EX.Animal)])
        reasoner.add([Triple(EX.tom, RDF.type, EX.Cat)])
        reasoner.flush()
        assert Triple(EX.tom, RDF.type, EX.Animal) in reasoner.graph
        reasoner.close()

    def test_independent_statistics(self):
        reasoner = inline_slider()
        secondary = reasoner.create_input_manager()
        secondary.add(make_chain(5))
        assert secondary.stats()["accepted"] == 4
        assert reasoner.input_manager.stats()["accepted"] == 0
        reasoner.close()

    def test_shared_assertions_support_retraction(self):
        reasoner = inline_slider()
        secondary = reasoner.create_input_manager()
        secondary.add(
            [
                Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                Triple(EX.tom, RDF.type, EX.Cat),
            ]
        )
        reasoner.flush()
        reasoner.retract(Triple(EX.tom, RDF.type, EX.Cat))
        assert Triple(EX.tom, RDF.type, EX.Animal) not in reasoner.graph
        reasoner.close()

    def test_concurrent_managers(self):
        import threading

        chain = make_chain(30)
        reasoner = Slider(fragment="rhodf", workers=2, buffer_size=5, timeout=0.01)
        managers = [reasoner.create_input_manager() for _ in range(3)]
        threads = [
            threading.Thread(target=m.add, args=(chain[i::3],))
            for i, m in enumerate(managers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        reasoner.flush()
        assert reasoner.inferred_count == 30 * 29 // 2 - 29
        reasoner.close()
