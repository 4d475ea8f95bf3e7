"""Concurrency tests: the threaded pipeline must match the inline one."""

import sys
import threading
from collections import Counter

import pytest

from repro import Delta
from repro.obs import REGISTRY, parse_exposition
from repro.rdf import RDF, RDFS, Triple
from repro.reasoner import Slider, SliderError
from repro.reasoner.fragments import Fragment

from ..conftest import EX, make_chain, random_ontology, small_ontology


def threaded_closure(triples, **kwargs):
    options = {
        "fragment": "rhodf",
        "workers": 4,
        "buffer_size": 3,
        "timeout": 0.01,
    }
    options.update(kwargs)
    with Slider(**options) as reasoner:
        reasoner.add(triples)
        reasoner.flush()
        return set(reasoner.graph)


def inline_closure(triples, fragment="rhodf"):
    with Slider(fragment=fragment, workers=0, timeout=None) as reasoner:
        reasoner.add(triples)
        reasoner.flush()
        return set(reasoner.graph)


class TestThreadedEqualsInline:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_chain_closure(self, workers):
        chain = make_chain(20)
        assert threaded_closure(chain, workers=workers) == inline_closure(chain)

    @pytest.mark.parametrize("buffer_size", [1, 2, 7, 50, 100_000])
    def test_buffer_size_does_not_change_result(self, buffer_size):
        ontology = small_ontology()
        assert threaded_closure(ontology, buffer_size=buffer_size) == inline_closure(
            ontology
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ontologies(self, seed):
        ontology = random_ontology(seed, size=80)
        assert threaded_closure(ontology) == inline_closure(ontology)

    @pytest.mark.parametrize("fragment", ["rhodf", "rdfs", "owl-horst"])
    def test_fragments_under_threads(self, fragment):
        ontology = small_ontology()
        assert threaded_closure(ontology, fragment=fragment) == inline_closure(
            ontology, fragment=fragment
        )


class TestConcurrentProducers:
    def test_many_threads_feeding_one_engine(self):
        chain = make_chain(30)
        chunks = [chain[i::4] for i in range(4)]
        with Slider(fragment="rhodf", workers=4, buffer_size=5, timeout=0.01) as r:
            threads = [
                threading.Thread(target=r.add, args=(chunk,)) for chunk in chunks
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            r.flush()
            result = set(r.graph)
        assert result == inline_closure(chain)

    def test_interleaved_add_and_flush(self):
        chain = make_chain(25)
        with Slider(fragment="rhodf", workers=2, buffer_size=4, timeout=0.01) as r:
            for i in range(0, len(chain), 5):
                r.add(chain[i : i + 5])
                if i % 10 == 0:
                    r.flush()
            r.flush()
            assert set(r.graph) == inline_closure(chain)


class TestTimeoutSweeper:
    def test_timeout_fires_stale_buffers(self):
        """A buffer below capacity must still be processed via timeout."""
        import time

        with Slider(
            fragment="rhodf", workers=2, buffer_size=1_000_000, timeout=0.02
        ) as r:
            r.add(
                [
                    Triple(EX.Cat, RDFS.subClassOf, EX.Animal),
                    Triple(EX.tom, RDF.type, EX.Cat),
                ]
            )
            deadline = time.monotonic() + 5.0
            expected = Triple(EX.tom, RDF.type, EX.Animal)
            while time.monotonic() < deadline:
                if expected in r.graph:
                    break
                time.sleep(0.01)
            assert expected in r.graph  # inferred with NO explicit flush
            timeout_fires = sum(
                m.buffer.timeout_fires for m in r.modules
            )
            assert timeout_fires >= 1

    def test_inline_mode_has_no_sweeper(self):
        reasoner = Slider(fragment="rhodf", workers=0, timeout=0.01)
        assert reasoner._sweeper is None
        reasoner.close()


def firings() -> dict[str, float]:
    """``slider_engine_firings_total`` by path, read off the exposition."""
    family = parse_exposition(REGISTRY.expose())["slider_engine_firings_total"]
    return {labels["path"]: value for _name, labels, value in family["samples"]}


@pytest.fixture
def counted(monkeypatch):
    """Count an engine's pool submissions and store read-lock
    acquisitions: ``watch(engine)`` wraps both (as ``fsynced`` wraps
    ``os.fsync``) and returns the live :class:`Counter`."""
    counts: Counter = Counter()

    def watch(engine: Slider) -> Counter:
        for owner, method in (
            (engine._executor, "submit"),
            (engine.store.lock, "acquire_read"),
        ):
            real = getattr(owner, method)

            def counting(*args, _real=real, _key=method, **kwargs):
                counts[_key] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, method, counting)
        return counts

    return watch


class TestWhereFiringsRun:
    """A buffer the commit drains below capacity fires on the committing
    thread; only full (or stale) buffers go to the pool."""

    def test_small_commit_fires_inline_only(self):
        with Slider(fragment="rdfs", workers=2, timeout=None) as reasoner:
            reasoner.apply(Delta(assertions=small_ontology()))
            before = firings()
            reasoner.apply(
                Delta(
                    assertions=[
                        Triple(EX.rex, RDF.type, EX.Dog),
                        Triple(EX.bob, EX.hasPet, EX.rex),
                        Triple(EX.Dog, RDFS.subClassOf, EX.Animal),
                    ]
                )
            )
            after = firings()
        assert after["inline"] > before["inline"]
        assert after["pool"] == before["pool"]

    def test_bulk_load_fans_out_to_the_pool(self):
        load = [Triple(EX.C0, RDFS.subClassOf, EX.C1)]
        load += [Triple(EX[f"i{n}"], RDF.type, EX.C0) for n in range(499)]
        with Slider(fragment="rhodf", workers=2, timeout=None) as reasoner:
            before = firings()
            reasoner.apply(Delta(assertions=load))
            assert firings()["pool"] > before["pool"]
            assert reasoner.inferred_count == 499


    def test_mixed_paths_under_fast_thread_switching(self):
        """Drains firing on the committing thread race pool size-fires of
        the same rules; a lost update would lose a derivation."""
        chain = make_chain(40)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with Slider(fragment="rhodf", workers=4, buffer_size=3, timeout=None) as r:
                for start in range(0, len(chain), 4):
                    r.apply(Delta(assertions=chain[start:start + 4]))
                result = set(r.graph)
        finally:
            sys.setswitchinterval(interval)
        assert result == inline_closure(chain)


class TestSmallCommitCostIsScaleFree:
    """The same 3-triple commit costs the same work — no pool hand-off,
    equal module runs, equal store read locks — whatever the store holds."""

    COMMIT = Delta(
        assertions=[
            Triple(EX.fresh, RDF.type, EX.C0),
            Triple(EX.fresh, EX.knows, EX.i0),
            Triple(EX.i1, EX.knows, EX.fresh),
        ]
    )

    @staticmethod
    def loaded(instances: int) -> Slider:
        schema = [Triple(EX[f"C{k}"], RDFS.subClassOf, EX[f"C{k + 1}"]) for k in range(3)]
        schema += [
            Triple(EX.knows, RDFS.domain, EX.C1),
            Triple(EX.knows, RDFS.range, EX.C2),
        ]
        typed = [Triple(EX[f"i{n}"], RDF.type, EX[f"C{n % 3}"]) for n in range(instances)]
        reasoner = Slider(fragment="rdfs", workers=2, timeout=None)
        reasoner.apply(Delta(assertions=schema + typed))
        return reasoner

    def commit_cost(self, instances: int, watch) -> tuple:
        with self.loaded(instances) as reasoner:
            counts = watch(reasoner)
            counts.clear()
            runs_before = sum(m.executions for m in reasoner.modules)
            report = reasoner.apply(self.COMMIT)
            runs = sum(m.executions for m in reasoner.modules) - runs_before
            return (
                counts["submit"],
                runs,
                counts["acquire_read"],
                report.inferred_added_count,
            )

    def test_same_counts_at_100_and_10000_instances(self, counted):
        small = self.commit_cost(100, counted)
        large = self.commit_cost(10_000, counted)
        assert small[0] == large[0] == 0  # no pool submission
        assert small[3] > 0  # the commit derived something
        assert small == large


class TestInlineFiringFailure:
    def test_failure_fails_closed(self):
        class FailOnce:
            name = "fail-once"
            input_predicates = None
            output_predicates = None

            def __init__(self):
                self.threads: list[threading.Thread] = []

            def accepts(self, predicate):
                return True

            def apply(self, store, new_triples, vocab):
                self.threads.append(threading.current_thread())
                if len(self.threads) == 1:
                    raise RuntimeError("kaboom")
                return []

        rule = FailOnce()
        journal: list[tuple] = []
        fragment = Fragment("fail-once", lambda vocab: [rule])
        reasoner = Slider(fragment=fragment, workers=2, timeout=None)
        reasoner.add_commit_listener(
            lambda revision, assertions, retractions: journal.append(assertions)
        )
        with pytest.raises(SliderError, match="kaboom"):
            reasoner.apply(Delta(assertions=[Triple(EX.a, EX.p, EX.b)]))
        # The failed apply's explicit triple stays in the store and the
        # change log, but in no journal record: a later report would list
        # it and a replica replaying the journal would diverge.  So every
        # later call raises the same failure, closing included.
        with pytest.raises(SliderError, match="kaboom"):
            reasoner.apply(Delta(assertions=[Triple(EX.c, EX.p, EX.d)]))
        with pytest.raises(SliderError, match="kaboom"):
            reasoner.close()
        assert rule.threads == [threading.current_thread()]  # fired inline, once
        assert journal == []
