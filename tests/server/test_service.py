"""The reasoning service: snapshot-isolated reads + coalesced writes.

Pins the PR's two concurrency acceptance criteria:

* concurrent readers observe a *consistent committed revision* while an
  apply is in flight — never a partial fixpoint;
* writes netted by the coalescer produce exactly the closure sequential
  applies produce (reusing the differential harness's delta scripts).
"""

import threading

import pytest

from repro import Delta, Slider, Triple, Variable
from repro.rdf import RDF, RDFS
from repro.server import ReasoningService, ServiceClosedError

from ..conftest import EX, each_execution_mode, small_ontology
from ..differential.test_differential import generate_script


def chain_delta(start: int, count: int) -> Delta:
    """A subClassOf chain segment: heavy derivation per apply."""
    return Delta(
        assertions=[
            Triple(EX[f"C{i}"], RDFS.subClassOf, EX[f"C{i - 1}"])
            for i in range(start, start + count)
        ]
    )


class TestSnapshotIsolation:
    def test_concurrent_readers_observe_committed_revisions_only(self):
        """Readers racing a heavy in-flight apply see only states that
        are the exact image of some committed revision."""
        deltas = [chain_delta(2 + 12 * i, 12) for i in range(5)]
        deltas.append(Delta(retractions=deltas[0].assertions[:3]))
        with ReasoningService(
            fragment="rhodf", workers=2, buffer_size=20
        ) as service:
            expected: dict[int, frozenset] = {
                service.revision: frozenset(service.view())
            }
            observed: dict[int, set[frozenset]] = {}
            observed_lock = threading.Lock()
            stop = threading.Event()
            reader_revisions: list[list[int]] = [[] for _ in range(4)]

            def reader(slot: int) -> None:
                while not stop.is_set():
                    view = service.view()
                    image = frozenset(view)  # iterate the immutable snapshot
                    with observed_lock:
                        observed.setdefault(view.revision, set()).add(image)
                    reader_revisions[slot].append(view.revision)

            readers = [
                threading.Thread(target=reader, args=(slot,), daemon=True)
                for slot in range(4)
            ]
            for thread in readers:
                thread.start()
            for delta in deltas:
                result = service.apply(delta.assertions, delta.retractions)
                expected[result.revision] = frozenset(
                    service.view(at=result.revision)
                )
            stop.set()
            for thread in readers:
                thread.join(timeout=10)

            assert set(observed) <= set(expected), "reader saw an uncommitted revision"
            for revision, images in observed.items():
                assert images == {expected[revision]}, (
                    f"revision {revision}: a reader observed a state that is "
                    "not the committed image (snapshot isolation violated)"
                )
            for revisions in reader_revisions:
                assert revisions == sorted(revisions), "revisions went backwards"
            # The race was real: at least one reader observed more than
            # one distinct revision while the writer was committing.
            assert len(observed) > 1

    def test_read_your_writes(self):
        with ReasoningService(fragment="rhodf", workers=0, timeout=None) as service:
            result = service.apply(small_ontology())
            pinned = service.graph(at=result.revision)
            x = Variable("x")
            assert pinned.ask([(x, RDF.type, EX.Animal)])
            assert service.revision >= result.revision


class TestCoalescing:
    """The pipeline's own contract (netting, paused bursts, close,
    failure isolation) lives in ``test_write_pipeline.py``."""

    @each_execution_mode
    def test_coalesced_script_matches_sequential_closure(self, execution):
        """Differential harness scripts through the coalescer == the same
        deltas applied sequentially, at the final revision."""
        script = generate_script(4242, steps=8)
        with Slider(
            fragment="rhodf", timeout=None, **execution
        ) as sequential:
            for delta in script:
                sequential.apply(delta)
            reference = set(sequential.graph)

        with ReasoningService(
            fragment="rhodf", timeout=None, **execution
        ) as service:
            # Pairs of script deltas are forced into one coalesced
            # revision each — arrival order must decide the outcome.
            for index in range(0, len(script), 2):
                with service.writes.paused():
                    batch = [
                        service.submit(delta.assertions, delta.retractions)
                        for delta in script[index : index + 2]
                    ]
                for pending in batch:
                    pending.wait(30)
            assert set(service.graph()) == reference

    def test_writes_visible_before_wait_returns(self):
        """The view registry advances before a waiter resumes."""
        with ReasoningService(fragment="rhodf", workers=0, timeout=None) as service:
            triple = Triple(EX.alice, EX.knows, EX.bob)
            result = service.apply([triple])
            view = service.view(at=result.revision)
            encoded = service.reasoner.dictionary.encode_triple(triple)
            assert encoded in view


class TestSubscriptionChannels:
    def test_channel_queues_binding_deltas(self):
        with ReasoningService(fragment="rhodf", workers=0, timeout=None) as service:
            service.apply(
                [Triple(EX.Cat, RDFS.subClassOf, EX.Animal)]
            )
            x = Variable("x")
            channel = service.subscribe_channel([(x, RDF.type, EX.Animal)])
            assert channel.initial_solutions() == []
            service.apply([Triple(EX.tom, RDF.type, EX.Cat)])
            event = channel.get(timeout=5)
            assert event is not None
            assert [dict(b) for b in event.added] == [{x: EX.tom}]
            channel.close()
            assert channel.get(timeout=0.1) is None
            assert channel.closed


class TestLifecycle:
    def test_closed_service_rejects_work(self):
        service = ReasoningService(fragment="rhodf", workers=0, timeout=None)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.apply([Triple(EX.a, EX.p, EX.b)])
        with pytest.raises(ServiceClosedError):
            service.view()
        service.close()  # idempotent

    def test_stats_shape(self):
        with ReasoningService(fragment="rhodf", workers=0, timeout=None) as service:
            service.apply(small_ontology())
            stats = service.stats()
            assert stats["revision"] == service.revision
            assert stats["triples"] == len(service.view())
            assert stats["engine"]["fragment"] == "rhodf"
            assert stats["writes"]["commits"] >= 1
            assert stats["recovery"] is None
            assert stats["persist"] is None
            assert stats["views"]["current"] in stats["views"]["retained"]

    def test_rejects_mixed_construction(self):
        with Slider(fragment="rhodf", workers=0, timeout=None) as reasoner:
            with pytest.raises(ValueError):
                ReasoningService(reasoner=reasoner, fragment="rdfs")
