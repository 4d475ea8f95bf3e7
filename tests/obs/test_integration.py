"""Instrumentation under real concurrent traffic.

The registry's own concurrency is unit-tested in ``test_metrics``;
here racing writers go through the full service pipeline (coalescer →
engine → views), and the global
instruments must stay exact where exactness is promised (submissions)
and consistent where coalescing makes counts workload-dependent
(commits), while a concurrent scrape stays valid.
"""

import threading

from repro.obs import instruments as _obs
from repro.obs import validate_exposition
from repro.rdf import RDF, Triple
from repro.server import ReasoningService

from ..conftest import EX, each_execution_mode

THREADS = 6
WRITES_PER_THREAD = 20


@each_execution_mode
def test_racing_writers_instrument_exactly(execution):
    submitted_before = _obs.COALESCER_SUBMITTED.value()
    commits_before = _obs.ENGINE_COMMITS.value()
    errors: list[BaseException] = []

    with ReasoningService(
        fragment="rhodf", timeout=None, **execution
    ) as service:

        def writer(worker: int) -> None:
            try:
                for n in range(WRITES_PER_THREAD):
                    service.apply(
                        [Triple(EX[f"s{worker}-{n}"], RDF.type, EX.Thing)]
                    )
            except BaseException as error:  # pragma: no cover - surfaced below
                errors.append(error)

        pool = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(THREADS)
        ]
        for thread in pool:
            thread.start()
        scrapes = 0
        while any(thread.is_alive() for thread in pool):
            validate_exposition(_obs.REGISTRY.expose())  # scrape mid-race
            scrapes += 1
        for thread in pool:
            thread.join()
        assert not errors
        assert scrapes > 0
        # Exact: every submission was counted, none lost to the race.
        total_writes = THREADS * WRITES_PER_THREAD
        assert (
            _obs.COALESCER_SUBMITTED.value() - submitted_before == total_writes
        )
        # Coalescing nets submissions, so commits <= writes; but every
        # write must be inside SOME counted commit, and all data landed.
        commits = _obs.ENGINE_COMMITS.value() - commits_before
        assert 1 <= commits
        graph = service.graph()
        stored = sum(
            1
            for worker in range(THREADS)
            for n in range(WRITES_PER_THREAD)
            if Triple(EX[f"s{worker}-{n}"], RDF.type, EX.Thing) in graph
        )
        assert stored == total_writes
