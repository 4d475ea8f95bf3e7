"""Shared fixtures and helpers for the whole test suite."""

from __future__ import annotations

import gc
import os
import random
import threading
import time
from collections import Counter

import pytest

from repro.baselines import BatchReasoner, SemiNaiveReasoner
from repro.rdf import Literal, Namespace, RDF, RDFS, Triple
from repro.reasoner import Slider

EX = Namespace("http://example.org/")

#: The two ways a commit's rule firings execute.  ``inline`` fires every
#: buffer on the committing thread; ``pooled`` gives each routed triple
#: its own firing on a two-thread pool, so worker threads write the one
#: store concurrently with each other and with the committer.
EXECUTION_MODES = {
    "inline": {"workers": 0},
    "pooled": {"workers": 2, "buffer_size": 1},
}

#: Parametrize a test's ``execution`` argument (engine keyword options)
#: over :data:`EXECUTION_MODES`.
each_execution_mode = pytest.mark.parametrize(
    "execution", list(EXECUTION_MODES.values()), ids=list(EXECUTION_MODES)
)


@pytest.fixture(scope="module", autouse=True)
def no_leaked_threads(request):
    """Fail a module that leaves a thread it started running.

    Engines, pools, sweepers, servers and feed readers must all be
    stopped by the module that starts them; a short grace period lets a
    thread that was told to stop finish its last iteration.
    """
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 5.0
    leaked = [t for t in threading.enumerate() if t not in before and t.is_alive()]
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    leaked = sorted(t.name for t in leaked if t.is_alive())
    if leaked:
        pytest.fail(f"{request.node.nodeid} leaked threads: {leaked}", pytrace=False)


@pytest.fixture
def gc_disabled():
    """Run the test with the cyclic garbage collector off, so only
    reference counting frees objects (the collector's state is restored
    afterwards)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.fixture
def ex():
    """The shared example namespace."""
    return EX


@pytest.fixture
def fsynced(monkeypatch):
    """Predicate over the files and directories fsynced so far:
    ``fsynced(path)`` is true once an ``os.fsync`` hit that inode."""
    log: list[os.stat_result] = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        log.append(os.fstat(fd))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return lambda path: any(os.path.samestat(os.stat(path), seen) for seen in log)


class _CountingFile:
    """A file handle that adds every written byte to ``counts[name]``."""

    def __init__(self, handle, name: str, counts: Counter):
        self._handle, self._name, self._counts = handle, name, counts

    def write(self, data) -> int:
        self._counts[self._name] += len(data)
        return self._handle.write(data)

    def __getattr__(self, attribute):
        return getattr(self._handle, attribute)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


@pytest.fixture
def bytes_written(monkeypatch):
    """Bytes the persistence layer has written so far, per file name
    (a ``Counter``; atomic replacements count under their ``.tmp`` name).
    Wraps every file ``repro.persist`` opens from the start of the test,
    so long-lived handles such as a log writer's are counted too."""
    from repro.persist import format as persist_format, journal as persist_journal

    counts: Counter = Counter()

    def counting_open(path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return _CountingFile(handle, os.path.basename(path), counts)

    for module in (persist_format, persist_journal):
        monkeypatch.setattr(module, "open", counting_open, raising=False)
    return counts


def make_chain(n: int) -> list[Triple]:
    """A bare subClassOf chain C1 <- C2 <- ... <- Cn (no type triples)."""
    return [
        Triple(EX[f"C{i}"], RDFS.subClassOf, EX[f"C{i - 1}"]) for i in range(2, n + 1)
    ]


def small_ontology() -> list[Triple]:
    """A tiny ontology exercising every ρdf rule at least once."""
    return [
        # class hierarchy + instance
        Triple(EX.Cat, RDFS.subClassOf, EX.Feline),
        Triple(EX.Feline, RDFS.subClassOf, EX.Animal),
        Triple(EX.tom, RDF.type, EX.Cat),
        # property hierarchy + instance
        Triple(EX.hasPet, RDFS.subPropertyOf, EX.keeps),
        Triple(EX.keeps, RDFS.subPropertyOf, EX.interactsWith),
        Triple(EX.alice, EX.hasPet, EX.tom),
        # domain / range
        Triple(EX.keeps, RDFS.domain, EX.Person),
        Triple(EX.keeps, RDFS.range, EX.Animal),
    ]


def random_ontology(seed: int, size: int = 60, universe: int = 20) -> list[Triple]:
    """A random mixed ontology (schema + instance triples)."""
    rng = random.Random(seed)
    predicates = [
        RDFS.subClassOf,
        RDFS.subPropertyOf,
        RDFS.domain,
        RDFS.range,
        RDF.type,
        EX.knows,
        EX.likes,
        EX.near,
    ]
    triples = []
    for _ in range(size):
        predicate = rng.choice(predicates)
        subject = EX[f"n{rng.randint(0, universe)}"]
        if predicate == RDF.type and rng.random() < 0.2:
            obj = rng.choice([RDFS.Class, RDFS.Datatype])
        elif rng.random() < 0.1:
            obj = Literal(f"value {rng.randint(0, 9)}")
        else:
            obj = EX[f"n{rng.randint(0, universe)}"]
        triples.append(Triple(subject, predicate, obj))
    return triples


def closure_with_slider(triples, fragment: str, **kwargs) -> set[Triple]:
    """Materialize with the pipeline engine; return the closure set."""
    options = {"workers": 0, "timeout": None, "buffer_size": 10}
    options.update(kwargs)
    reasoner = Slider(fragment=fragment, **options)
    try:
        reasoner.add(triples)
        reasoner.flush()
        return set(reasoner.graph)
    finally:
        reasoner.close()


def closure_with_batch(triples, fragment: str) -> set[Triple]:
    """Materialize with the naive-iteration baseline; return the closure."""
    reasoner = BatchReasoner(fragment=fragment)
    reasoner.add(triples)
    reasoner.materialize()
    return set(reasoner.graph)


def closure_with_semi_naive(triples, fragment: str) -> set[Triple]:
    """Materialize with the semi-naive baseline; return the closure."""
    reasoner = SemiNaiveReasoner(fragment=fragment)
    reasoner.add(triples)
    reasoner.materialize()
    return set(reasoner.graph)
