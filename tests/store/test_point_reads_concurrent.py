"""Lock-free point reads under a concurrent writer.

``HashDictStore``'s point reads (``in``, ``objects``, ``subjects``,
``has_match``, ``count_predicate``) take no lock.  Two reader threads
hammer them while one writer adds batches that create new predicates,
subjects and leaf sets, then removes half of them, with the interpreter
switching threads every microsecond.  No read may raise, every answer
must be one the store held at some instant — inside the planned set,
growing while the writer only adds, shrinking while it only removes —
and once the writer is done every answer must equal the model set.
"""

import itertools
import random
import sys
import threading

from repro.store import HashDictStore

BATCHES = 240
BATCH_SIZE = 15
#: Ids past every planned term: probes built from them never match.
ABSENT = 10_000


#: One subject and one object whose leaf sets under predicate 0 every
#: batch grows, so readers copy large sets while the writer changes them.
HOT_SUBJECT, HOT_OBJECT = 1, 2


def planned_batches(seed: int = 7) -> list[list[tuple[int, int, int]]]:
    """Batches that keep opening new predicates, subjects and objects,
    and keep growing two hot leaves."""
    rng = random.Random(seed)
    batches = []
    for k in range(BATCHES):
        predicate = k // 3
        subjects = range(100 + 10 * k, 110 + 10 * k)
        objects = [*range(20), *range(1000 + 5 * k, 1005 + 5 * k)]
        batch = {(rng.choice(subjects), predicate, rng.choice(objects)) for _ in range(BATCH_SIZE)}
        for n in range(10):
            batch.add((HOT_SUBJECT, 0, 5000 + 10 * k + n))
            batch.add((5000 + 10 * k + n, 0, HOT_OBJECT))
        batches.append(sorted(batch))
    return batches


def shapes(triple):
    """The eight bound/unbound patterns over one triple's terms."""
    for keep in itertools.product((False, True), repeat=3):
        yield tuple(term if kept else None for term, kept in zip(triple, keep))


class Answers:
    """Every point read's answer over a fixed set of triples."""

    def __init__(self, triples):
        self.triples = triples
        self.objects: dict = {}
        self.subjects: dict = {}
        self.counts: dict = {}
        self.patterns = set()
        for triple in triples:
            s, p, o = triple
            self.objects.setdefault((p, s), set()).add(o)
            self.subjects.setdefault((p, o), set()).add(s)
            self.counts[p] = self.counts.get(p, 0) + 1
            self.patterns.update(shapes(triple))
        for index in (self.objects, self.subjects):
            index.update((key, frozenset(values)) for key, values in index.items())

    def of(self, read):
        kind = read[0]
        if kind == "in":
            return read[1] in self.triples
        if kind == "objects":
            return self.objects.get(read[1:], frozenset())
        if kind == "subjects":
            return self.subjects.get(read[1:], frozenset())
        if kind == "count":
            return self.counts.get(read[1], 0)
        return read[1] in self.patterns


def point_reads(store, triple):
    """``(read, answer)`` for every point read keyed by ``triple``."""
    s, p, o = triple
    yield ("in", triple), triple in store
    yield ("objects", p, s), frozenset(store.objects(p, s))
    yield ("subjects", p, o), frozenset(store.subjects(p, o))
    yield ("count", p), store.count_predicate(p)
    for pattern in shapes(triple):
        yield ("has_match", pattern), store.has_match(*pattern)


class Reader:
    """Hammers the point reads, checking each answer against the planned
    triples and against the last answer to the same read."""

    def __init__(self, store, planned: Answers, seed):
        self.store = store
        self.planned = planned
        self.keys = sorted(planned.triples) + [(ABSENT, ABSENT, ABSENT), (ABSENT, 0, 0)]
        self.rng = random.Random(seed)
        self.reads = 0

    def run(self, phase_over: threading.Event, growing: bool):
        seen: dict = {}
        while not phase_over.is_set():
            for read, answer in point_reads(self.store, self.rng.choice(self.keys)):
                # Inside what the writer ever planned ...
                assert answer <= self.planned.of(read), (read, answer)
                # ... and one-way: growing while adding, shrinking while removing.
                if read in seen:
                    before, after = (seen[read], answer) if growing else (answer, seen[read])
                    assert before <= after, (read, seen[read], answer)
                seen[read] = answer
                self.reads += 1


def test_point_reads_race_a_writer():
    batches = planned_batches()
    planned = Answers({t for batch in batches for t in batch})
    removed = [batch[::2] for batch in batches]
    model = Answers(planned.triples - {t for batch in removed for t in batch})
    store = HashDictStore()
    adding_over, removing_over = threading.Event(), threading.Event()
    turn = threading.Barrier(3)
    failures: list[BaseException] = []
    readers = [Reader(store, planned, seed) for seed in (1, 2)]

    def read(reader):
        try:
            reader.run(adding_over, growing=True)
            turn.wait()
            reader.run(removing_over, growing=False)
        except BaseException as error:  # reported by the main thread
            failures.append(error)
            turn.abort()

    def write():
        try:
            for batch in batches:
                store.add_all(batch)
            adding_over.set()
            turn.wait()  # readers start their shrinking phase afresh
            for batch in removed:
                store.remove_all(batch)
        except BaseException as error:
            failures.append(error)
        finally:
            adding_over.set()
            removing_over.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(r,)) for r in readers]
        threads.append(threading.Thread(target=write))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert all(reader.reads for reader in readers)

    assert set(store) == model.triples
    for triple in sorted(planned.triples) + [(ABSENT, 0, 0)]:
        for read, answer in point_reads(store, triple):
            assert answer == model.of(read), (read, answer)
