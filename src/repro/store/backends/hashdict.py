"""The hash-dict backend: one vertically-partitioned index pair, one lock.

The paper stores triples "indexed by predicates, later by subjects and
finally by objects" (the vertical partitioning of Abadi et al., PVLDB'07),
because every rule in the ρdf/RDFS/OWL rule tables either scans all triples
or accesses them by predicate first.  Concurrency is handled by a reentrant
read/write lock; the hash-based indexes give free duplicate elimination,
which the distributors rely on to avoid re-dispatching known triples.

This implementation mirrors that design exactly:

* ``_pso[p][s] -> set of o``  (predicate partition, subject index)
* ``_pos[p][o] -> set of s``  (predicate partition, object index)

and extends it with the two permutations the cost-based query planner
binds to when a pattern leaves the predicate free:

* ``_spo[s][p] -> set of o``  (subject-first, for ``(s, ?p, ?o)``)
* ``_osp[o][p] -> set of s``  (object-first, for ``(?s, ?p, o)`` and
  the fully predicate-free ``(s, ?p, o)`` probe)

The permutations add no leaf sets of their own: ``_spo[s][p]`` *is*
the set object ``_pso[p][s]``, and ``_osp[o][p]`` *is* ``_pos[p][o]``.
Each leaf is created once, when its ``(p, s)`` or ``(p, o)`` pair first
appears, and unlinked from both maps when it empties.  Sets and dicts
are the containers Python's cyclic garbage collector tracks, and a full
collection walks every live one, however small the chunk whose
allocations triggered it.  Sharing the leaves keeps the store at one set
per distinct ``(p, s)`` and per distinct ``(p, o)`` pair, plus one dict
per index key.

Per-predicate cardinality counters are maintained incrementally on the
write path, so :meth:`count_predicate` and :meth:`predicate_stats` are
O(1) — the planner consults them per join step and must not pay a scan.

All triples are *encoded* ``(int, int, int)`` tuples (see
:mod:`repro.dictionary`).  The store never sees a term object.

This is the one mutable store: every engine, baseline and
:class:`~repro.store.graph.Graph` builds one unless handed a store
instance.  The rule thread pool (``workers>0``) reads and writes it
concurrently.

Locking.  Every write takes the write side of the reentrant read/write
lock, and so does every read that iterates a live container in
bytecode: :meth:`pairs_for_predicate`, the ``triples_for_*`` and
``count_subject`` / ``count_object`` reads, :meth:`predicates_between`,
:meth:`match`, :meth:`__iter__`, :meth:`stats_vector`,
:meth:`predicate_stats` and the graph-column listings take the read
side.  *Point reads* take no lock: :meth:`__contains__`,
:meth:`has_predicate`, :meth:`count_predicate`, :meth:`objects`,
:meth:`subjects`, :meth:`graph_of` and :meth:`has_match` each do a fixed
number of C-level dict/set operations (a ``get``, an ``in``, a ``len``
or one ``list()`` copy of a leaf set).  Entering and leaving the
pure-Python lock costs ~3 µs, some forty times the ~0.08 µs probe it
would guard (CPython 3.11, 2-core x86 box).  Point reads are safe
without it because:

1. Under the GIL, one dict or set operation on int keys (or tuples of
   ints) runs uninterrupted: hashing and comparing ints runs no
   bytecode, so no thread switch can fall inside it.  Free-threaded
   CPython gives the same per-object atomicity.
2. A point read follows one chain of references, index dict → inner
   dict → leaf set, with ``get`` at every level, because a writer
   creates ``_pso[p]`` before ``_pos[p]`` and bumps the counters last.
   Removal only unlinks containers it has already emptied, and a point
   read treats an empty container as absent.  So every answer equals
   the store's contents before or after some single triple's add or
   remove, whatever the writer is doing.
3. The engine's completeness invariant ("stored before dispatched", see
   :mod:`repro.reasoner.engine`) never relied on readers excluding
   writers: with the lock, one read was atomic and a join of several
   reads already interleaved with the pool's ``add_all`` calls.

Iterating reads keep the lock because a bytecode loop over a live dict
or set raises "changed size during iteration" when a pool thread adds
to it; it is a reader–writer lock, not one exclusive lock, so the
pool's partition scans still run side by side.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ...dictionary.encoder import EncodedTriple
from ..locks import ReentrantReadWriteLock

__all__ = ["HashDictStore"]


class HashDictStore:
    """Thread-safe vertically-partitioned store of encoded triples.

    Writes (:meth:`add`, :meth:`add_all`) take the write lock; iterating
    reads take the read lock and point reads none (see the module
    docstring).  ``add_all`` returns only the triples that were *new*,
    which is the deduplication contract the distributors depend on
    ("after adding inferred triples in the triple store only distinct
    triples are sent to the buffers").
    """

    def __init__(self):
        self._pso: dict[int, dict[int, set[int]]] = {}
        self._pos: dict[int, dict[int, set[int]]] = {}
        self._spo: dict[int, dict[int, set[int]]] = {}
        self._osp: dict[int, dict[int, set[int]]] = {}
        self._predicate_counts: dict[int, int] = {}
        # Sparse named-graph column: triple -> graph term id.  Absence
        # means the default graph, so triple-only workloads pay nothing.
        self._graphs: dict[EncodedTriple, int] = {}
        self._graph_counts: dict[int, int] = {}
        self._size = 0
        self.lock = ReentrantReadWriteLock()

    # --- write path ---------------------------------------------------------
    def add(self, triple: EncodedTriple) -> bool:
        """Insert one triple.  Returns True iff it was not already present."""
        with self.lock.write():
            return self._add_unlocked(triple)

    def add_all(self, triples: Iterable[EncodedTriple]) -> list[EncodedTriple]:
        """Insert many triples under a single write-lock acquisition.

        Returns the sub-list that was actually new, preserving input order.
        """
        new_triples: list[EncodedTriple] = []
        with self.lock.write():
            for triple in triples:
                if self._add_unlocked(triple):
                    new_triples.append(triple)
        return new_triples

    def _add_unlocked(self, triple: EncodedTriple) -> bool:
        subject, predicate, obj = triple
        subject_index = self._pso.get(predicate)
        if subject_index is None:
            subject_index = self._pso[predicate] = {}
            self._pos[predicate] = {}
        objects = subject_index.get(subject)
        if objects is None:
            # A new (p, s) leaf, shared by _pso[p][s] and _spo[s][p].
            objects = subject_index[subject] = {obj}
            by_predicate = self._spo.get(subject)
            if by_predicate is None:
                self._spo[subject] = {predicate: objects}
            else:
                by_predicate[predicate] = objects
        elif obj in objects:
            return False
        else:
            objects.add(obj)
        object_index = self._pos[predicate]
        subjects = object_index.get(obj)
        if subjects is None:
            # A new (p, o) leaf, shared by _pos[p][o] and _osp[o][p].
            subjects = object_index[obj] = {subject}
            by_predicate = self._osp.get(obj)
            if by_predicate is None:
                self._osp[obj] = {predicate: subjects}
            else:
                by_predicate[predicate] = subjects
        else:
            subjects.add(subject)
        self._predicate_counts[predicate] = self._predicate_counts.get(predicate, 0) + 1
        self._size += 1
        return True

    def remove(self, triple: EncodedTriple) -> bool:
        """Delete one triple.  Returns True iff it was present."""
        with self.lock.write():
            return self._remove_unlocked(triple)

    def remove_all(self, triples: Iterable[EncodedTriple]) -> list[EncodedTriple]:
        """Delete many triples under one write lock; returns those removed."""
        removed: list[EncodedTriple] = []
        with self.lock.write():
            for triple in triples:
                if self._remove_unlocked(triple):
                    removed.append(triple)
        return removed

    def _remove_unlocked(self, triple: EncodedTriple) -> bool:
        subject, predicate, obj = triple
        subject_index = self._pso.get(predicate)
        if subject_index is None:
            return False
        objects = subject_index.get(subject)
        if objects is None or obj not in objects:
            return False
        objects.remove(obj)
        if not objects:
            del subject_index[subject]
            by_predicate = self._spo[subject]
            del by_predicate[predicate]
            if not by_predicate:
                del self._spo[subject]
        object_index = self._pos[predicate]
        subjects = object_index[obj]
        subjects.remove(subject)
        if not subjects:
            del object_index[obj]
            by_predicate = self._osp[obj]
            del by_predicate[predicate]
            if not by_predicate:
                del self._osp[obj]
        if not subject_index:
            del self._pso[predicate]
            del self._pos[predicate]
        remaining = self._predicate_counts[predicate] - 1
        if remaining:
            self._predicate_counts[predicate] = remaining
        else:
            del self._predicate_counts[predicate]
        graph_id = self._graphs.pop(triple, None)
        if graph_id is not None:
            graph_remaining = self._graph_counts[graph_id] - 1
            if graph_remaining:
                self._graph_counts[graph_id] = graph_remaining
            else:
                del self._graph_counts[graph_id]
        self._size -= 1
        return True

    # --- named-graph column (optional protocol extension) -------------------
    def set_graphs(self, triples: Iterable[EncodedTriple], graph_id: int | None) -> None:
        """Tag stored triples with a named-graph term id.

        ``graph_id=None`` clears the tag (moves the triples back to the
        default graph).  Triples not present in the store are ignored —
        the engine tags exactly the explicit triples it just inserted.
        """
        with self.lock.write():
            graphs, counts = self._graphs, self._graph_counts
            for triple in triples:
                subject_index = self._pso.get(triple[1])
                if subject_index is None:
                    continue
                objects = subject_index.get(triple[0])
                if objects is None or triple[2] not in objects:
                    continue
                previous = graphs.pop(triple, None)
                if previous is not None:
                    remaining = counts[previous] - 1
                    if remaining:
                        counts[previous] = remaining
                    else:
                        del counts[previous]
                if graph_id is not None:
                    graphs[triple] = graph_id
                    counts[graph_id] = counts.get(graph_id, 0) + 1

    def graph_of(self, triple: EncodedTriple) -> int | None:
        """The graph term id tagged on ``triple`` (None = default graph)."""
        return self._graphs.get(triple)

    def graph_counts(self) -> dict[int, int]:
        """``{graph term id: triple count}`` over the named graphs (copy)."""
        with self.lock.read():
            return dict(self._graph_counts)

    def triples_in_graph(self, graph_id: int | None) -> list[EncodedTriple]:
        """All triples tagged into one named graph (None = default graph).

        The default graph is everything *not* tagged, so listing it costs
        a full scan; named graphs cost one pass over the sparse column.
        """
        with self.lock.read():
            if graph_id is None:
                tagged = self._graphs
                return [t for t in self._iter_unlocked() if t not in tagged]
            return [t for t, g in self._graphs.items() if g == graph_id]

    def graph_assignments(self) -> dict[EncodedTriple, int]:
        """A copy of the sparse graph column (snapshot writers)."""
        with self.lock.read():
            return dict(self._graphs)

    # --- read path -----------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: EncodedTriple) -> bool:
        subject, predicate, obj = triple
        subject_index = self._pso.get(predicate)
        if subject_index is None:
            return False
        objects = subject_index.get(subject)
        return objects is not None and obj in objects

    def has_match(
        self,
        subject: int | None = None,
        predicate: int | None = None,
        obj: int | None = None,
    ) -> bool:
        """Does any triple match the pattern?  ``bool(match(...))``
        without building the matches: O(1) for every shape but the
        predicate-free ``(s, ?p, o)``, which asks :meth:`match`."""
        if predicate is not None:
            if subject is not None:
                if obj is not None:
                    return (subject, predicate, obj) in self
                subject_index = self._pso.get(predicate)
                return subject_index is not None and bool(subject_index.get(subject))
            if obj is not None:
                object_index = self._pos.get(predicate)
                return object_index is not None and bool(object_index.get(obj))
            return bool(self._pso.get(predicate))
        if subject is not None:
            if obj is not None:
                return bool(self.match(subject, None, obj))
            return bool(self._spo.get(subject))
        if obj is not None:
            return bool(self._osp.get(obj))
        return self._size > 0

    def has_predicate(self, predicate: int) -> bool:
        """O(1): is at least one triple stored under ``predicate``?

        Rule firings use this to skip a whole body position when another
        pattern of the body cannot match (e.g. no ``rdfs:domain`` triples
        exist at all — the common case for schema-light streams).
        """
        return bool(self._pso.get(predicate))

    def predicates(self) -> list[int]:
        """All predicate ids present in the store."""
        with self.lock.read():
            return list(self._pso.keys())

    def count_predicate(self, predicate: int) -> int:
        """Number of triples stored under ``predicate`` (O(1))."""
        return self._predicate_counts.get(predicate, 0)

    def pairs_for_predicate(self, predicate: int) -> list[tuple[int, int]]:
        """All (subject, object) pairs stored under ``predicate``.

        Returns a list copy so rule modules can iterate without holding
        the read lock (the paper's modules snapshot relevant triples, then
        compute outside the critical section).
        """
        with self.lock.read():
            subject_index = self._pso.get(predicate)
            if subject_index is None:
                return []
            return [
                (subject, obj)
                for subject, objects in subject_index.items()
                for obj in objects
            ]

    def objects(self, predicate: int, subject: int) -> list[int]:
        """All objects o with (subject, predicate, o) in the store."""
        subject_index = self._pso.get(predicate)
        if subject_index is None:
            return []
        return list(subject_index.get(subject, ()))

    def subjects(self, predicate: int, obj: int) -> list[int]:
        """All subjects s with (s, predicate, obj) in the store."""
        object_index = self._pos.get(predicate)
        if object_index is None:
            return []
        return list(object_index.get(obj, ()))

    # --- permutation-index read surface (planner protocol) ----------------
    def triples_for_subject(self, subject: int) -> list[EncodedTriple]:
        """All triples with the given subject, via the SPO permutation."""
        with self.lock.read():
            predicate_index = self._spo.get(subject)
            if predicate_index is None:
                return []
            return [
                (subject, predicate, obj)
                for predicate, objects in predicate_index.items()
                for obj in objects
            ]

    def triples_for_object(self, obj: int) -> list[EncodedTriple]:
        """All triples with the given object, via the OSP permutation."""
        with self.lock.read():
            predicate_index = self._osp.get(obj)
            if predicate_index is None:
                return []
            return [
                (subject, predicate, obj)
                for predicate, subjects in predicate_index.items()
                for subject in subjects
            ]

    def count_subject(self, subject: int) -> int:
        """Number of triples with the given subject."""
        with self.lock.read():
            predicate_index = self._spo.get(subject)
            if predicate_index is None:
                return 0
            return sum(len(objects) for objects in predicate_index.values())

    def count_object(self, obj: int) -> int:
        """Number of triples with the given object."""
        with self.lock.read():
            predicate_index = self._osp.get(obj)
            if predicate_index is None:
                return 0
            return sum(len(subjects) for subjects in predicate_index.values())

    def predicates_between(self, subject: int, obj: int) -> list[int]:
        """All predicates p with (subject, p, obj) in the store (OSP probe)."""
        with self.lock.read():
            return self._predicates_between_unlocked(subject, obj)

    def _predicates_between_unlocked(self, subject: int, obj: int) -> list[int]:
        # Scan whichever end has fewer predicates; each step is one
        # membership test in a shared leaf.
        objects_by_predicate = self._spo.get(subject)
        subjects_by_predicate = self._osp.get(obj)
        if objects_by_predicate is None or subjects_by_predicate is None:
            return []
        if len(objects_by_predicate) <= len(subjects_by_predicate):
            return [p for p, objects in objects_by_predicate.items() if obj in objects]
        return [p for p, subjects in subjects_by_predicate.items() if subject in subjects]

    def predicate_stats(self, predicate: int) -> tuple[int, int, int]:
        """``(cardinality, distinct subjects, distinct objects)`` for one
        predicate, all O(1) — the planner's per-join-step cost inputs."""
        with self.lock.read():
            count = self._predicate_counts.get(predicate, 0)
            if not count:
                return (0, 0, 0)
            return (
                count,
                len(self._pso[predicate]),
                len(self._pos[predicate]),
            )

    def stats_vector(self) -> tuple[tuple[int, int, int, int], ...]:
        """Deterministic per-predicate stats snapshot, sorted by predicate id.

        Each row is ``(predicate, cardinality, distinct subjects, distinct
        objects)``.  Durability tests compare this bit-identically across
        snapshot restore, WAL recovery, and follower replay.
        """
        with self.lock.read():
            return tuple(
                (
                    predicate,
                    self._predicate_counts[predicate],
                    len(self._pso[predicate]),
                    len(self._pos[predicate]),
                )
                for predicate in sorted(self._predicate_counts)
            )

    def match(
        self,
        subject: int | None = None,
        predicate: int | None = None,
        obj: int | None = None,
    ) -> list[EncodedTriple]:
        """All triples matching a pattern; ``None`` is a wildcard.

        Dispatches to the cheapest index for the bound positions, in the
        spirit of the paper's "near-optimal indexing for nearly all rules".
        """
        with self.lock.read():
            if predicate is not None:
                return self._match_with_predicate(subject, predicate, obj)
            if subject is not None and obj is not None:
                return [
                    (subject, p, obj)
                    for p in self._predicates_between_unlocked(subject, obj)
                ]
            if subject is not None:
                predicate_index = self._spo.get(subject)
                if predicate_index is None:
                    return []
                return [
                    (subject, p, o)
                    for p, objects in predicate_index.items()
                    for o in objects
                ]
            if obj is not None:
                predicate_index = self._osp.get(obj)
                if predicate_index is None:
                    return []
                return [
                    (s, p, obj)
                    for p, subjects in predicate_index.items()
                    for s in subjects
                ]
            results: list[EncodedTriple] = []
            for known_predicate in self._pso:
                results.extend(self._match_with_predicate(None, known_predicate, None))
            return results

    def _match_with_predicate(
        self, subject: int | None, predicate: int, obj: int | None
    ) -> list[EncodedTriple]:
        subject_index = self._pso.get(predicate)
        if subject_index is None:
            return []
        if subject is not None:
            objects = subject_index.get(subject)
            if objects is None:
                return []
            if obj is not None:
                return [(subject, predicate, obj)] if obj in objects else []
            return [(subject, predicate, o) for o in objects]
        if obj is not None:
            subjects = self._pos[predicate].get(obj)
            if subjects is None:
                return []
            return [(s, predicate, obj) for s in subjects]
        return [
            (s, predicate, o)
            for s, objects in subject_index.items()
            for o in objects
        ]

    def _iter_unlocked(self) -> Iterator[EncodedTriple]:
        return (
            (subject, predicate, obj)
            for predicate, subject_index in self._pso.items()
            for subject, objects in subject_index.items()
            for obj in objects
        )

    def __iter__(self) -> Iterator[EncodedTriple]:
        """Iterate a consistent snapshot of all triples."""
        with self.lock.read():
            snapshot = list(self._iter_unlocked())
        return iter(snapshot)

    def clear(self) -> None:
        """Remove all triples."""
        with self.lock.write():
            self._pso.clear()
            self._pos.clear()
            self._spo.clear()
            self._osp.clear()
            self._predicate_counts.clear()
            self._graphs.clear()
            self._graph_counts.clear()
            self._size = 0

    # --- statistics -------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cheap structural statistics (used by the demo report)."""
        with self.lock.read():
            return {
                "triples": self._size,
                "predicates": len(self._pso),
                "subject_keys": sum(len(index) for index in self._pso.values()),
                "object_keys": sum(len(index) for index in self._pos.values()),
            }
