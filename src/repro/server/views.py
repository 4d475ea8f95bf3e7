"""Snapshot-isolated read views: one immutable store image per revision.

The serving layer must let many readers query the maintained closure
while writes stream in.  Letting readers touch the engine's live store
would expose them to half-applied revisions (the rule pipeline inserts
triples throughout the fixpoint computation, not just at commit), and
gating them behind the commit lock would serialize reads against writes.

Instead, reads go to a :class:`ReadView`: an immutable image of the
store *at one committed revision*, indexed the way the paper's store is
("by predicates, later by subjects and finally by objects").  A view is
a shared **base** plus a small per-revision **overlay**:

* the base holds, per predicate, ``subject -> objects`` and
  ``object -> subjects`` (and the per-predicate triple counts).  It is
  built once from the quiesced store, never changes afterwards, and is
  shared by every view derived from it;
* the overlay holds what happened since the base: the triples added
  (indexed the same way) and the triples removed (*tombstones*).  Each
  committed revision derives the next view from its predecessor by
  folding in the revision's :class:`~repro.reasoner.delta.InferenceReport`
  encoded diff.  The overlay's two dict levels (predicate, then key) are
  path-copied for the predicates the diff touches; a key's members live
  in an append-only list the whole chain shares, each view remembering
  how long a prefix is its own — so typing one more instance into a class
  writes one list cell, whatever the class already holds, and a
  predecessor is never mutated;
* when the overlay outgrows :data:`REBASE_FRACTION` of the base it is
  folded into a fresh base (only the keys it touched get new postings,
  everything else is shared with the old base), which keeps the
  fold amortised O(1) per triple and the overlay's spine short.

Every read is an index probe costing O(result): base posting, plus the
overlay's, minus tombstones — and the tombstone filter is skipped
outright while there are none.

A reader simply grabs the current view reference and queries it for as
long as it likes: commits never mutate a published view, so there is
nothing to lock and nothing to block.  :class:`ViewRegistry` keeps a
short ring of recent revisions so a client can pin an exact revision id
(``GET /select?at=N``) across several requests; pinned views share their
base (and most of their overlay) with the current one.

``ReadView`` implements the read half of the
:class:`~repro.store.backends.base.TripleStore` protocol, so the
ordinary :class:`~repro.store.graph.Graph` / :mod:`repro.store.query`
machinery evaluates BGPs against a view unchanged; the write half raises.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict
from typing import Iterable, Iterator

from ..dictionary.encoder import EncodedTriple
from ..obs import TRACER, instruments as _obs
from ..reasoner.delta import InferenceReport
from ..store.backends import TripleStore

__all__ = [
    "ReadView",
    "ViewRegistry",
    "RevisionGoneError",
    "REBASE_FRACTION",
    "REBASE_FLOOR",
]

#: The overlay (added triples + tombstones) is folded into a fresh base
#: once it holds more than this fraction of the base's triples: a fold
#: costs at most O(base), so it is amortised O(1 / fraction) per triple.
REBASE_FRACTION = 0.25

#: ... but never before the overlay holds this many triples, so a small
#: (or still empty) store does not re-base on every commit.
REBASE_FLOOR = 1024


class RevisionGoneError(LookupError):
    """The pinned revision is older than the registry's retention ring."""


def _index_pairs(pairs: Iterable[tuple[int, int]]) -> tuple[dict, dict]:
    """``(subject -> objects, object -> subjects)`` of one partition."""
    by_subject: dict[int, set[int]] = {}
    by_object: dict[int, set[int]] = {}
    for s, o in pairs:
        posting = by_subject.get(s)
        if posting is None:
            by_subject[s] = {o}
        else:
            posting.add(o)
        posting = by_object.get(o)
        if posting is None:
            by_object[o] = {s}
        else:
            posting.add(s)
    return by_subject, by_object


class _Base:
    """The immutable indexed image every view of one generation shares."""

    __slots__ = ("pso", "pos", "counts", "size", "lock")

    def __init__(self, pso: dict, pos: dict, counts: dict[int, int]):
        #: predicate -> subject -> set of objects (never mutated)
        self.pso = pso
        #: predicate -> object -> set of subjects (never mutated)
        self.pos = pos
        #: predicate -> number of triples
        self.counts = counts
        self.size = sum(counts.values())
        #: Serialises ``advance()`` over this generation: the overlay's
        #: posting lists are shared and appended to in place.
        self.lock = threading.Lock()


class ReadView:
    """An immutable triple-store image at one committed revision.

    Read-only: the mutation half of the ``TripleStore`` protocol raises
    :class:`TypeError`.  Derive the successor revision's view with
    :meth:`advance` (structure-sharing, delta-proportional cost).
    """

    __slots__ = (
        "revision",
        "_base",
        "_pso",
        "_pos",
        "_dead",
        "_stats",
        "_size",
        "_overlay",
        "entries_written",
    )

    def __init__(self, revision: int, base: _Base):
        self.revision = revision
        self._base = base
        #: Overlay additions: predicate -> subject -> (objects, n) and
        #: predicate -> object -> (subjects, n).  The list is shared along
        #: the chain and append-only; this view's members are its first n.
        self._pso: dict[int, dict[int, tuple[list[int], int]]] = {}
        self._pos: dict[int, dict[int, tuple[list[int], int]]] = {}
        #: Tombstones: predicate -> set of removed (subject, object) pairs,
        #: over base and overlay members alike.
        self._dead: dict[int, set[tuple[int, int]]] = {}
        #: ``(count, distinct s, distinct o)`` of every predicate the
        #: overlay touched (count 0 = emptied); others read off the base.
        self._stats: dict[int, tuple[int, int, int]] = {}
        self._size = base.size
        #: Overlay size the re-base decision is made on: added + dead.
        self._overlay = 0
        #: Index entries :meth:`advance` wrote deriving this view from its
        #: predecessor (dict slots copied or set, list cells appended).
        self.entries_written = 0

    @classmethod
    def from_store(cls, revision: int, store: TripleStore) -> "ReadView":
        """Materialize a view from a (quiesced) live store. O(store)."""
        pso, pos, counts = {}, {}, {}
        for predicate in store.predicates():
            pairs = store.pairs_for_predicate(predicate)
            if pairs:
                pso[predicate], pos[predicate] = _index_pairs(pairs)
                counts[predicate] = len(pairs)
        return cls(revision, _Base(pso, pos, counts))

    # --- deriving the next revision ---------------------------------------
    def advance(self, report: InferenceReport) -> "ReadView":
        """The next revision's view: this view plus the report's diff.

        Touches O(|diff|) index entries plus the overlay's dict spine of
        the touched predicates — never the members of a posting — and
        folds the overlay into a fresh base when it has outgrown it.
        """
        added, removed = report.added_encoded, report.removed_encoded
        with TRACER.span(
            "view.advance", revision=report.revision, delta=len(added) + len(removed)
        ) as span:
            started = time.perf_counter()
            successor = copy.copy(self)  # shares base and overlay until _fold_in
            successor.revision = report.revision
            successor.entries_written = 0
            rebased = False
            if added or removed:
                with self._base.lock:
                    successor._fold_in(added, removed)
                budget = max(REBASE_FLOOR, self._base.size * REBASE_FRACTION)
                if successor._overlay > budget:
                    successor = successor._rebased()
                    rebased = True
            span.set(
                entries=successor.entries_written,
                overlay=successor._overlay,
                rebased=rebased,
            )
            if _obs.REGISTRY.enabled:
                _obs.VIEWS_ADVANCE_SECONDS.observe(time.perf_counter() - started)
                _obs.VIEWS_OVERLAY_TRIPLES.set(successor._overlay)
                if rebased:
                    _obs.VIEWS_REBASES.inc()
        return successor

    def _fold_in(self, added, removed) -> None:
        """Apply one diff to this not-yet-published successor in place."""
        written = 0
        # Path copy, level 1: the successor's own predicate maps.
        self._pso, self._pos = dict(self._pso), dict(self._pos)
        self._dead, self._stats = dict(self._dead), dict(self._stats)
        written += len(self._pso) + len(self._pos) + len(self._dead) + len(self._stats)
        owned: set[int] = set()  # ids of the level-2 containers copied so far

        def own(outer: dict, predicate: int, kind: type):
            inner = outer.get(predicate)
            if id(inner) not in owned:
                inner = kind(inner) if inner else kind()
                outer[predicate] = inner
                owned.add(id(inner))
                return inner, len(inner) + 1
            return inner, 0

        for s, p, o in removed:
            if (s, p, o) not in self:
                continue
            count, distinct_s, distinct_o = self.predicate_stats(p)
            dead, copied = own(self._dead, p, set)
            dead.add((s, o))
            written += copied + 2
            self._overlay += 1
            self._size -= 1
            self._stats[p] = (
                count - 1,
                distinct_s - (not self._live_subject(p, s)),
                distinct_o - (not self._live_object(p, o)),
            )
        for s, p, o in added:
            if (s, p, o) in self:
                continue
            count, distinct_s, distinct_o = self.predicate_stats(p)
            new_s = not self._live_subject(p, s)
            new_o = not self._live_object(p, o)
            dead = self._dead.get(p)
            if dead and (s, o) in dead:
                # Re-asserting a tombstoned triple: lift the tombstone.
                dead, copied = own(self._dead, p, set)
                dead.discard((s, o))
                if not dead:
                    del self._dead[p]
                written += copied + 1
                self._overlay -= 1
            else:
                for outer, key, member in ((self._pso, s, o), (self._pos, o, s)):
                    inner, copied = own(outer, p, dict)
                    written += copied + _append(inner, key, member)
                self._overlay += 1
            self._size += 1
            self._stats[p] = (count + 1, distinct_s + new_s, distinct_o + new_o)
            written += 1
        self.entries_written = written

    def _live_subject(self, predicate: int, subject: int) -> bool:
        """Does ``subject`` still have a live triple under ``predicate``?"""
        if self._dead.get(predicate):
            return bool(self.objects(predicate, subject))
        return subject in self._base.pso.get(predicate, ()) or subject in self._pso.get(
            predicate, ()
        )

    def _live_object(self, predicate: int, obj: int) -> bool:
        """Does ``obj`` still have a live triple under ``predicate``?"""
        if self._dead.get(predicate):
            return bool(self.subjects(predicate, obj))
        return obj in self._base.pos.get(predicate, ()) or obj in self._pos.get(
            predicate, ()
        )

    def _rebased(self) -> "ReadView":
        """This view's contents over a fresh base and an empty overlay.

        Only the partitions the overlay touched get a new index, and in
        those only the touched keys a new posting; the rest of the old
        base is shared.
        """
        base = self._base
        pso, pos, counts = dict(base.pso), dict(base.pos), dict(base.counts)
        for predicate, (count, _, _) in self._stats.items():
            if not count:
                for index in (pso, pos, counts):
                    index.pop(predicate, None)
                continue
            counts[predicate] = count
            dead = self._dead.get(predicate, ())
            pso[predicate] = self._merged(
                base.pso, self._pso, predicate, {s for s, _ in dead}, self.objects
            )
            pos[predicate] = self._merged(
                base.pos, self._pos, predicate, {o for _, o in dead}, self.subjects
            )
        rebased = ReadView(self.revision, _Base(pso, pos, counts))
        rebased.entries_written = self.entries_written
        return rebased

    def _merged(self, base_index, overlay_index, predicate, dead_keys, probe) -> dict:
        """One side of a partition's fresh index: the base's, with every
        key the overlay touched re-read through this view's own probe."""
        index = dict(base_index.get(predicate, ()))
        for key in dead_keys.union(overlay_index.get(predicate, ())):
            members = probe(predicate, key)
            if members:
                index[key] = set(members)
            else:
                index.pop(key, None)
        return index

    # --- TripleStore read protocol ------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: EncodedTriple) -> bool:
        s, p, o = triple
        index = self._base.pso.get(p)
        posting = index.get(s) if index is not None else None
        if posting is None or o not in posting:
            index = self._pso.get(p)
            tail = index.get(s) if index is not None else None
            if tail is None or o not in tail[0][: tail[1]]:
                return False
        return not self._dead or (s, o) not in self._dead.get(p, ())

    def __iter__(self) -> Iterator[EncodedTriple]:
        for predicate in self.predicates():
            for s, o in self.pairs_for_predicate(predicate):
                yield (s, predicate, o)

    def has_predicate(self, predicate: int) -> bool:
        """Does any triple with this predicate id exist in the view?"""
        return self.predicate_stats(predicate)[0] > 0

    def predicates(self) -> list[int]:
        """Every predicate id with at least one triple, unordered."""
        stats = self._stats
        if not stats:
            return list(self._base.counts)
        return [p for p in self._base.counts if p not in stats] + [
            p for p, (count, _, _) in stats.items() if count
        ]

    def count_predicate(self, predicate: int) -> int:
        """Number of triples in this predicate's partition."""
        return self.predicate_stats(predicate)[0]

    def pairs_for_predicate(self, predicate: int) -> list[tuple[int, int]]:
        """The ``(subject, object)`` pairs of one predicate partition."""
        pairs = [
            (s, o)
            for s, objects in self._base.pso.get(predicate, {}).items()
            for o in objects
        ]
        overlay = self._pso.get(predicate)
        if overlay:
            pairs += [(s, o) for s, (objects, n) in overlay.items() for o in objects[:n]]
        dead = self._dead.get(predicate)
        if dead:
            pairs = [pair for pair in pairs if pair not in dead]
        return pairs

    def _probe(self, base_index: dict, overlay_index: dict, predicate: int, key: int) -> list[int]:
        """Base posting + this view's prefix of the overlay's, tombstones in."""
        found: list[int] = []
        index = base_index.get(predicate)
        if index is not None:
            posting = index.get(key)
            if posting is not None:
                found = list(posting)
        index = overlay_index.get(predicate)
        if index is not None:
            tail = index.get(key)
            if tail is not None:
                found += tail[0][: tail[1]]
        return found

    def objects(self, predicate: int, subject: int) -> list[int]:
        """Object ids of ``(subject, predicate, ?o)`` triples."""
        found = self._probe(self._base.pso, self._pso, predicate, subject)
        dead = self._dead.get(predicate)
        if dead:
            found = [o for o in found if (subject, o) not in dead]
        return found

    def subjects(self, predicate: int, obj: int) -> list[int]:
        """Subject ids of ``(?s, predicate, obj)`` triples."""
        found = self._probe(self._base.pos, self._pos, predicate, obj)
        dead = self._dead.get(predicate)
        if dead:
            found = [s for s in found if (s, obj) not in dead]
        return found

    def match(
        self,
        subject: int | None = None,
        predicate: int | None = None,
        obj: int | None = None,
    ) -> list[EncodedTriple]:
        """All triples matching the given bound positions (None = any)."""
        if predicate is not None:
            if subject is not None and obj is not None:
                triple = (subject, predicate, obj)
                return [triple] if triple in self else []
            if subject is not None:
                return [(subject, predicate, o) for o in self.objects(predicate, subject)]
            if obj is not None:
                return [(s, predicate, obj) for s in self.subjects(predicate, obj)]
            return [(s, predicate, o) for s, o in self.pairs_for_predicate(predicate)]
        if subject is not None and obj is not None:
            return [(subject, p, obj) for p in self.predicates_between(subject, obj)]
        if subject is not None:
            return self.triples_for_subject(subject)
        if obj is not None:
            return self.triples_for_object(obj)
        return list(self)

    def stats(self) -> dict[str, int]:
        """Triple/predicate counts and the revision, JSON-ready."""
        return {
            "triples": self._size,
            "predicates": len(self.predicates()),
            "revision": self.revision,
        }

    # --- permutation-index read surface (planner protocol) ----------------
    # The image is predicate-first: a predicate-free probe asks each
    # partition's subject/object index in turn, O(predicates + result).
    def triples_for_subject(self, subject: int) -> list[EncodedTriple]:
        """All triples of one subject."""
        return [
            (subject, p, o) for p in self.predicates() for o in self.objects(p, subject)
        ]

    def triples_for_object(self, obj: int) -> list[EncodedTriple]:
        """All triples of one object."""
        return [(s, p, obj) for p in self.predicates() for s in self.subjects(p, obj)]

    def count_subject(self, subject: int) -> int:
        """Number of triples with the given subject."""
        return sum(len(self.objects(p, subject)) for p in self.predicates())

    def count_object(self, obj: int) -> int:
        """Number of triples with the given object."""
        return sum(len(self.subjects(p, obj)) for p in self.predicates())

    def predicates_between(self, subject: int, obj: int) -> list[int]:
        """Predicate ids linking ``subject`` to ``obj``."""
        return [p for p in self.predicates() if (subject, p, obj) in self]

    def predicate_stats(self, predicate: int) -> tuple[int, int, int]:
        """``(cardinality, distinct subjects, distinct objects)``, O(1)."""
        stats = self._stats.get(predicate)
        if stats is not None:
            return stats
        count = self._base.counts.get(predicate)
        if not count:
            return (0, 0, 0)
        return (count, len(self._base.pso[predicate]), len(self._base.pos[predicate]))

    def stats_vector(self) -> tuple[tuple[int, int, int, int], ...]:
        """Deterministic per-predicate stats rows, sorted by predicate id."""
        return tuple(
            (predicate,) + self.predicate_stats(predicate)
            for predicate in sorted(self.predicates())
        )

    # --- TripleStore write protocol: a view is immutable --------------------
    def _immutable(self, *_args, **_kwargs):
        raise TypeError(
            f"ReadView is an immutable snapshot (revision {self.revision}); "
            "mutations go through the engine's apply() pipeline"
        )

    add = add_all = remove = remove_all = clear = _immutable

    def __repr__(self):
        return f"<ReadView revision={self.revision} triples={self._size}>"


def _append(index: dict, key: int, member: int) -> int:
    """Give ``key`` one more member in a successor's own overlay index;
    returns the entries written.

    The member list is shared with the predecessors, which only ever read
    their own prefix of it — so appending in place is invisible to them.
    Only when another successor already appended past this prefix (a view
    advanced twice) is the prefix copied first.
    """
    tail = index.get(key)
    if tail is None:
        index[key] = ([member], 1)
        return 2
    members, n = tail
    written = 2
    if len(members) != n:
        members = members[:n]
        written += n
    members.append(member)
    index[key] = (members, n + 1)
    return written


class ViewRegistry:
    """The chain of recent :class:`ReadView` instances, by revision id.

    ``advance`` is called once per committed revision (from the write
    path); ``current``/``at`` are called from any number of reader
    threads.  Publication is a single reference assignment under a lock,
    and the returned views are immutable — readers never block writers
    and vice versa.
    """

    def __init__(self, initial: ReadView, retain: int = 8):
        if retain < 1:
            raise ValueError(f"retain must be >= 1, got {retain}")
        self._retain = retain
        self._lock = threading.Lock()
        self._current = initial
        self._by_revision: "OrderedDict[int, ReadView]" = OrderedDict(
            [(initial.revision, initial)]
        )

    def current(self) -> ReadView:
        """The view of the latest published revision."""
        return self._current  # reference read: atomic under the GIL

    def at(self, revision: int) -> ReadView:
        """The view pinned at ``revision``; raises if evicted/unknown."""
        with self._lock:
            view = self._by_revision.get(revision)
        if view is None:
            raise RevisionGoneError(
                f"revision {revision} is not retained "
                f"(oldest kept: {self.oldest_revision()})"
            )
        return view

    def advance(self, report: InferenceReport) -> ReadView:
        """Publish the view for one committed revision's report."""
        view = self._current.advance(report)
        with self._lock:
            self._current = view
            self._by_revision[view.revision] = view
            while len(self._by_revision) > self._retain:
                self._by_revision.popitem(last=False)
        return view

    def oldest_revision(self) -> int:
        """The oldest revision still pinnable via ``at=``."""
        with self._lock:
            return next(iter(self._by_revision))

    def revisions(self) -> list[int]:
        """Retained revision ids, oldest first."""
        with self._lock:
            return list(self._by_revision)

    def __repr__(self):
        return (
            f"<ViewRegistry current={self._current.revision} "
            f"retained={len(self._by_revision)}>"
        )
