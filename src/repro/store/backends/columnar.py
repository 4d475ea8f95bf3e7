"""A read-only triple store over a mapped columnar (v2) snapshot.

:class:`ColumnarReadStore` serves the read half of the
:class:`~repro.store.backends.base.TripleStore` protocol directly off
the sorted id columns of a :class:`~repro.persist.columnar.ColumnarSnapshot`
— no hydration, no heap-resident copy.  Every lookup is a pair of
binary searches over ``memoryview`` windows into the mapped file:

* ``(s, ·, ·)``-shaped patterns bisect the SPO ordering (sorted by
  subject, then predicate, then object);
* ``(·, p, ·)``-shaped patterns bisect the POS ordering (sorted by
  predicate, then object, then subject) — the vertical-partitioning
  access path every rule module uses.

This is the substrate of lazy follower bootstrap: the replica maps the
downloaded image and serves queries *immediately* while the mutable
store hydrates in the background (see
:mod:`repro.replication.follower`), and of the zero-copy load path in
:func:`repro.persist.snapshot.load_snapshot`.

The write half raises :class:`TypeError`, exactly like
:class:`~repro.server.views.ReadView`: mutations belong to the engine.
:meth:`ColumnarReadStore.open` maps a v2 snapshot file; the instance
plugs into :class:`~repro.store.graph.Graph` (``Graph(store=...)``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator

from ...dictionary.encoder import EncodedTriple

__all__ = ["ColumnarReadStore"]


class ColumnarReadStore:
    """Read-only ``TripleStore`` over the sorted columns of a v2 image."""

    __slots__ = ("snapshot", "_spo", "_pos", "_size", "_pred_spans", "_pred_stats")

    def __init__(self, snapshot):
        self.snapshot = snapshot
        self._spo = snapshot.spo
        self._pos = snapshot.pos
        self._size = snapshot.triple_count
        #: predicate id -> (lo, hi) row span in the POS ordering,
        #: built lazily on the first predicate-shaped lookup.
        self._pred_spans: dict[int, tuple[int, int]] | None = None
        #: predicate id -> (count, distinct s, distinct o), lazily cached
        #: per predicate — the planner's cost inputs over a mapped image.
        self._pred_stats: dict[int, tuple[int, int, int]] = {}

    @classmethod
    def open(cls, path) -> "ColumnarReadStore":
        """Map a v2 snapshot file and serve reads over it."""
        from ...persist.columnar import load_columnar_snapshot

        return cls(load_columnar_snapshot(path))

    # --- sorted-column primitives ----------------------------------------
    @staticmethod
    def _span(column, value: int, lo: int, hi: int) -> tuple[int, int]:
        """The half-open row range where ``column == value`` within [lo, hi)."""
        first = bisect_left(column, value, lo, hi)
        if first == hi or column[first] != value:
            return first, first
        return first, bisect_right(column, value, first, hi)

    def _predicate_spans(self) -> dict[int, tuple[int, int]]:
        spans = self._pred_spans
        if spans is None:
            spans = {}
            p_col = self._pos[0]
            lo, size = 0, self._size
            while lo < size:
                predicate = p_col[lo]
                hi = bisect_right(p_col, predicate, lo, size)
                spans[predicate] = (lo, hi)
                lo = hi
            self._pred_spans = spans
        return spans

    # --- TripleStore read protocol ----------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: EncodedTriple) -> bool:
        s, p, o = triple
        s_col, p_col, o_col = self._spo
        lo, hi = self._span(s_col, s, 0, self._size)
        if lo == hi:
            return False
        lo, hi = self._span(p_col, p, lo, hi)
        if lo == hi:
            return False
        lo, hi = self._span(o_col, o, lo, hi)
        return lo != hi

    def __iter__(self) -> Iterator[EncodedTriple]:
        s_col, p_col, o_col = self._spo
        for i in range(self._size):
            yield (s_col[i], p_col[i], o_col[i])

    def has_predicate(self, predicate: int) -> bool:
        return predicate in self._predicate_spans()

    def predicates(self) -> list[int]:
        return list(self._predicate_spans())

    def count_predicate(self, predicate: int) -> int:
        lo, hi = self._predicate_spans().get(predicate, (0, 0))
        return hi - lo

    def pairs_for_predicate(self, predicate: int) -> list[tuple[int, int]]:
        lo, hi = self._predicate_spans().get(predicate, (0, 0))
        _, o_col, s_col = self._pos
        return [(s_col[i], o_col[i]) for i in range(lo, hi)]

    def objects(self, predicate: int, subject: int) -> list[int]:
        s_col, p_col, o_col = self._spo
        lo, hi = self._span(s_col, subject, 0, self._size)
        lo, hi = self._span(p_col, predicate, lo, hi)
        return list(o_col[lo:hi])

    def subjects(self, predicate: int, obj: int) -> list[int]:
        lo, hi = self._predicate_spans().get(predicate, (0, 0))
        p_col, o_col, s_col = self._pos
        lo, hi = self._span(o_col, obj, lo, hi)
        return list(s_col[lo:hi])

    # --- permutation-index read surface (planner protocol) ----------------
    def triples_for_subject(self, subject: int) -> list[EncodedTriple]:
        """All triples with the given subject: one bisect on SPO."""
        s_col, p_col, o_col = self._spo
        lo, hi = self._span(s_col, subject, 0, self._size)
        return [(subject, p_col[i], o_col[i]) for i in range(lo, hi)]

    def triples_for_object(self, obj: int) -> list[EncodedTriple]:
        """All triples with the given object: one bisect per POS partition."""
        return self.match(obj=obj)

    def count_subject(self, subject: int) -> int:
        s_col, _, _ = self._spo
        lo, hi = self._span(s_col, subject, 0, self._size)
        return hi - lo

    def count_object(self, obj: int) -> int:
        _, o_col, _ = self._pos
        total = 0
        for lo, hi in self._predicate_spans().values():
            first, last = self._span(o_col, obj, lo, hi)
            total += last - first
        return total

    def predicates_between(self, subject: int, obj: int) -> list[int]:
        s_col, p_col, o_col = self._spo
        lo, hi = self._span(s_col, subject, 0, self._size)
        return [p_col[i] for i in range(lo, hi) if o_col[i] == obj]

    def predicate_stats(self, predicate: int) -> tuple[int, int, int]:
        """``(cardinality, distinct subjects, distinct objects)``, cached.

        The POS span is sorted by object, so distinct objects fall out of
        a run-length walk; distinct subjects need one set pass.  Both are
        computed once per predicate per image (the image never mutates).
        """
        cached = self._pred_stats.get(predicate)
        if cached is not None:
            return cached
        lo, hi = self._predicate_spans().get(predicate, (0, 0))
        count = hi - lo
        if not count:
            stats = (0, 0, 0)
        else:
            _, o_col, s_col = self._pos
            distinct_objects = 1
            previous = o_col[lo]
            for i in range(lo + 1, hi):
                value = o_col[i]
                if value != previous:
                    distinct_objects += 1
                    previous = value
            distinct_subjects = len({s_col[i] for i in range(lo, hi)})
            stats = (count, distinct_subjects, distinct_objects)
        self._pred_stats[predicate] = stats
        return stats

    def stats_vector(self) -> tuple[tuple[int, int, int, int], ...]:
        """Deterministic per-predicate stats rows, sorted by predicate id."""
        return tuple(
            (predicate,) + self.predicate_stats(predicate)
            for predicate in sorted(self._predicate_spans())
        )

    def match(
        self,
        subject: int | None = None,
        predicate: int | None = None,
        obj: int | None = None,
    ) -> list[EncodedTriple]:
        if subject is not None:
            s_col, p_col, o_col = self._spo
            lo, hi = self._span(s_col, subject, 0, self._size)
            if predicate is not None:
                lo, hi = self._span(p_col, predicate, lo, hi)
                if obj is not None:
                    lo, hi = self._span(o_col, obj, lo, hi)
                return [(subject, predicate, o_col[i]) for i in range(lo, hi)]
            if obj is None:
                return [(subject, p_col[i], o_col[i]) for i in range(lo, hi)]
            return [
                (subject, p_col[i], o_col[i])
                for i in range(lo, hi)
                if o_col[i] == obj
            ]
        if predicate is not None:
            lo, hi = self._predicate_spans().get(predicate, (0, 0))
            p_col, o_col, s_col = self._pos
            if obj is not None:
                lo, hi = self._span(o_col, obj, lo, hi)
            return [(s_col[i], predicate, o_col[i]) for i in range(lo, hi)]
        if obj is not None:
            # (·, ·, o): one bisect per predicate partition of POS.
            p_col, o_col, s_col = self._pos
            matches: list[EncodedTriple] = []
            for p, (lo, hi) in self._predicate_spans().items():
                first, last = self._span(o_col, obj, lo, hi)
                matches.extend((s_col[i], p, obj) for i in range(first, last))
            return matches
        return list(self)

    def stats(self) -> dict[str, int]:
        return {
            "triples": self._size,
            "predicates": len(self._predicate_spans()),
            "revision": self.snapshot.revision,
        }

    # --- TripleStore write protocol: the image is immutable ----------------
    def _immutable(self, *_args, **_kwargs):
        raise TypeError(
            "ColumnarReadStore serves a mapped snapshot image "
            f"(revision {self.snapshot.revision}); it is read-only — "
            "hydrate into a mutable backend to apply deltas"
        )

    add = add_all = remove = remove_all = clear = _immutable

    def close(self) -> None:
        """Release the underlying snapshot map.

        The store's own column views must go first: an ``mmap`` cannot
        close while exported ``memoryview`` pointers are alive.
        """
        self._spo = self._pos = None
        self._pred_spans = None
        self._pred_stats = {}
        self._size = 0
        self.snapshot.close()

    def __repr__(self):
        return (
            f"<ColumnarReadStore revision={self.snapshot.revision} "
            f"triples={self._size}>"
        )
