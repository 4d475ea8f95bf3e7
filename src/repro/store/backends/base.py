"""The ``TripleStore`` protocol: the contract every storage backend honours.

The reasoner, the baselines and the :class:`~repro.store.graph.Graph`
wrapper address storage exclusively through this surface, so a backend
is swappable as long as it provides:

* **batch-native writes** — :meth:`add_all` / :meth:`remove_all` insert
  or delete a whole batch under bounded lock acquisitions and return the
  sub-list that actually changed, preserving input order.  The returned
  "new" list is the deduplication contract the distributors depend on.
* **predicate-first reads** — every lookup the rule modules perform is
  predicate-first (:meth:`pairs_for_predicate`, :meth:`objects`,
  :meth:`subjects`, :meth:`match`), mirroring the paper's vertical
  partitioning.
* **permutation reads** — what the cost-based planner
  (:mod:`repro.store.planner`) binds to when a pattern leaves the
  predicate free, and its O(1) per-join-step cost inputs:
  :meth:`triples_for_subject` / :meth:`triples_for_object` (the SPO /
  OSP permutations), :meth:`count_subject` / :meth:`count_object`,
  :meth:`predicates_between` and :meth:`predicate_stats`.
* **snapshot iteration** — :meth:`__iter__` and the list-returning reads
  hand back copies, so callers never iterate live index structures while
  writers run.

All triples are *encoded* ``(int, int, int)`` tuples (see
:mod:`repro.dictionary`); a backend never sees a term object.

``stats_vector() -> ((p, count, ds, do), ...)`` sorted by predicate is
an optional extra: the deterministic snapshot durability tests compare
across recovery.  So is ``has_match(s, p, o) -> bool``, equal to
``bool(match(s, p, o))`` without building the matches: DRed's support
check probes for it by ``getattr`` and falls back to :meth:`match`.

**Optional named-graph extension** (the quad protocol).  The engine
tags the explicit triples of graph-scoped deltas
(:class:`~repro.reasoner.delta.Delta` with ``graph=``) in a sparse
side column; consumers probe by ``getattr``
and treat an absent column as "everything is in the default graph":

* ``set_graphs(triples, graph_id)`` — tag stored triples with a graph
  term id (``None`` clears the tag; missing triples are ignored);
* ``graph_of(triple) -> int | None`` — the tag (None = default graph);
* ``graph_counts() -> {graph_id: count}`` — per-named-graph sizes;
* ``triples_in_graph(graph_id)`` — one graph's triples (``None`` lists
  the untagged default graph);
* ``graph_assignments() -> {triple: graph_id}`` — the sparse column as
  a copy, for snapshot writers.

Graph ids are ordinary term-dictionary ids of the graph's IRI/BNode
label, so the column journals and snapshots like any other id data.
Removing a triple always clears its tag.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, runtime_checkable

from ...dictionary.encoder import EncodedTriple

__all__ = ["TripleStore"]


@runtime_checkable
class TripleStore(Protocol):
    """Structural interface of a triple-store backend.

    ``@runtime_checkable`` so ``isinstance(obj, TripleStore)`` works for
    duck-typed third-party backends (method presence only — signatures
    are the backend author's responsibility).
    """

    # --- write path -------------------------------------------------------
    def add(self, triple: EncodedTriple) -> bool:
        """Insert one triple; True iff it was not already present."""
        ...

    def add_all(self, triples: Iterable[EncodedTriple]) -> list[EncodedTriple]:
        """Insert a batch; return the newly-added sub-list in input order."""
        ...

    def remove(self, triple: EncodedTriple) -> bool:
        """Delete one triple; True iff it was present."""
        ...

    def remove_all(self, triples: Iterable[EncodedTriple]) -> list[EncodedTriple]:
        """Delete a batch; return the sub-list that was actually removed."""
        ...

    def clear(self) -> None:
        """Remove all triples."""
        ...

    # --- read path --------------------------------------------------------
    def __len__(self) -> int: ...

    def __contains__(self, triple: EncodedTriple) -> bool: ...

    def __iter__(self) -> Iterator[EncodedTriple]:
        """Iterate a consistent snapshot of all triples."""
        ...

    def has_predicate(self, predicate: int) -> bool:
        """Is at least one triple stored under ``predicate``?"""
        ...

    def predicates(self) -> list[int]:
        """All predicate ids present in the store."""
        ...

    def count_predicate(self, predicate: int) -> int:
        """Number of triples stored under ``predicate``."""
        ...

    def pairs_for_predicate(self, predicate: int) -> list[tuple[int, int]]:
        """All (subject, object) pairs stored under ``predicate``."""
        ...

    def objects(self, predicate: int, subject: int) -> list[int]:
        """All o with (subject, predicate, o) in the store."""
        ...

    def subjects(self, predicate: int, obj: int) -> list[int]:
        """All s with (s, predicate, obj) in the store."""
        ...

    def match(
        self,
        subject: int | None = None,
        predicate: int | None = None,
        obj: int | None = None,
    ) -> list[EncodedTriple]:
        """All triples matching a pattern; ``None`` is a wildcard."""
        ...

    # --- permutation reads (the planner) ----------------------------------
    def triples_for_subject(self, subject: int) -> list[EncodedTriple]:
        """All triples with ``subject`` (the SPO permutation)."""
        ...

    def triples_for_object(self, obj: int) -> list[EncodedTriple]:
        """All triples with ``obj`` (the OSP permutation)."""
        ...

    def count_subject(self, subject: int) -> int:
        """Number of triples with ``subject``."""
        ...

    def count_object(self, obj: int) -> int:
        """Number of triples with ``obj``."""
        ...

    def predicates_between(self, subject: int, obj: int) -> list[int]:
        """All p with (subject, p, obj) in the store."""
        ...

    def predicate_stats(self, predicate: int) -> tuple[int, int, int]:
        """``(count, distinct subjects, distinct objects)`` under ``predicate``."""
        ...

    # --- statistics -------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cheap structural statistics (used by the demo report)."""
        ...
