"""Storage backends.

:class:`~repro.store.backends.hashdict.HashDictStore` is the store: one
vertically-partitioned index set behind a reentrant read/write lock,
which the rule thread pool reads and writes.  Every component that
stores triples — the :class:`~repro.reasoner.engine.Slider` engine, the
batch baselines, :class:`~repro.store.graph.Graph` — takes an optional
``store=`` instance and builds a fresh ``HashDictStore`` when given
none (:func:`create_store`).

:class:`~repro.store.backends.columnar.ColumnarReadStore` is a read-only
store served straight off a mapped columnar (v2) snapshot file
(:meth:`~repro.store.backends.columnar.ColumnarReadStore.open`);
zero-copy, writes raise.

Anything satisfying the :class:`~repro.store.backends.base.TripleStore`
protocol can be passed as ``store=`` to share substrate.
"""

from __future__ import annotations

from .base import TripleStore
from .columnar import ColumnarReadStore
from .hashdict import HashDictStore

__all__ = [
    "TripleStore",
    "HashDictStore",
    "ColumnarReadStore",
    "create_store",
]


def create_store(store: TripleStore | None = None) -> TripleStore:
    """``store`` itself, or a fresh :class:`HashDictStore` for ``None``.

    Backend spec strings (``"hashdict"``, ``"sharded:N"``,
    ``"columnar:<path>"``) were removed; passing one raises
    :class:`TypeError` here rather than failing later.
    """
    if store is None:
        return HashDictStore()
    if isinstance(store, str):
        raise TypeError(
            f"store= takes a TripleStore instance or None, got {store!r}: backend "
            "spec strings ('hashdict', 'sharded:N', 'columnar:<path>') were "
            "removed; pass None for a HashDictStore"
        )
    return store
