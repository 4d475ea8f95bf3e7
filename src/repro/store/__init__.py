"""Triple store substrate: the hash-dict store, RW locking, BGP queries."""

from .backends import (
    HashDictStore,
    TripleStore,
    create_store,
)
from .graph import Graph
from .locks import ReentrantReadWriteLock
from .query import (
    Binding,
    TriplePattern,
    ask,
    construct,
    explain,
    select,
    solve,
    solve_naive,
)

__all__ = [
    "Graph",
    "ReentrantReadWriteLock",
    "TripleStore",
    "HashDictStore",
    "create_store",
    "TriplePattern",
    "Binding",
    "solve",
    "solve_naive",
    "explain",
    "select",
    "ask",
    "construct",
]
