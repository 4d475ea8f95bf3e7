"""Triple store substrate: pluggable backends, RW locking, BGP queries."""

from .backends import (
    HashDictStore,
    ShardedTripleStore,
    TripleStore,
    UnknownBackendError,
    available_backends,
    create_store,
    register_backend,
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
    unify,
)

__all__ = [
    "Graph",
    "ReentrantReadWriteLock",
    "TripleStore",
    "HashDictStore",
    "ShardedTripleStore",
    "UnknownBackendError",
    "create_store",
    "register_backend",
    "available_backends",
    "TriplePattern",
    "Binding",
    "solve",
    "solve_naive",
    "explain",
    "select",
    "ask",
    "construct",
    "unify",
]
