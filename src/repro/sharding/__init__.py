"""Partitioned multi-leader commit pipeline.

Horizontal write scaling for the reasoner: the triple space is
partitioned across N in-process leader engines (each with its own
dictionary, store, and WAL/snapshot directory), deltas are routed by a
pluggable partition key, per-shard sub-commits run concurrently, and
cross-partition rule closure is reached by forwarding derived triples
between shards to a global fixpoint.  The merge is deterministic —
vector of per-shard revisions, one monotonic global revision, stable
tie-break by shard index — so reports, subscriptions, and read views
are identical to the single-node engine's (the differential harness
enforces exactly that, for N ∈ {2, 4}).

Entry points:

* :class:`~repro.sharding.cluster.ShardedReasoner` — the cluster facade
  (a drop-in for ``Slider`` wherever the service/feed/CLI duck-type it;
  its ``apply_many`` is the engine protocol the server's one write
  pipeline drains into);
* :mod:`~repro.sharding.router` — subject-hash (default) and
  predicate-group routing.
"""

from .cluster import (
    CLUSTER_LOG_FILENAME,
    CLUSTER_META_FILENAME,
    ClusterError,
    ClusterRecoveryInfo,
    SUPPORTED_FRAGMENTS,
    ShardedReasoner,
)
from .router import (
    BROADCAST,
    ROUTERS,
    PredicateGroupRouter,
    Router,
    SCHEMA_PREDICATES,
    SubjectHashRouter,
    create_router,
)

__all__ = [
    "BROADCAST",
    "CLUSTER_LOG_FILENAME",
    "CLUSTER_META_FILENAME",
    "ClusterError",
    "ClusterRecoveryInfo",
    "PredicateGroupRouter",
    "ROUTERS",
    "Router",
    "SCHEMA_PREDICATES",
    "SUPPORTED_FRAGMENTS",
    "ShardedReasoner",
    "SubjectHashRouter",
    "create_router",
]
