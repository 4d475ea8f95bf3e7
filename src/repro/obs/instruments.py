"""The process-global registry, tracer, and every metric family.

Nine instrumented layers, one prefix each — the conformance test and
the CI ``/metrics`` scrape key off :data:`LAYER_PREFIXES`:

==============  =====================================================
prefix          what it covers
==============  =====================================================
``http``        per-endpoint/status request latency, in-flight, slow
                queries
``coalescer``   write-queue depth, drain batch size, waiters
``engine``      apply latency, per-rule-module time, firings by path,
                DRed counters
``views``       read-image advance latency, overlay size, re-bases
``persist``     WAL append + fsync latency, snapshot/compaction
``replication`` follower lag, bootstraps, feed truncations
``sharding``    cross-shard forwards, fixpoint rounds, revision skew
``tenancy``     admission outcomes, per-tenant queue depth
``process``     uptime, RSS, start time
==============  =====================================================

Importing this module is what registers everything, so a fresh
process scrapes all nine layers (unlabeled families expose an eager
zero sample; labeled ones expose their HELP/TYPE header).
"""

from __future__ import annotations

import os
import time

from .metrics import MetricsRegistry
from .tracing import SpanRing, Tracer

__all__ = [
    "LAYER_PREFIXES",
    "REGISTRY",
    "TRACER",
    "process_rss_bytes",
    "set_enabled",
]

#: One prefix per instrumented layer; metric names are
#: ``slider_<prefix>_...``.
LAYER_PREFIXES = (
    "http",
    "coalescer",
    "engine",
    "views",
    "persist",
    "replication",
    "sharding",
    "tenancy",
    "process",
)

#: The process-global registry every layer records into.
REGISTRY = MetricsRegistry()

#: The process-global tracer feeding the ``/debug/traces`` ring.
TRACER = Tracer(SpanRing())


def set_enabled(enabled: bool) -> None:
    """Flip metrics + tracing together (the overhead bench's switch)."""
    REGISTRY.enabled = enabled
    TRACER.enabled = enabled


# -- http ---------------------------------------------------------------
HTTP_REQUESTS = REGISTRY.counter(
    "slider_http_requests_total",
    "HTTP requests served, by endpoint, method and status code.",
    ("endpoint", "method", "status"),
)
HTTP_REQUEST_SECONDS = REGISTRY.histogram(
    "slider_http_request_seconds",
    "HTTP request latency by endpoint.",
    ("endpoint",),
)
HTTP_IN_FLIGHT = REGISTRY.gauge(
    "slider_http_in_flight",
    "Requests currently being handled.",
)
HTTP_SLOW_QUERIES = REGISTRY.counter(
    "slider_http_slow_queries_total",
    "Read queries that crossed the slow-query threshold.",
    ("endpoint",),
)

# -- coalescer ----------------------------------------------------------
COALESCER_QUEUE_DEPTH = REGISTRY.gauge(
    "slider_coalescer_queue_depth",
    "Writes waiting in the coalescer queue.",
)
COALESCER_WAITERS = REGISTRY.gauge(
    "slider_coalescer_waiters",
    "Writer threads blocked on a pending coalesced commit.",
)
COALESCER_BATCH_SIZE = REGISTRY.histogram(
    "slider_coalescer_batch_size",
    "Writes netted into one drained commit batch.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
)
COALESCER_SUBMITTED = REGISTRY.counter(
    "slider_coalescer_submitted_total",
    "Writes submitted to the coalescer.",
)
COALESCER_COMMITS = REGISTRY.counter(
    "slider_coalescer_commits_total",
    "Coalesced commit batches drained.",
)
COALESCER_FAILED = REGISTRY.counter(
    "slider_coalescer_failed_total",
    "Coalesced commit batches that raised.",
)

# -- engine -------------------------------------------------------------
ENGINE_APPLY_SECONDS = REGISTRY.histogram(
    "slider_engine_apply_seconds",
    "End-to-end apply()/apply_at() commit latency.",
)
ENGINE_COMMITS = REGISTRY.counter(
    "slider_engine_commits_total",
    "Committed revisions (all engines in the process).",
)
ENGINE_RULE_SECONDS = REGISTRY.counter(
    "slider_engine_rule_seconds_total",
    "Cumulative time in each rule module (from InferenceReport.timings).",
    ("module",),
)
ENGINE_FIRINGS = REGISTRY.counter(
    "slider_engine_firings_total",
    "Rule-module firings by where they ran: inline (a buffer drained "
    "below capacity by the commit, on the committing thread) or pool "
    "(a full or stale buffer).",
    ("path",),
)
ENGINE_DRED_DELETED = REGISTRY.counter(
    "slider_engine_dred_deleted_total",
    "Derived triples deleted during DRed over-deletion.",
)
ENGINE_DRED_REDERIVED = REGISTRY.counter(
    "slider_engine_dred_rederived_total",
    "Derived triples re-derived during DRed rederivation.",
)
ENGINE_DRED_PROBES = REGISTRY.counter(
    "slider_engine_dred_probes_total",
    "Head-bound support checks run by DRed rederivation.",
)

# -- views --------------------------------------------------------------
VIEWS_ADVANCE_SECONDS = REGISTRY.histogram(
    "slider_views_advance_seconds",
    "Time to derive one revision's read view from its predecessor.",
)
VIEWS_OVERLAY_TRIPLES = REGISTRY.gauge(
    "slider_views_overlay_triples",
    "Added + tombstoned triples in the overlay of the view published last.",
)
VIEWS_REBASES = REGISTRY.counter(
    "slider_views_rebases_total",
    "Overlays folded into a fresh base image.",
)

# -- persist ------------------------------------------------------------
PERSIST_WAL_APPEND_SECONDS = REGISTRY.histogram(
    "slider_persist_wal_append_seconds",
    "WAL record append latency (serialise + write + flush).",
)
PERSIST_FSYNC_SECONDS = REGISTRY.histogram(
    "slider_persist_fsync_seconds",
    "fsync latency on WAL commit.",
)
PERSIST_WAL_BYTES = REGISTRY.counter(
    "slider_persist_wal_bytes_total",
    "Bytes appended to the WAL.",
)
PERSIST_SNAPSHOT_SECONDS = REGISTRY.histogram(
    "slider_persist_snapshot_seconds",
    "Snapshot write (compaction) duration.",
)
PERSIST_SNAPSHOT_BYTES = REGISTRY.counter(
    "slider_persist_snapshot_bytes_total",
    "Bytes written into snapshots.",
)
PERSIST_COMPACTIONS = REGISTRY.counter(
    "slider_persist_compactions_total",
    "Snapshot compactions performed.",
)

# -- replication --------------------------------------------------------
REPLICATION_LAG = REGISTRY.gauge(
    "slider_replication_lag_revisions",
    "Revisions this follower trails its leader by.",
)
REPLICATION_BOOTSTRAPS = REGISTRY.counter(
    "slider_replication_bootstraps_total",
    "Snapshot bootstraps performed by this follower.",
)
REPLICATION_TRUNCATIONS = REGISTRY.counter(
    "slider_replication_feed_truncations_total",
    "Feed resumes refused because the requested revision was truncated.",
)
REPLICATION_APPLIED = REGISTRY.counter(
    "slider_replication_applied_total",
    "Replicated revisions applied via apply_at().",
)

# -- sharding -----------------------------------------------------------
SHARDING_FORWARDS = REGISTRY.counter(
    "slider_sharding_forwards_total",
    "Cross-shard forwarded delta triples, by kind.",
    ("kind",),
)
SHARDING_FIXPOINT_ROUNDS = REGISTRY.histogram(
    "slider_sharding_fixpoint_rounds",
    "Forward rounds needed to reach the global fixpoint per commit.",
    buckets=(0, 1, 2, 3, 4, 6, 8, 16, 32),
)
SHARDING_REVISION_SKEW = REGISTRY.gauge(
    "slider_sharding_revision_skew",
    "Max minus min of the per-shard revision vector.",
)
SHARDING_COMMITS = REGISTRY.counter(
    "slider_sharding_commits_total",
    "Global sharded commits merged.",
)
SHARDING_CHECKPOINTS = REGISTRY.counter(
    "slider_sharding_checkpoints_total",
    "cluster.json checkpoints written (the cluster log truncated after each).",
)

# -- tenancy ------------------------------------------------------------
TENANCY_ADMITTED = REGISTRY.counter(
    "slider_tenancy_admitted_total",
    "Tenant writes admitted past the token bucket.",
)
TENANCY_REJECTED = REGISTRY.counter(
    "slider_tenancy_rejected_total",
    "Tenant writes rejected, by status code (429 rate / 413 quota).",
    ("code",),
)
TENANCY_QUEUE_DEPTH = REGISTRY.gauge(
    "slider_tenancy_queue_depth",
    "Queued writes per tenant (cardinality-capped; see __overflow__).",
    ("tenant",),
)

# -- process ------------------------------------------------------------
PROCESS_START_TIME = REGISTRY.gauge(
    "slider_process_start_time_seconds",
    "Unix time this process imported the observability layer.",
)
PROCESS_UPTIME = REGISTRY.gauge(
    "slider_process_uptime_seconds",
    "Seconds since process start (refreshed at scrape time).",
)
PROCESS_RSS = REGISTRY.gauge(
    "slider_process_rss_bytes",
    "Resident set size (refreshed at scrape time).",
)

_STARTED_AT = time.time()
PROCESS_START_TIME.set(_STARTED_AT)


def process_rss_bytes() -> int:
    """Best-effort resident set size in bytes (0 if unknown)."""
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return rss_kb * 1024 if os.uname().sysname != "Darwin" else rss_kb
    except Exception:
        return 0


def _collect_process() -> None:
    now = time.time()
    was_enabled = REGISTRY.enabled
    REGISTRY.enabled = True
    try:
        PROCESS_UPTIME.set(now - _STARTED_AT)
        PROCESS_RSS.set(process_rss_bytes())
    finally:
        REGISTRY.enabled = was_enabled


REGISTRY.on_collect(_collect_process)
