"""The sharded multi-leader cluster: N engines, one logical reasoner.

:class:`ShardedReasoner` partitions the triple space across ``shards``
in-process :class:`~repro.reasoner.engine.Slider` leader engines — each
with its own dictionary, store, and (when durable) its own WAL/snapshot
directory — behind the same duck-typed surface the single-node engine
presents, so :class:`~repro.server.service.ReasoningService`, the
replication :class:`~repro.replication.feed.ChangeFeed`, subscriptions,
and the CLI all compose with it unchanged.

How a commit works
------------------

1. **Route.**  Each incoming delta is split by the
   :mod:`~repro.sharding.router`: schema triples (the four RDFS join
   predicates) broadcast to every shard, instance triples go to their
   owner; user retractions broadcast (a shard that never held the
   triple treats it as the ghost retraction it already supports).
2. **Commit per shard, concurrently.**  Each shard applies its
   sub-delta stream in order through its own ``apply()`` pipeline —
   quiesce, local fixpoint, WAL append + fsync.  This is the
   multi-leader pipeline: per-shard commit latencies (fsync stalls)
   overlap instead of serializing through one log.
3. **Merge deterministically.**  Shard reports are folded in shard
   index order (the stable tie-break) into cluster state: a per-triple
   holder bitmask, a cluster-wide dictionary + store (what readers
   see), and a netting change set.
4. **Forward to fixpoint.**  Derived triples whose routing key lands on
   a shard that does not hold them are forwarded as follow-on deltas
   (broadcast for derived schema, owner-directed for instance triples);
   a shard's net-removed triples that are not user-asserted broadcast
   as retractions to the shards still holding them, so remotely
   supported copies are DRed-checked and either re-derived or dropped;
   a copy one shard re-derives goes back to the shards that dropped it.
   Rounds repeat until no forwards remain — the global fixpoint.
5. **One global revision.**  The vector of per-shard revisions advances
   by however many sub-commits each shard performed; the cluster
   commits exactly one monotonic global revision whose
   :class:`~repro.reasoner.delta.InferenceReport` is the exact global
   store diff, classified explicit/inferred against the *user's* net
   assertions.  A durable cluster appends one fsynced
   :class:`~repro.persist.journal.ClusterRecord` — revision, revision
   vector, net user delta — to ``cluster.wal`` before anyone hears of
   the commit, so its durable cost is O(|net delta|), independent of
   how much the user has asserted.  Commit listeners (the change feed)
   receive the same net user-level delta — a follower replaying it
   through a single-node engine reaches the identical closure at the
   identical revision, which is exactly the equivalence the
   differential harness enforces.

Durable layout
--------------

``cluster.json`` is a *checkpoint* of the user-level state (topology,
revision, revision vector, explicit set), written at the first global
commit of a process, whenever ``cluster.wal`` outgrows
``DEFAULT_COMPACT_BYTES`` and at :meth:`ShardedReasoner.close`: the
manifest is replaced atomically first, then the log is truncated —
the order of :meth:`PersistenceManager.write_snapshot
<repro.persist.manager.PersistenceManager.write_snapshot>`.  Recovery
reads the manifest and replays the log records newer than it; each
shard recovers from its own ``shard-NN/`` directory.

Determinism: with the default ``workers=0`` shard engines, routing,
stream order, merge order, and forward rounds are all deterministic, so
reports, subscription events, read views — and the bytes of a snapshot
— are reproducible run to run.

Supported fragments are ρdf and RDFS (``rhodf``, ``rdfs``): every join
rule in both joins through the broadcast schema plane, which is what
makes per-shard closure + forwarding complete.  ``rdfs-full`` (per-shard
axiomatic preloads would multiply into the merge) and ``owl-horst``
(prp-trp joins two *instance* triples, ``<x p y>`` and ``<y p z>``, on a
variable that is not their routing key, so the pair can sit on two
shards and neither derives ``<x p z>``) are rejected at construction.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..dictionary.encoder import EncodedTriple, TermDictionary
from ..obs import TRACER, instruments as _obs
from ..persist.columnar import encode_columnar_snapshot
from ..persist.format import atomic_write
from ..persist.journal import CLUSTER_LOG, ClusterRecord, JournalWriter, recover_journal
from ..persist.manager import DEFAULT_COMPACT_BYTES
from ..rdf.terms import Triple
from ..reasoner.delta import Delta, InferenceReport, net_deltas
from ..reasoner.engine import Slider
from ..reasoner.subscription import Subscription
from ..store.backends import HashDictStore
from ..store.graph import Graph
from .router import BROADCAST, Router, create_router

__all__ = [
    "ShardedReasoner",
    "ClusterRecoveryInfo",
    "ClusterError",
    "SUPPORTED_FRAGMENTS",
    "CLUSTER_META_FILENAME",
    "CLUSTER_LOG_FILENAME",
]

#: Fragments whose rule shape (instance patterns joined through schema
#: predicates only) makes sharded closure equivalent to single-node.
SUPPORTED_FRAGMENTS = frozenset(("rhodf", "rdfs"))

CLUSTER_META_FILENAME = "cluster.json"
CLUSTER_LOG_FILENAME = "cluster.wal"

#: Safety valve for the forward fixpoint; the supported fragments
#: converge in a handful of rounds (bounded by rule chain depth), so
#: hitting this indicates a routing/merge bug, not a big dataset.
MAX_FORWARD_ROUNDS = 100


class ClusterError(RuntimeError):
    """Invalid cluster configuration or a broken on-disk layout."""


class ClusterRecoveryInfo:
    """What reassembling the cluster from per-shard state found."""

    __slots__ = (
        "shards",
        "revision",
        "revision_vector",
        "saved_revision_vector",
        "torn",
        "replayed_records",
        "per_shard",
    )

    def __init__(
        self,
        shards: int,
        revision: int,
        revision_vector: list[int],
        saved_revision_vector: list[int] | None,
        torn: bool,
        replayed_records: int,
        per_shard: list[dict | None],
    ):
        self.shards = shards
        self.revision = revision
        self.revision_vector = revision_vector
        self.saved_revision_vector = saved_revision_vector
        #: True when the shard WALs are ahead of (or missing from) the
        #: last durable cluster record — a crash after the shard
        #: sub-commits but before the commit's ``cluster.wal`` record
        #: was on disk (such a commit was never acknowledged).  The
        #: reassembled closure is the shards' durable truth; the next
        #: global commit re-records the vector.
        self.torn = torn
        #: ``cluster.wal`` records newer than ``cluster.json`` that
        #: recovery replayed on top of it.
        self.replayed_records = replayed_records
        self.per_shard = per_shard

    @property
    def recovered_revision(self) -> int:
        """Alias of :attr:`revision` (single-node ``RecoveryInfo`` parity)."""
        return self.revision

    def as_dict(self) -> dict:
        """JSON-ready summary for ``/stats``'s recovery block."""
        return {
            "shards": self.shards,
            "revision": self.revision,
            "revision_vector": list(self.revision_vector),
            "saved_revision_vector": (
                list(self.saved_revision_vector)
                if self.saved_revision_vector is not None
                else None
            ),
            "torn": self.torn,
            "replayed_records": self.replayed_records,
            "per_shard": self.per_shard,
        }

    def __repr__(self):
        return (
            f"<ClusterRecoveryInfo revision={self.revision} "
            f"vector={self.revision_vector} torn={self.torn} "
            f"replayed={self.replayed_records}>"
        )


class ShardedReasoner:
    """N partitioned leader engines behind one reasoner surface.

    Accepts the engine options that make sense cluster-wide and passes
    them through to every shard.
    """

    def __init__(
        self,
        fragment: str = "rhodf",
        shards: int = 2,
        router: str | Router = "subject",
        workers: int = 0,
        buffer_size: int = 50,
        timeout: float | None = None,
        persist_dir=None,
        persist_fsync: bool = True,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if fragment not in SUPPORTED_FRAGMENTS:
            supported = ", ".join(sorted(SUPPORTED_FRAGMENTS))
            raise ClusterError(
                f"fragment {fragment!r} cannot be sharded (supported: {supported}); "
                "rdfs-full preloads per-engine axioms, and owl-horst's prp-trp "
                "joins two instance triples on a variable that is not their "
                "routing key (the pair can sit on two shards), both of which "
                "break the cross-shard closure equivalence"
            )

        self.shards = shards
        self.router = create_router(router, shards)
        self._workers = workers
        self._persist_fsync = persist_fsync
        self._root: Path | None = Path(persist_dir) if persist_dir is not None else None

        self.dictionary = TermDictionary()
        self.store = HashDictStore()
        #: cluster-encoded triple -> bitmask of shards holding it.
        self._holders: dict[EncodedTriple, int] = {}
        #: cluster-encoded triples currently asserted by the user.
        self._explicit: set[EncodedTriple] = set()
        self._revision = 0
        self._lock = threading.RLock()
        self._closed = False
        self._staged: list[Triple] = []
        self._subscriptions: list[Subscription] = []
        self._commit_listeners: list[Callable] = []
        self._forwards = {
            "assertions": 0,
            "retractions": 0,
            "broadcasts": 0,
            "rounds": 0,
        }
        self.recovery: ClusterRecoveryInfo | None = None
        #: ``cluster.wal``'s writer (opened at the first durable commit).
        self._log: JournalWriter | None = None
        #: Log records newer than ``cluster.json`` (what a checkpoint folds).
        self._unfolded = 0
        #: Whether this process has written ``cluster.json`` yet.
        self._checkpointed = False

        meta: dict | None = None
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)
            # Read + validate the manifest *before* building shard
            # engines: a topology mismatch must be rejected without
            # taking (or mutating) any shard's journal lock.
            meta = self._read_manifest(fragment)
        engine_options = dict(
            fragment=fragment,
            workers=workers,
            buffer_size=buffer_size,
            timeout=timeout,
        )
        self.engines: list[Slider] = []
        try:
            for index in range(shards):
                options = dict(engine_options)
                if self._root is not None:
                    options.update(
                        persist_dir=self._root / f"shard-{index:02d}",
                        persist_fsync=persist_fsync,
                    )
                self.engines.append(Slider(**options))
        except BaseException:
            for engine in self.engines:
                engine.close()
            raise
        self._pool = ThreadPoolExecutor(
            max_workers=shards, thread_name_prefix="slider-shard"
        )
        if self._root is not None:
            self._recover(meta)

    # --- recovery -----------------------------------------------------------
    def _read_manifest(self, fragment: str) -> dict | None:
        """Load + topology-check ``cluster.json`` (``None`` when absent)."""
        meta_path = self._root / CLUSTER_META_FILENAME
        if not meta_path.exists():
            return None
        try:
            meta = json.loads(meta_path.read_text("utf-8"))
        except (OSError, ValueError) as error:
            raise ClusterError(f"unreadable cluster manifest {meta_path}: {error}")
        self._validate_meta(meta, meta_path, fragment)
        return meta

    def _recover(self, meta: dict | None) -> None:
        """Reassemble global state from the per-shard durable layouts,
        the ``cluster.json`` checkpoint and the ``cluster.wal`` tail."""
        records, _, _ = recover_journal(
            self._root / CLUSTER_LOG_FILENAME, CLUSTER_LOG
        )
        actual_vector = [engine.revision for engine in self.engines]
        if meta is None and not records and not any(actual_vector):
            return  # fresh directory, nothing to reassemble

        # Rebuild holders + the cluster dictionary/store by scanning the
        # shard stores in index order (shard-local id order within each:
        # deterministic, because shard recovery itself is).
        encode = self.dictionary.encode_triple
        for index, engine in enumerate(self.engines):
            bit = 1 << index
            decode = engine.dictionary.decode_triple
            for local in sorted(engine.store):
                encoded = encode(decode(local))
                mask = self._holders.get(encoded, 0)
                if mask == 0:
                    self.store.add(encoded)
                self._holders[encoded] = mask | bit

        saved_vector = None
        if meta is not None or records:
            # Log records without a manifest: the directory's first
            # global commit died between its record and its checkpoint,
            # so the log starts from the empty state at revision 0.
            if meta is not None:
                self._revision = int(meta["revision"])
                saved_vector = [int(r) for r in meta["revision_vector"]]
                from ..server.wire import parse_statements

                self._explicit = {encode(t) for t in parse_statements(meta["explicit"])}
            for record in records:
                if record.revision <= self._revision:
                    continue  # already folded into the checkpoint
                for triple in record.retractions:
                    self._explicit.discard(encode(triple))
                self._explicit.update(encode(t) for t in record.assertions)
                self._revision = record.revision
                saved_vector = list(record.vector)
                self._unfolded += 1
            torn = saved_vector != actual_vector
        else:
            # Shards carry state but no cluster record ever landed: a
            # crash inside the very first global commit (in a directory
            # built by an older release: before its manifest write).  The
            # shards' durable union is the truth; approximate the
            # user-asserted registry by per-shard explicitness.
            torn = True
            self._revision = max(actual_vector)
            for engine in self.engines:
                decode = engine.dictionary.decode_triple
                for local in sorted(engine.input_manager.explicit):
                    self._explicit.add(encode(decode(local)))
            self._explicit &= set(self._holders)
        self.recovery = ClusterRecoveryInfo(
            shards=self.shards,
            revision=self._revision,
            revision_vector=actual_vector,
            saved_revision_vector=saved_vector,
            torn=torn,
            replayed_records=self._unfolded,
            per_shard=[
                engine.recovery.as_dict() if engine.recovery is not None else None
                for engine in self.engines
            ],
        )

    def _validate_meta(self, meta: dict, path: Path, fragment: str) -> None:
        expect = {
            "shards": self.shards,
            "router": self.router.name,
            "fragment": fragment,
        }
        for key, wanted in expect.items():
            found = meta.get(key)
            if found != wanted:
                raise ClusterError(
                    f"cluster manifest {path} was written with {key}={found!r}, "
                    f"this cluster is configured with {key}={wanted!r} — "
                    "repartitioning on disk is not supported; start a fresh "
                    "directory and reload"
                )

    def _cluster_log(self) -> JournalWriter:
        if self._log is None:
            self._log = JournalWriter(
                self._root / CLUSTER_LOG_FILENAME,
                fsync=self._persist_fsync,
                fragment=self.fragment.name,
                codec=CLUSTER_LOG,
            )
        return self._log

    def _log_commit(self, assertions, retractions) -> None:
        """Make the global commit just merged durable: one fsynced
        ``cluster.wal`` record, then a checkpoint when one is due."""
        if self._root is None:
            return
        log = self._cluster_log()
        log.append(
            ClusterRecord(self._revision, self.revision_vector, assertions, retractions)
        )
        self._unfolded += 1
        if not self._checkpointed or log.size >= DEFAULT_COMPACT_BYTES:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Fold the log into ``cluster.json``: the manifest is replaced
        atomically *first*, then the log is truncated — a crash between
        the two leaves only records at or below the manifest's revision,
        which recovery skips."""
        decode = self.dictionary.decode_triple
        payload = {
            "format": 1,
            "shards": self.shards,
            "router": self.router.name,
            "fragment": self.fragment.name,
            "revision": self._revision,
            "revision_vector": [engine.revision for engine in self.engines],
            "explicit": [decode(t).n3() for t in sorted(self._explicit)],
        }
        atomic_write(
            self._root / CLUSTER_META_FILENAME,
            json.dumps(payload).encode("utf-8"),
            fsync=self._persist_fsync,
        )
        self._cluster_log().reset()
        self._unfolded = 0
        self._checkpointed = True
        if _obs.REGISTRY.enabled:
            _obs.SHARDING_CHECKPOINTS.inc()

    # --- the commit pipeline ------------------------------------------------
    def apply(self, delta: Delta) -> InferenceReport:
        """Commit one delta as one global revision (see module docs)."""
        return self.apply_many([delta])

    def apply_many(self, deltas: Sequence[Delta]) -> InferenceReport:
        """Commit a batch of deltas as **one** global revision.

        The cluster half of the write pipeline's engine protocol (a
        lone ``Slider`` implements the same method): last-writer-wins
        netting in arrival order
        (:func:`~repro.reasoner.delta.net_deltas`) decides the
        user-level outcome, while each shard journals its sub-delta
        stream at full granularity, so per-shard WAL appends overlap.
        """
        self._check_open()
        with self._lock:
            started = time.perf_counter()
            if self._staged:
                deltas = [Delta(assertions=self._staged), *deltas]
            # The user-level outcome of the batch (also the type check:
            # it raises before any cluster state moves).
            net = net_deltas(deltas)
            self._staged = []
            encode = self.dictionary.encode_triple
            asserted_ids = {encode(t) for t in net.assertions}
            for triple in net.retractions:
                self._explicit.discard(encode(triple))
            self._explicit.update(asserted_ids)

            # Split every delta into its per-shard sub-delta stream.
            streams: list[list[Delta]] = [[] for _ in range(self.shards)]
            route = self.router.route
            for delta in deltas:
                assertions: list[list[Triple]] = [[] for _ in range(self.shards)]
                for triple in delta.assertions:
                    owner = route(triple)
                    if owner == BROADCAST:
                        for dest in range(self.shards):
                            assertions[dest].append(triple)
                    else:
                        assertions[owner].append(triple)
                for shard in range(self.shards):
                    sub = Delta(assertions[shard], delta.retractions)
                    if sub:
                        streams[shard].append(sub)

            # Accumulators for the global report (netting across rounds).
            g_added: dict[EncodedTriple, None] = {}
            g_removed: dict[EncodedTriple, None] = {}
            timings: dict[str, float] = {}
            totals = {"dred_deleted": 0, "dred_rederived": 0, "dred_probes": 0}

            reports = self._run_streams(streams)
            retracted = [t for delta in deltas for t in delta.retractions]
            rounds = 0
            while True:
                forwards = self._merge(
                    reports, retracted, g_added, g_removed, timings, totals
                )
                if not any(forwards):
                    break
                rounds += 1
                if rounds > MAX_FORWARD_ROUNDS:
                    raise ClusterError(
                        f"forward fixpoint did not converge in {MAX_FORWARD_ROUNDS} "
                        "rounds — routing/merge invariant broken"
                    )
                self._forwards["rounds"] += 1
                reports = self._run_streams([[d] if d else [] for d in forwards])
                retracted = [t for d in forwards if d for t in d.retractions]

            self._revision += 1
            explicit = tuple(t for t in g_added if t in asserted_ids)
            inferred = tuple(t for t in g_added if t not in asserted_ids)
            report = InferenceReport(
                revision=self._revision,
                seconds=time.perf_counter() - started,
                timings=timings,
                dictionary=self.dictionary,
                explicit_encoded=explicit,
                inferred_encoded=inferred,
                removed_encoded=tuple(g_removed),
                dred_deleted=totals["dred_deleted"],
                dred_rederived=totals["dred_rederived"],
                dred_probes=totals["dred_probes"],
            )
            if _obs.REGISTRY.enabled:
                _obs.SHARDING_COMMITS.inc()
                _obs.SHARDING_FIXPOINT_ROUNDS.observe(rounds)
                vector = [engine.revision for engine in self.engines]
                _obs.SHARDING_REVISION_SKEW.set(max(vector) - min(vector))
            self._log_commit(net.assertions, net.retractions)
            self._fire_commit(net.assertions, net.retractions)
            self._notify_subscribers(report)
            return report

    def _run_streams(self, streams: list[list[Delta]]) -> list[list[InferenceReport]]:
        """Apply per-shard delta streams concurrently; barrier on all.

        One future per shard with work; a shard's stream runs in order
        on one thread, so per-shard commit order (and its WAL) is the
        arrival order.  The single-busy-shard case runs inline — no
        thread hop for the common single-partition delta.
        """
        busy = [shard for shard, stream in enumerate(streams) if stream]
        if not busy:
            return [[] for _ in streams]

        # Capture the commit span context on *this* thread: the shard
        # futures run on pool threads, where the thread-local parent is
        # invisible, and every sub-commit span must carry the commit's
        # trace ids.
        parent_ctx = TRACER.current()

        def run(shard: int) -> list[InferenceReport]:
            engine = self.engines[shard]
            with TRACER.span(
                "shard.commit",
                parent=parent_ctx,
                shard=shard,
                sub_deltas=len(streams[shard]),
            ):
                return [engine.apply(sub) for sub in streams[shard]]

        results: list[list[InferenceReport]] = [[] for _ in streams]
        if len(busy) == 1:
            results[busy[0]] = run(busy[0])
            return results
        futures = {shard: self._pool.submit(run, shard) for shard in busy}
        for shard, future in futures.items():
            results[shard] = future.result()
        return results

    def _merge(
        self,
        reports: list[list[InferenceReport]],
        retracted: Sequence[Triple],
        g_added: dict[EncodedTriple, None],
        g_removed: dict[EncodedTriple, None],
        timings: dict[str, float],
        totals: dict[str, int],
    ) -> list[Delta | None]:
        """Fold one round of shard reports into cluster state.

        Deterministic: shards in index order, each shard's reports in
        stream order, triples in report order.  ``retracted``: the
        retractions the shards ran.  Returns the next round's per-shard
        forward deltas (``None`` where idle).
        """
        fwd_assert: list[dict[Triple, None]] = [{} for _ in range(self.shards)]
        fwd_retract: list[dict[Triple, None]] = [{} for _ in range(self.shards)]
        lost: dict[Triple, None] = {}
        encode = self.dictionary.encode_triple
        route = self.router.route
        holders = self._holders

        for shard, shard_reports in enumerate(reports):
            bit = 1 << shard
            decode = self.engines[shard].dictionary.decode_triple
            for report in shard_reports:
                for rule, seconds in report.timings.items():
                    timings[rule] = timings.get(rule, 0.0) + seconds
                totals["dred_deleted"] += report.dred_deleted
                totals["dred_rederived"] += report.dred_rederived
                totals["dred_probes"] += report.dred_probes

                for local in report.added_encoded:
                    triple = decode(local)
                    encoded = encode(triple)
                    mask = holders.get(encoded, 0)
                    if mask & bit:
                        continue
                    holders[encoded] = mask | bit
                    if mask == 0:
                        self.store.add(encoded)
                        if encoded in g_removed:
                            del g_removed[encoded]
                        else:
                            g_added[encoded] = None
                    owner = route(triple)
                    if owner == BROADCAST:
                        for dest in range(self.shards):
                            if not (holders[encoded] >> dest) & 1:
                                fwd_assert[dest][triple] = None
                    elif owner != shard and not (holders[encoded] >> owner) & 1:
                        fwd_assert[owner][triple] = None

                for local in report.removed_encoded:
                    triple = decode(local)
                    encoded = encode(triple)
                    mask = holders.get(encoded, 0)
                    if not mask & bit:
                        continue
                    mask &= ~bit
                    if mask:
                        holders[encoded] = mask
                    else:
                        del holders[encoded]
                        self.store.remove(encoded)
                        if encoded in g_added:
                            del g_added[encoded]
                        else:
                            g_removed[encoded] = None
                    if encoded not in self._explicit:
                        lost[triple] = None

        # A shard lost support for a triple no user asserted: every copy
        # still held at the end of the round (one forwarded to a shard
        # that reports later in this merge included) is DRed-checked.
        for triple in lost:
            mask = holders.get(encode(triple), 0)
            for shard in range(self.shards):
                if (mask >> shard) & 1:
                    fwd_retract[shard][triple] = None
        # A copy re-derived on retraction, or kept while another shard
        # lost its own, is in no report's additions: forward it again to
        # where routing puts it, from a holder that derives it (a
        # forwarded, shard-explicit copy proves nothing).
        for triple in (*lost, *retracted):
            encoded = encode(triple)
            if encoded in self._explicit:
                continue
            mask = holders.get(encoded, 0)
            if any(
                (mask >> shard) & 1
                and engine.dictionary.encode_triple(triple)
                not in engine.input_manager.explicit
                for shard, engine in enumerate(self.engines)
            ):
                owner = route(triple)
                for dest in range(self.shards) if owner == BROADCAST else (owner,):
                    fwd_assert[dest][triple] = None

        # A forward computed early in the merge can be satisfied — or its
        # source triple removed outright — by a later report in the same
        # round; filter against final holders.  An assertion forwards only
        # while the triple is still held *somewhere*: once every holder
        # dropped it, replaying the stale forward would resurrect a triple
        # the closure already retracted (and plant it as shard-explicit,
        # beyond DRed's reach).
        out: list[Delta | None] = []
        for dest in range(self.shards):
            assertions = []
            for t in fwd_assert[dest]:
                mask = holders.get(encode(t), 0)
                if mask and not (mask >> dest) & 1:
                    assertions.append(t)
            retractions = [
                t
                for t in fwd_retract[dest]
                if (holders.get(encode(t), 0) >> dest) & 1
            ]
            delta = Delta(assertions, retractions) if (assertions or retractions) else None
            if delta is not None and not delta:
                delta = None  # assert/retract of the same triple cancelled
            if delta is not None:
                self._forwards["assertions"] += len(delta.assertions)
                self._forwards["retractions"] += len(delta.retractions)
                self._forwards["broadcasts"] += sum(
                    1 for t in delta.assertions if route(t) == BROADCAST
                )
                if _obs.REGISTRY.enabled:
                    _obs.SHARDING_FORWARDS.inc_labels(
                        "assertions", amount=len(delta.assertions)
                    )
                    _obs.SHARDING_FORWARDS.inc_labels(
                        "retractions", amount=len(delta.retractions)
                    )
            out.append(delta)
        return out

    # --- single-node compatible surface -------------------------------------
    def flush(self) -> InferenceReport:
        """Commit staged shim adds — or an empty barrier revision.

        Parity with the single-node engine: ``flush()`` always commits,
        so the service's boot-time quiesce advances the global revision
        the same way on both topologies.
        """
        return self.apply_many([])

    def add(self, triples: Iterable[Triple] | Triple) -> int:
        """Stage explicit triples for the next commit (legacy shim)."""
        self._check_open()
        if isinstance(triples, Triple):
            triples = (triples,)
        with self._lock:
            staged = list(triples)
            self._staged.extend(staged)
            return len(staged)

    def load(self, path) -> int:
        """Stage an N-Triples (``.nt``) or Turtle (``.ttl``) file."""
        from ..rdf.ntriples import parse_ntriples_file
        from ..rdf.turtle import parse_turtle_file

        text_path = str(path)
        if text_path.endswith((".ttl", ".turtle")):
            return self.add(parse_turtle_file(path))
        return self.add(parse_ntriples_file(path))

    def settle(self) -> None:
        """Compatibility no-op: cluster commits are synchronous."""
        self._check_open()

    def subscribe(self, patterns, callback=None) -> Subscription:
        """Register a standing BGP over the *global* closure."""
        self._check_open()
        with self._lock:
            subscription = Subscription(patterns, callback)
            subscription._seed(self.graph)
            subscription.seeded_revision = self._revision
            self._subscriptions.append(subscription)
            return subscription

    def _notify_subscribers(self, report: InferenceReport) -> None:
        if not self._subscriptions:
            return
        with TRACER.span(
            "subscription.delivery",
            revision=report.revision,
            subscriptions=len(self._subscriptions),
        ):
            graph = self.graph
            alive = []
            for subscription in self._subscriptions:
                if not subscription.active:
                    continue
                alive.append(subscription)
                try:
                    subscription._deliver(report, graph)
                except Exception as error:  # parity with the engine: never poison
                    subscription.error = error
            self._subscriptions = alive

    def add_commit_listener(self, listener: Callable) -> None:
        """Register ``listener(revision, assertions, retractions)``.

        Fired once per *global* commit with the net user-level delta —
        the change feed ships exactly what a follower must replay.
        """
        with self._lock:
            self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener: Callable) -> None:
        """Detach a commit listener; unknown listeners are ignored."""
        with self._lock:
            try:
                self._commit_listeners.remove(listener)
            except ValueError:
                pass

    def _fire_commit(self, assertions, retractions) -> None:
        for listener in list(self._commit_listeners):
            listener(self._revision, assertions, retractions)

    # --- introspection -------------------------------------------------------
    @property
    def revision(self) -> int:
        """The merged monotonic global revision."""
        return self._revision

    @property
    def revision_vector(self) -> list[int]:
        """Per-shard engine revisions, index order."""
        return [engine.revision for engine in self.engines]

    @property
    def fragment(self):
        """The rule fragment (identical on every shard)."""
        return self.engines[0].fragment

    @property
    def rules(self):
        """The rule set (identical on every shard)."""
        return self.engines[0].rules

    @property
    def workers(self) -> int:
        """Worker threads configured per shard engine."""
        return self._workers

    @property
    def graph(self) -> Graph:
        """The global closure (cluster dictionary + cluster store)."""
        return Graph(self.dictionary, self.store)

    @property
    def input_count(self) -> int:
        """Explicit (user-asserted) triples across the cluster."""
        return len(self._explicit)

    @property
    def inferred_count(self) -> int:
        """Rule-derived triples across the cluster."""
        return len(self.store) - len(self._explicit)

    @property
    def persist_dir(self) -> Path | None:
        """The cluster's root state directory (``None`` when in-memory)."""
        return self._root

    @property
    def persistence(self):
        """``None``: the change feed stays ring-only.

        ``cluster.wal`` does hold every global commit's net delta, but
        only until the next checkpoint — at least once per process (its
        first commit) — so it is no retained history a lagging follower
        could resume from; the feed's WAL fallback needs a journal whose
        compaction floor it can check.  A follower behind the ring
        re-bootstraps from ``/snapshot``.
        """
        return None

    def cluster_stats(self) -> dict:
        """Topology + per-shard counters for /stats and /healthz."""
        return {
            "shards": self.shards,
            "router": self.router.name,
            "revision": self._revision,
            "revision_vector": self.revision_vector,
            "forwards": dict(self._forwards),
            "per_shard": [
                {
                    "shard": index,
                    "revision": engine.revision,
                    "triples": len(engine.store),
                    "input": engine.input_count,
                    "inferred": engine.inferred_count,
                }
                for index, engine in enumerate(self.engines)
            ],
        }

    def snapshot_bytes(self) -> bytes:
        """The global closure as one self-verifying snapshot blob.

        Identical wire format to the single-node image, so follower
        bootstrap from a sharded leader is unchanged.
        """
        self._check_open()
        with self._lock:
            return encode_columnar_snapshot(
                revision=self._revision,
                fragment=self.fragment.name,
                axiom_count=0,
                terms=self.dictionary.snapshot_terms(),
                explicit=self._explicit,
                inferred=(t for t in self.store if t not in self._explicit),
            )

    # --- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Flush staged deltas, checkpoint the cluster log, stop the
        pool, close every shard engine."""
        with self._lock:
            if self._closed:
                return
            if self._staged:
                self.apply_many([])
            if self._unfolded:
                self._checkpoint()
            self._closed = True
        self._pool.shutdown(wait=True)
        if self._log is not None:
            self._log.close()
        for engine in self.engines:
            engine.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster is closed")

    def __len__(self) -> int:
        return len(self.store)

    def __enter__(self) -> "ShardedReasoner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self):
        return (
            f"<ShardedReasoner shards={self.shards} router={self.router.name} "
            f"revision={self._revision} triples={len(self.store)}>"
        )
