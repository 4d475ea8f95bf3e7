"""The follower: a read replica maintained from the leader's change feed.

A :class:`Follower` owns a full local engine + service pair and keeps it
converged with a leader over plain HTTP:

1. **bootstrap** — when the leader's feed cannot serve the follower's
   resume point (fresh replica, or the leader compacted the WAL past
   it), the follower fetches ``GET /snapshot`` — the same binary image
   durable engines seal to disk — and restores it into a fresh engine
   via :meth:`~repro.reasoner.engine.Slider.restore_snapshot`;
2. **tail** — it then streams ``GET /feed?from=<revision>`` (SSE) and
   commits each record through the ordinary ``apply()`` pipeline with
   the leader's revision id (:meth:`Slider.apply_at`), so revision ids,
   inference reports, subscriptions and local persistence all behave
   exactly as they do on the leader;
3. **serve** — the follower's :class:`ReasoningService` runs the whole
   read API (``/select``, ``/ask``, ``/subscribe`` …); writes are
   rejected or 307-forwarded to the leader by the HTTP layer.

Consistency: the leader gives read-your-writes (views advance before a
write returns); a follower gives **monotonic prefix** — it always
serves some committed leader revision R, and R only moves forward.

Durability composes: ``persist_dir`` makes the replica restartable — it
recovers locally and resumes the feed from its recovered revision,
touching the leader only for the missed tail.

A follower survives leader death: the tailing thread reconnects with
backoff while the local service keeps answering reads at the last
replicated revision.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import weakref
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from urllib.parse import urlsplit

from ..obs import instruments as _obs
from ..persist.columnar import parse_columnar_snapshot
from ..persist.manager import JOURNAL_FILENAME, SNAPSHOT_FILENAME
from ..persist.snapshot import SnapshotError
from ..reasoner.engine import Slider, SliderError
from .bootstrap import ColumnarBootstrapService
from .feed import FeedRecord, FeedWireError

__all__ = ["Follower", "ReplicationStatus", "ReplicationError"]

#: Seconds between reconnect attempts after a broken feed connection.
DEFAULT_RECONNECT_DELAY = 0.5

#: Socket timeout on the SSE feed connection — must comfortably exceed
#: the leader's keepalive interval (5 s) so an idle stream is not
#: mistaken for a dead one.
FEED_SOCKET_TIMEOUT = 30.0


class ReplicationError(RuntimeError):
    """The follower could not talk to (or agree with) its leader."""


class _NeedBootstrap(Exception):
    """Internal: the feed cannot resume us; fetch a snapshot instead."""


#: Live follower statuses; the scrape-time collector exports the worst
#: (max) lag across them so ``/metrics`` on a follower is always fresh.
_LIVE_STATUSES: "weakref.WeakSet" = weakref.WeakSet()


def _collect_replication_lag() -> None:
    _obs.REPLICATION_LAG.set(max((s.lag for s in _LIVE_STATUSES), default=0))


_obs.REGISTRY.on_collect(_collect_replication_lag)


class ReplicationStatus:
    """Live replication bookkeeping, surfaced via ``/stats``/``/healthz``.

    Written by the follower's tailing thread, read by request handlers;
    plain attribute reads/writes are atomic under the GIL, and the
    numbers are monitoring data, not synchronization.
    """

    def __init__(self, leader_url: str):
        self.leader_url = leader_url
        self.connected = False
        #: True once the replica caught up to the leader revision seen at
        #: connect time; gates ``/readyz``.  Cleared while re-bootstrapping.
        self.ready = False
        self.leader_revision = 0
        #: The last leader revision committed locally (content-bearing).
        self.applied_revision = 0
        #: The revision the stream is complete through: ``applied`` plus
        #: any trailing *empty* leader revisions covered by a watermark.
        self.synced_revision = 0
        self.records_applied = 0
        self.bootstraps = 0
        #: Re-bootstraps that reused the cached columnar image because
        #: the leader's snapshot revision had not moved (304 on
        #: ``If-None-Match`` — no redundant download).
        self.snapshot_reuses = 0
        self.reconnects = 0
        self.last_error: str | None = None
        _LIVE_STATUSES.add(self)

    def note_bootstrap(self) -> None:
        """Count one snapshot bootstrap (status + metrics)."""
        self.bootstraps += 1
        _obs.REPLICATION_BOOTSTRAPS.inc()

    def note_applied(self) -> None:
        """Count one replicated record applied (status + metrics)."""
        self.records_applied += 1
        _obs.REPLICATION_APPLIED.inc()

    @property
    def lag(self) -> int:
        """Revisions the replica trails the last-seen leader revision."""
        return max(self.leader_revision - self.synced_revision, 0)

    def as_dict(self) -> dict:
        return {
            "leader": self.leader_url,
            "connected": self.connected,
            "ready": self.ready,
            "leader_revision": self.leader_revision,
            "applied_revision": self.applied_revision,
            "synced_revision": self.synced_revision,
            "lag_revisions": self.lag,
            "records_applied": self.records_applied,
            "bootstraps": self.bootstraps,
            "snapshot_reuses": self.snapshot_reuses,
            "reconnects": self.reconnects,
            "last_error": self.last_error,
        }

    def __repr__(self):
        state = "ready" if self.ready else "catching-up"
        return (
            f"<ReplicationStatus {state} applied={self.applied_revision} "
            f"synced={self.synced_revision} leader={self.leader_revision} "
            f"lag={self.lag}>"
        )


class _SSEEvent:
    __slots__ = ("event", "event_id", "data")

    def __init__(self, event: str, event_id: str | None, data: str):
        self.event = event
        self.event_id = event_id
        self.data = data


def _read_sse(response):
    """Yield :class:`_SSEEvent` items from a streaming SSE response.

    Keepalive comments reset the socket-timeout clock but yield nothing;
    the generator ends on EOF (server closed the stream).
    """
    event: str | None = None
    event_id: str | None = None
    data: list[str] = []
    while True:
        raw = response.readline()
        if not raw:
            return  # EOF: stream over
        line = raw.decode("utf-8").rstrip("\r\n")
        if line.startswith(":"):
            continue  # keepalive comment
        if line.startswith("event:"):
            event = line[6:].strip()
        elif line.startswith("id:"):
            event_id = line[3:].strip()
        elif line.startswith("data:"):
            chunk = line[5:]
            data.append(chunk[1:] if chunk.startswith(" ") else chunk)
        elif line == "" and (event or data):
            yield _SSEEvent(event or "message", event_id, "\n".join(data))
            event, event_id, data = None, None, []


class Follower:
    """A read replica of one leader, with its own serving stack.

    Parameters mirror :class:`~repro.reasoner.engine.Slider` where they
    configure the local engine (``workers``, ``timeout``,
    ``persist_dir`` …); ``fragment=None`` (the default) discovers the
    rule fragment from the leader's ``/stats``.  The follower exposes
    :attr:`service` — swapped atomically on re-bootstrap — so serve it
    through :meth:`serve_http` (or any consumer that re-reads the
    attribute per request) rather than capturing the object once.
    """

    def __init__(
        self,
        leader_url: str,
        *,
        fragment: str | None = None,
        workers: int = 2,
        timeout: float | None = 0.05,
        buffer_size: int = 50,
        persist_dir: "str | Path | None" = None,
        persist_fsync: bool = True,
        retain_views: int = 8,
        reconnect_delay: float = DEFAULT_RECONNECT_DELAY,
        http_timeout: float = 10.0,
    ):
        parts = urlsplit(leader_url if "//" in leader_url else f"http://{leader_url}")
        if not parts.hostname:
            raise ReplicationError(f"cannot parse leader URL: {leader_url!r}")
        self._leader_host = parts.hostname
        self._leader_port = parts.port or 80
        self.leader_url = f"http://{self._leader_host}:{self._leader_port}"
        self._fragment = fragment
        self._workers = workers
        self._timeout = timeout
        self._buffer_size = buffer_size
        self._persist_dir = Path(persist_dir) if persist_dir is not None else None
        self._persist_fsync = persist_fsync
        self._retain_views = retain_views
        self._reconnect_delay = reconnect_delay
        self._http_timeout = http_timeout

        self.status = ReplicationStatus(self.leader_url)
        # The last columnar bootstrap image and its wire bytes, kept for
        # ETag-conditional re-bootstraps (304 -> restore from the cached
        # image instead of downloading it again).  Bytes-backed, so
        # dropping the references is release enough — there is no file
        # map to close, and a superseded serving window may still be
        # mid-read on another thread.
        self._image = None
        self._image_blob: bytes | None = None
        self._service = None
        self._service_lock = threading.Lock()
        self._stop = threading.Event()
        self._progress = threading.Condition()
        self._thread: threading.Thread | None = None
        self._feed_sock: socket.socket | None = None
        self.closed = False

    # --- public surface -----------------------------------------------------
    @property
    def service(self):
        """The current serving :class:`ReasoningService` (never capture
        across requests: re-bootstrap swaps it)."""
        service = self._service
        if service is None:
            raise ReplicationError("follower has not started yet")
        return service

    @property
    def revision(self) -> int:
        """The last leader revision applied locally."""
        return self.service.revision

    def start(self) -> "Follower":
        """Build the local engine and begin tailing on a background thread."""
        if self.closed:
            raise ReplicationError("follower is closed")
        if self._thread is not None:
            return self
        self._ensure_service()
        self._thread = threading.Thread(
            target=self._run, name="slider-follower", daemon=True
        )
        self._thread.start()
        return self

    def serve_http(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        slow_query_seconds: float = 0.25,
    ):
        """Serve this follower's read API over HTTP (like ``serve()``).

        The server resolves :attr:`service` per request, so re-bootstrap
        swaps are transparent to connected clients.
        """
        from ..server.http import ReasoningHTTPServer

        server = ReasoningHTTPServer(
            (host, port),
            service_provider=lambda: self.service,
            verbose=verbose,
            slow_query_seconds=slow_query_seconds,
        )
        thread = threading.Thread(
            target=server.serve_forever, name="slider-follower-http", daemon=True
        )
        thread.start()
        return server, thread

    def _mid_hydration(self) -> bool:
        """True while a bootstrap image serves ahead of the real engine."""
        return isinstance(self._service, ColumnarBootstrapService)

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the replica first catches up to the leader.

        This waits past any lazy-hydration window too: callers of the
        in-process API get the real engine behind :attr:`service`.
        ``/readyz`` itself flips earlier — as soon as a mapped bootstrap
        image is serving reads.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._progress:
            while (
                not self.status.ready or self._mid_hydration()
            ) and not self.closed:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._progress.wait(remaining)
        return self.status.ready

    def wait_for_revision(self, revision: int, timeout: float | None = None) -> bool:
        """Block until the replica is synced through ``revision``.

        "Synced through" means every content-bearing leader revision at
        or below it is committed locally — trailing *empty* leader
        revisions are covered by the feed's watermark.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._progress:
            while (
                self.status.synced_revision < revision or self._mid_hydration()
            ) and not self.closed:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._progress.wait(remaining)
        return self.status.synced_revision >= revision

    def close(self) -> None:
        """Stop tailing and shut the local service down."""
        if self.closed:
            return
        self.closed = True
        self._stop.set()
        sock = self._feed_sock
        if sock is not None:
            # Closing the connection would not wake the tailing thread:
            # the HTTPResponse holds its own handle on the socket, so
            # the blocked readline only returns once the socket itself
            # is shut down (it then reads EOF and the thread exits).
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the leader hung up first
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        with self._service_lock:
            service, self._service = self._service, None
        if service is not None:
            service.close()
        self._image = None
        self._image_blob = None
        with self._progress:
            self._progress.notify_all()

    def __enter__(self) -> "Follower":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # --- leader HTTP --------------------------------------------------------
    def _leader_request(
        self, path: str, headers: dict[str, str] | None = None
    ) -> tuple[int, bytes]:
        conn = HTTPConnection(
            self._leader_host, self._leader_port, timeout=self._http_timeout
        )
        try:
            conn.request("GET", path, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _leader_json(self, path: str) -> dict:
        status, body = self._leader_request(path)
        if status != 200:
            raise ReplicationError(f"leader {path} returned {status}")
        return json.loads(body)

    def _discover_fragment(self) -> str:
        if self._fragment is not None:
            return self._fragment
        stats = self._leader_json("/stats")
        self._fragment = stats["engine"]["fragment"]
        return self._fragment

    # --- engine / service lifecycle -----------------------------------------
    def _build_service(self, reasoner: Slider):
        from ..server.service import ReasoningService

        reasoner.settle()  # quiescent before views; no revision consumed
        service = ReasoningService(
            reasoner=reasoner,
            retain_views=self._retain_views,
            role="follower",
            quiesce=False,
        )
        service.leader_url = self.leader_url
        service.replication = self.status
        return service

    def _new_engine(self) -> Slider:
        """The replica engine; over a durable directory that holds state
        its constructor recovers it (snapshot restore + changelog replay)."""
        return Slider(
            fragment=self._discover_fragment(),
            workers=self._workers,
            timeout=self._timeout,
            buffer_size=self._buffer_size,
            persist_dir=self._persist_dir,
            persist_fsync=self._persist_fsync,
        )

    def _ensure_service(self) -> None:
        """First start: recover locally when durable, else start fresh."""
        if self._service is not None:
            return
        reasoner = self._new_engine()
        self._swap_service(self._build_service(reasoner))
        self._note_progress(applied=reasoner.revision)

    def _swap_service(self, service) -> None:
        with self._service_lock:
            old, self._service = self._service, service
        if old is not None:
            old.close()

    def _fetch_image(self) -> tuple:
        """``GET /snapshot``, reusing the cached image on 304.

        The conditional request carries the cached image's revision as
        ``If-None-Match``: when the leader's snapshot revision has not
        moved (a re-bootstrap forced by WAL compaction, not by new
        data), the answer is a body-less 304 and the previously
        downloaded image is restored from instead of re-downloaded.
        Anything but a columnar image — a pre-columnar leader serving
        v1 — is a :class:`ReplicationError`, not a second code path.
        """
        headers: dict[str, str] = {}
        cached = self._image
        if cached is not None:
            headers["If-None-Match"] = f'"{cached.revision}"'
        status, blob = self._leader_request("/snapshot", headers=headers)
        if status == 304 and cached is not None:
            self.status.snapshot_reuses += 1
            return cached, self._image_blob
        if status != 200:
            raise ReplicationError(f"leader /snapshot returned {status}")
        try:
            snapshot = parse_columnar_snapshot(
                blob, source=f"{self.leader_url}/snapshot"
            )
        except SnapshotError as error:
            raise ReplicationError(f"leader snapshot is invalid: {error}") from None
        self._image, self._image_blob = snapshot, blob
        return snapshot, blob

    def _bootstrap(self) -> None:
        """Fetch the leader's snapshot and rebuild the local engine.

        The replica starts serving *before* hydration: a
        :class:`ColumnarBootstrapService` over the image's columns is
        swapped in as soon as the image parses — ``/readyz`` flips
        immediately, because the image is a complete committed leader
        revision — and the expensive rebuild of the mutable engine
        proceeds behind it on this (the tailing) thread.
        """
        self.status.ready = False
        snapshot, blob = self._fetch_image()
        self._fragment = snapshot.fragment or self._fragment
        self._swap_service(
            ColumnarBootstrapService(
                snapshot, blob, replication=self.status, leader_url=self.leader_url
            )
        )
        # The bootstrap *is* serving now — counter and readiness flip
        # here, not after hydration.  It is also a lineage reset: the
        # watermark from the old stream is void (a wiped-and-replaced
        # leader may legitimately stand *below* it — carrying the old
        # maximum forward would re-trigger the stale-leader check
        # forever).
        self.status.note_bootstrap()
        with self._progress:
            self.status.applied_revision = snapshot.revision
            self.status.synced_revision = snapshot.revision
            self.status.leader_revision = snapshot.revision
            self.status.ready = True  # the mapped image is serving
            self._progress.notify_all()
        if self._persist_dir is not None:
            # The durable replica's history is superseded wholesale: the
            # old files must go before a fresh engine can own the
            # directory (the directory lock was released when the swap
            # closed the old service; the image service holds no files).
            for name in (SNAPSHOT_FILENAME, JOURNAL_FILENAME):
                stale = self._persist_dir / name
                if stale.exists():
                    stale.unlink()
        reasoner = self._new_engine()
        try:
            reasoner.restore_snapshot(snapshot)
        except SliderError:
            reasoner.close()
            raise
        self._swap_service(self._build_service(reasoner))
        with self._progress:
            self._progress.notify_all()  # hydration over: wake wait_ready()

    # --- the tailing loop ---------------------------------------------------
    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self._tail_feed()
            except _NeedBootstrap:
                try:
                    self._bootstrap()
                    continue  # reconnect immediately from the new revision
                except Exception as error:  # noqa: BLE001 - keep serving reads
                    self.status.last_error = f"bootstrap: {error}"
            except (OSError, HTTPException, FeedWireError, ReplicationError) as error:
                if not self._stop.is_set():
                    self.status.last_error = str(error)
            except Exception as error:  # noqa: BLE001 - never kill the replica
                self.status.last_error = f"{type(error).__name__}: {error}"
            self.status.connected = False
            if self._stop.wait(self._reconnect_delay):
                return
            self.status.reconnects += 1

    def _tail_feed(self) -> None:
        if self._mid_hydration():
            # A bootstrap that failed mid-way: hydration died behind a
            # still-serving image service (which cannot apply feed
            # records).  Only a fresh bootstrap moves things forward —
            # and with a cached image it is a 304, not a re-download.
            raise _NeedBootstrap()
        # Resume from the synced watermark (maximal: past any trailing
        # empty leader revisions), never below the engine's revision.
        cursor = max(self.service.revision, self.status.synced_revision)
        conn = HTTPConnection(
            self._leader_host, self._leader_port, timeout=FEED_SOCKET_TIMEOUT
        )
        try:
            conn.connect()
            # Kept apart from ``conn``: a ``Connection: close`` response
            # takes the socket over and leaves ``conn.sock`` empty.
            self._feed_sock = conn.sock
            if self._stop.is_set():
                return  # close() ran before there was a socket to shut down
            conn.request(
                "GET", f"/feed?from={cursor}", headers={"Last-Event-ID": str(cursor)}
            )
            response = conn.getresponse()
            if response.status == 410:
                response.read()
                raise _NeedBootstrap()
            if response.status != 200:
                raise ReplicationError(f"leader /feed returned {response.status}")
            self.status.connected = True
            self.status.last_error = None
            target = None
            for event in _read_sse(response):
                if self._stop.is_set():
                    return
                if event.event == "hello":
                    hello = json.loads(event.data)
                    target = int(hello["revision"])
                    if target < cursor:
                        # The leader is behind us: different lineage
                        # (wiped/replaced leader) — our history is void.
                        raise _NeedBootstrap()
                    self._note_progress(leader=target)
                elif event.event == "commit":
                    record = FeedRecord.parse(event.data)
                    self._apply_record(record)
                elif event.event == "watermark":
                    watermark = int(json.loads(event.data)["revision"])
                    self._note_progress(
                        synced=watermark,
                        leader=max(self.status.leader_revision, watermark),
                    )
                elif event.event == "gone":
                    raise _NeedBootstrap()
                if target is not None and self.status.synced_revision >= target:
                    self._mark_ready()
        finally:
            self._feed_sock = None
            conn.close()

    def _apply_record(self, record: FeedRecord) -> None:
        service = self.service
        if record.revision <= service.revision:
            return  # duplicate delivery (reconnect race): already applied
        service.commit_replicated(record.revision, record.to_delta())
        self.status.note_applied()
        self._note_progress(
            applied=record.revision,
            leader=max(self.status.leader_revision, record.revision),
        )

    def _note_progress(
        self,
        applied: int | None = None,
        leader: int | None = None,
        synced: int | None = None,
    ):
        with self._progress:
            if applied is not None:
                self.status.applied_revision = applied
                self.status.synced_revision = max(
                    self.status.synced_revision, applied
                )
            if synced is not None:
                self.status.synced_revision = max(
                    self.status.synced_revision, synced
                )
            if leader is not None:
                self.status.leader_revision = leader
            self._progress.notify_all()

    def _mark_ready(self) -> None:
        if not self.status.ready:
            self.status.ready = True
            with self._progress:
                self._progress.notify_all()

    def __repr__(self):
        return f"<Follower of {self.leader_url} {self.status!r}>"
