"""Lazy follower bootstrap: serving off the mapped image, 304 reuse.

Differential bar for the pre-hydration window: a
:class:`ColumnarBootstrapService` over the leader's image must answer
reads identically to the leader's own graph at that revision — for the
seeded random scripts the replication differential already runs — while
writes and pinned-revision reads refuse with the documented statuses.
The wire side: ``GET /snapshot`` serves the one written format, labelled
with the revision of the bytes sent; a follower re-bootstrapping at an
unchanged leader revision reuses its cached image (HTTP 304) instead of
downloading again, and refuses anything but a columnar image.
"""

import threading
import urllib.error
import urllib.request

import pytest

from repro import Delta
from repro.persist import parse_snapshot
from repro.persist.columnar import ColumnarSnapshot
from repro.rdf import RDF, Triple
from repro.reasoner.engine import Slider
from repro.replication import ChangeFeed, ColumnarBootstrapService, ReplicationError
from repro.server import ReasoningService
from repro.server.http import serve
from repro.server.service import ServiceClosedError
from repro.server.views import RevisionGoneError

from ..conftest import EX, small_ontology
from ..differential.test_differential import SEEDS, generate_script
from ..persist.test_columnar import GOLDEN_V1
from .test_follower import (
    DETERMINISTIC,
    assert_converged,
    boot_leader,
    new_follower,
    shutdown_leader,
)


def fetch(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def leader_with_script(tmp_path, seed=None, feed_retain=1024):
    service, server = boot_leader(
        persist_dir=tmp_path / "leader", feed_retain=feed_retain
    )
    script = generate_script(seed if seed is not None else SEEDS[0])
    for delta in script:
        service.apply(delta.assertions, delta.retractions)
    return service, server


class TestSnapshotEndpoint:
    def test_etag_and_304(self, tmp_path):
        service, server = leader_with_script(tmp_path)
        try:
            revision = service.reasoner.revision
            etag = f'"{revision}"'
            status, headers, body = fetch(f"{server.url}/snapshot")
            assert status == 200
            assert headers["ETag"] == etag
            assert headers["X-Slider-Revision"] == str(revision)
            assert body[:8] == b"SLSNAP02"
            # The encoding is not negotiable: what used to select the
            # legacy stream is an unrecognised (ignored) parameter.
            status, _, legacy = fetch(f"{server.url}/snapshot?format=v1")
            assert status == 200 and legacy == body
            # Conditional refetch at the same revision: no body.
            status, headers, body = fetch(
                f"{server.url}/snapshot", headers={"If-None-Match": etag}
            )
            assert status == 304 and body == b""
            assert headers["ETag"] == etag
            # A stale validator still gets the full image.
            status, _, body = fetch(
                f"{server.url}/snapshot", headers={"If-None-Match": '"0"'}
            )
            assert status == 200 and body[:8] == b"SLSNAP02"
        finally:
            shutdown_leader(service, server)

    def test_headers_label_the_image_sent_under_a_racing_commit(self, tmp_path):
        service, server = leader_with_script(tmp_path)
        try:
            build = service.snapshot_bytes

            def build_then_commit():
                blob = build()
                # Lands after the image was built, before its headers.
                service.apply([Triple(EX.late, RDF.type, EX.Cat)], [])
                return blob

            service.snapshot_bytes = build_then_commit
            sealed = service.reasoner.revision
            status, headers, body = fetch(f"{server.url}/snapshot")
            assert status == 200
            assert service.reasoner.revision == sealed + 1
            assert parse_snapshot(body).revision == sealed
            assert headers["ETag"] == f'"{sealed}"'
            assert headers["X-Slider-Revision"] == str(sealed)
        finally:
            shutdown_leader(service, server)


class TestBootstrapServiceDifferential:
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_image_reads_match_the_leader(self, tmp_path, seed):
        """Pre-hydration serving is differential-identical to the leader."""
        service, server = leader_with_script(tmp_path, seed=seed)
        try:
            blob = service.snapshot_bytes()
            snapshot = parse_snapshot(blob)
            assert isinstance(snapshot, ColumnarSnapshot)
            image = ColumnarBootstrapService(snapshot, blob, replication=None)
            assert image.revision == service.reasoner.revision
            assert image.ready
            # Triple-for-triple, term-level: the image decodes its own
            # dictionary, the leader decodes its own.
            assert set(image.graph()) == set(service.reasoner.graph)
            # Constant-bearing pattern reads force the lazy reverse map.
            leader_graph = service.reasoner.graph
            for triple in list(leader_graph)[:5]:
                assert list(image.graph().triples(triple.subject, None, None))
            stats = image.stats()
            assert stats["bootstrap"]["hydrating"] is True
            assert stats["revision"] == image.revision
            assert image.snapshot_bytes() is blob  # chained bootstraps
        finally:
            shutdown_leader(service, server)

    def test_hydration_window_refusals(self, tmp_path):
        service, server = leader_with_script(tmp_path)
        try:
            blob = service.snapshot_bytes()
            image = ColumnarBootstrapService(
                parse_snapshot(blob), blob, replication=None
            )
            with pytest.raises(RevisionGoneError):
                image.graph(at=image.revision - 1)
            with pytest.raises(ServiceClosedError, match="hydrating"):
                image.apply([], [])
            with pytest.raises(ServiceClosedError, match="hydrating"):
                image.subscribe()
            image.close()
            assert not image.ready
            with pytest.raises(ServiceClosedError):
                image.graph()
        finally:
            shutdown_leader(service, server)


class TestImageReuse:
    def test_rebootstrap_at_unchanged_revision_reuses_the_image(self, tmp_path):
        # A one-record feed ring plus a compacted WAL: no resume point
        # for a newcomer, forcing the snapshot bootstrap path.
        service, server = leader_with_script(tmp_path, feed_retain=1)
        try:
            service.reasoner.snapshot()
            follower = new_follower(server, persist_dir=tmp_path / "follower")
            try:
                revision = service.reasoner.revision
                assert follower.wait_for_revision(revision, timeout=30)
                assert follower.status.bootstraps >= 1
                assert follower.status.snapshot_reuses == 0
                assert_converged(service, follower)
                # Re-bootstrap with the leader unchanged: the cached
                # image must satisfy the fetch via 304, no new download.
                follower._bootstrap()
                assert follower.wait_for_revision(revision, timeout=30)
                assert follower.status.snapshot_reuses == 1
                assert_converged(service, follower)
            finally:
                follower.close()
        finally:
            shutdown_leader(service, server)


class TestGraphImageBootstrap:
    def test_follower_bootstraps_from_a_graph_carrying_image(self):
        """A tenant-style leader (explicit triples under a named graph)
        serves ``SLSNAP03``; the replica restores the graph column."""
        graph = EX.tenantA
        reasoner = Slider(fragment="rhodf", **DETERMINISTIC)
        reasoner.apply(Delta(assertions=small_ontology(), graph=graph))
        # The feed starts after the commit: no resume point, so a fresh
        # follower has to come up through the snapshot.
        service = ReasoningService(reasoner=reasoner)
        ChangeFeed(service, retain=1024)
        server, _thread = serve(service)
        try:
            _, _, body = fetch(f"{server.url}/snapshot")
            assert body[:8] == b"SLSNAP03"
            follower = new_follower(server)
            try:
                assert follower.wait_ready(30)
                assert follower.status.bootstraps == 1
                assert_converged(service, follower)
                replica = follower.service.reasoner
                assert replica.graph_counts() == reasoner.graph_counts()
                assert sorted(replica.triples_in_graph(graph)) == sorted(
                    reasoner.triples_in_graph(graph)
                )
            finally:
                follower.close()
        finally:
            shutdown_leader(service, server)


class TestLegacyLeader:
    def test_non_columnar_image_is_a_replication_error(self, tmp_path):
        service, server = leader_with_script(tmp_path)
        try:
            legacy = GOLDEN_V1.read_bytes()
            service.snapshot_bytes = lambda: legacy
            follower = new_follower(server)
            try:
                with pytest.raises(ReplicationError, match="not a columnar"):
                    follower._fetch_image()
            finally:
                follower.close()
        finally:
            shutdown_leader(service, server)


class TestClose:
    def test_close_wakes_the_tailing_thread(self, tmp_path):
        """The feed read is idle for far longer than ``close()`` waits on
        the join, so only a woken ``readline`` lets the thread exit."""
        service, server = leader_with_script(tmp_path)
        server.sse_heartbeat = 3600.0
        try:
            follower = new_follower(server)
            assert follower.wait_for_revision(service.reasoner.revision, timeout=30)
            assert follower.status.connected
            follower.close()
            assert not [
                thread for thread in threading.enumerate()
                if thread.name == "slider-follower" and thread.is_alive()
            ]
        finally:
            shutdown_leader(service, server)
