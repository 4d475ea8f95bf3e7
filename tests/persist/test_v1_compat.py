"""Read compatibility with what the deleted v1 snapshot writer left on disk.

Only the columnar image is written any more; ``SLSNAP01`` files stay
readable for as long as a durable directory sealed by an older release
can be found on a disk.  Everything under ``fixtures/`` here was
generated at commit ``ae7c388`` — the last tree whose engines sealed v1
— by running this module's ``build_*`` functions against that tree and
``encode_snapshot(**GOLDEN_GRAPHS_STATE)`` for the single image, then
deleting the ``.lock`` files.  Run at this commit the same builders
seal columnar images, which is what the tests compare a recovered
fixture against: same closure, same revision, and a columnar file after
the next compaction.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro import Delta, Slider
from repro.dictionary import TermDictionary
from repro.cli import main
from repro.persist import SNAPSHOT_FILENAME, atomic_write, load_snapshot
from repro.persist.columnar import (
    COLUMNAR_MAGIC,
    COLUMNAR_MAGIC_V3,
    encode_columnar_snapshot,
)
from repro.persist.snapshot import SNAPSHOT_MAGIC, Snapshot
from repro.rdf import IRI, RDF, Triple
from repro.sharding import ShardedReasoner
from repro.store import HashDictStore
from repro.tenancy import TenantManager

from ..conftest import EX, closure_with_batch, make_chain, small_ontology
from .test_columnar import GOLDEN_STATE

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_V1_GRAPHS = FIXTURES / "golden-v1-graphs.slider"
GOLDEN_V1_GRAPHS_SHA256 = (
    "e2a28c2de3056dd18f04dc931a0c3fb5debada94f19fc7f75c011c33ff330c79"
)

#: ``GOLDEN_STATE`` plus one graph term and a two-row named-graph column
#: — the trailing v1 section ``golden-v1.slider`` does not carry.
GOLDEN_GRAPHS_STATE = dict(
    GOLDEN_STATE,
    revision=9,
    terms=GOLDEN_STATE["terms"] + [IRI("urn:tenant:acme")],
    graphs=[(0, 5, 2, 6), (1, 5, 3, 6)],
)

BASE = small_ontology() + make_chain(4)
#: Committed after the seal, so each fixture keeps a changelog tail.
TAIL = (
    Delta(assertions=[Triple(EX.felix, RDF.type, EX.Cat)]),
    Delta(retractions=[Triple(EX.alice, EX.hasPet, EX.tom)]),
)
NET_EXPLICIT = [t for t in BASE if t not in TAIL[1].retractions] + list(
    TAIL[0].assertions
)
SEALED_REVISION = 1
FINAL_REVISION = SEALED_REVISION + len(TAIL)


def build_engine_dir(path) -> None:
    """One durable engine: seal after the base load, then the tail."""
    with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=path) as engine:
        engine.apply(Delta(assertions=BASE))
        engine.snapshot()
        for delta in TAIL:
            engine.apply(delta)


def build_tenant_root(path) -> None:
    """A tenancy root: ``tenants.json`` + tenant ``acme``'s directory,
    whose image carries the ``urn:tenant:acme`` graph column."""
    manager = TenantManager(persist_dir=path)
    try:
        manager.register("acme")
        manager.apply("acme", assertions=BASE)
        manager.engine("acme").snapshot()
        for delta in TAIL:
            manager.apply("acme", delta.assertions, delta.retractions)
    finally:
        manager.close()


def build_cluster_root(path) -> None:
    """A two-shard cluster: ``cluster.json`` + one directory per shard."""
    with ShardedReasoner(fragment="rhodf", shards=2, persist_dir=path) as cluster:
        cluster.apply(Delta(assertions=BASE))
        for engine in cluster.engines:
            engine.snapshot()
        for delta in TAIL:
            cluster.apply(delta)


def magic(path) -> bytes:
    return Path(path).read_bytes()[:8]


def fixture_copy(name: str, tmp_path) -> Path:
    """Recovery takes the directory lock and truncates torn tails, so
    every test works on a private copy of the committed fixture."""
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


class TestGoldenGraphImage:
    def test_fixture_bytes_are_untouched(self):
        digest = hashlib.sha256(GOLDEN_V1_GRAPHS.read_bytes()).hexdigest()
        assert digest == GOLDEN_V1_GRAPHS_SHA256

    def test_fixture_parses_to_the_pinned_state(self):
        assert magic(GOLDEN_V1_GRAPHS) == SNAPSHOT_MAGIC
        snapshot = load_snapshot(GOLDEN_V1_GRAPHS)
        assert isinstance(snapshot, Snapshot)
        for name, pinned in GOLDEN_GRAPHS_STATE.items():
            assert getattr(snapshot, name) == pinned, name

    def test_restore_tags_the_graph_column(self):
        dictionary, store = TermDictionary(), HashDictStore()
        load_snapshot(GOLDEN_V1_GRAPHS).restore(dictionary, store)
        assert dictionary.snapshot_terms() == GOLDEN_GRAPHS_STATE["terms"]
        assert store.graph_assignments() == {
            (s, p, o): g for s, p, o, g in GOLDEN_GRAPHS_STATE["graphs"]
        }


class TestGoldenEngineDirectory:
    def test_fixture_is_a_v1_image_with_a_changelog_tail(self):
        sealed = load_snapshot(FIXTURES / "golden-v1-dir" / SNAPSHOT_FILENAME)
        assert isinstance(sealed, Snapshot)
        assert sealed.revision == SEALED_REVISION

    def test_recovers_then_reseals_columnar(self, tmp_path):
        state = fixture_copy("golden-v1-dir", tmp_path)
        with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=state) as r:
            assert r.recovery.snapshot_revision == SEALED_REVISION
            assert r.recovery.replayed_records == len(TAIL)
            assert r.revision == FINAL_REVISION
            closure = set(r.graph)
            assert closure == closure_with_batch(NET_EXPLICIT, "rhodf")
            r.snapshot()
            assert magic(state / SNAPSHOT_FILENAME) == COLUMNAR_MAGIC
        with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=state) as r:
            assert r.recovery.replayed_records == 0
            assert (r.revision, set(r.graph)) == (FINAL_REVISION, closure)

    def test_matches_a_directory_built_at_this_commit(self, tmp_path):
        build_engine_dir(tmp_path / "fresh")
        assert magic(tmp_path / "fresh" / SNAPSHOT_FILENAME) == COLUMNAR_MAGIC
        states = []
        for state in (fixture_copy("golden-v1-dir", tmp_path), tmp_path / "fresh"):
            with Slider(
                fragment="rhodf", workers=0, timeout=None, persist_dir=state
            ) as r:
                states.append(
                    (r.revision, r.dictionary.snapshot_terms(), set(r.store),
                     set(r.input_manager.explicit))
                )
        assert states[0] == states[1]  # ids bit for bit, not just triples


class TestGoldenTenantRoot:
    def test_tenant_recovers_then_reseals_with_its_graph_column(self, tmp_path):
        root = fixture_copy("golden-v1-tenants", tmp_path)
        image = root / "acme" / SNAPSHOT_FILENAME
        assert magic(image) == SNAPSHOT_MAGIC
        assert load_snapshot(image).graphs  # the v1 trailing section

        def observe(manager):
            engine = manager.engine("acme")
            return (
                engine.revision,
                set(engine.graph),
                sorted(manager.triples("acme")),
            )

        manager = TenantManager(persist_dir=root)
        try:
            assert manager.tenants() == ["acme"]
            before = observe(manager)
            assert before[0] == FINAL_REVISION
            assert before[1] == closure_with_batch(NET_EXPLICIT, "rhodf")
            assert before[2] == sorted(NET_EXPLICIT)
            manager.engine("acme").snapshot()
            assert magic(image) == COLUMNAR_MAGIC_V3
        finally:
            manager.close()
        manager = TenantManager(persist_dir=root)
        try:
            assert observe(manager) == before
        finally:
            manager.close()


class TestGoldenClusterRoot:
    def test_cluster_recovers_then_reseals_every_shard(self, tmp_path):
        root = fixture_copy("golden-v1-cluster", tmp_path)
        images = sorted(root.glob(f"shard-*/{SNAPSHOT_FILENAME}"))
        assert [magic(image) for image in images] == [SNAPSHOT_MAGIC] * 2
        with ShardedReasoner(fragment="rhodf", shards=2, persist_dir=root) as cluster:
            assert not cluster.recovery.torn
            assert cluster.revision == FINAL_REVISION
            vector = cluster.revision_vector
            closure = set(cluster.graph)
            assert closure == closure_with_batch(NET_EXPLICIT, "rhodf")
            for engine in cluster.engines:
                engine.snapshot()
            assert [magic(image) for image in images] == [COLUMNAR_MAGIC] * 2
        with ShardedReasoner(fragment="rhodf", shards=2, persist_dir=root) as cluster:
            assert (cluster.revision, cluster.revision_vector, set(cluster.graph)) == (
                FINAL_REVISION, vector, closure
            )



class TestLegacyStoreSpec:
    """Images sealed while ``store=`` still took backend specs carry the
    spec in their header; it is informational, so a directory sealed
    by a ``sharded:N``, ``columnar:<path>`` or third-party backend
    engine opens unchanged on the one store left."""

    @pytest.fixture(params=[f"sharded:{4}", "columnar:/srv/old.slider", "acme-store"])
    def legacy_spec(self, request):
        return request.param

    def legacy_dir(self, path, spec) -> Path:
        build_engine_dir(path)
        image = path / SNAPSHOT_FILENAME
        sealed = load_snapshot(image)
        blob = encode_columnar_snapshot(
            revision=sealed.revision, fragment=sealed.fragment,
            store_spec=spec, axiom_count=sealed.axiom_count,
            terms=list(sealed.terms), explicit=list(sealed.explicit),
            inferred=list(sealed.inferred),
        )
        sealed.close()
        atomic_write(image, blob)
        assert load_snapshot(image).store_spec == spec
        return path

    def test_engine_recovers_the_same_closure_and_revision(self, tmp_path, legacy_spec):
        state = self.legacy_dir(tmp_path / "state", legacy_spec)
        with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=state) as r:
            assert r.recovery.snapshot_revision == SEALED_REVISION
            assert r.revision == FINAL_REVISION
            assert set(r.graph) == closure_with_batch(NET_EXPLICIT, "rhodf")

    def test_cli_recover_reports_the_same_state(self, tmp_path, capsys, legacy_spec):
        state = self.legacy_dir(tmp_path / "state", legacy_spec)
        closure = closure_with_batch(NET_EXPLICIT, "rhodf")
        assert main(["recover", "--persist", str(state)]) == 0
        out = capsys.readouterr().out
        assert f"recovered revision {FINAL_REVISION}" in out
        assert f"= {len(closure)} triples at revision {FINAL_REVISION}" in out

    def test_cluster_manifest_naming_a_spec_recovers(self, tmp_path, legacy_spec):
        root = fixture_copy("golden-v1-cluster", tmp_path)
        manifest = root / "cluster.json"
        meta = json.loads(manifest.read_text("utf-8"))
        meta["store"] = legacy_spec
        manifest.write_text(json.dumps(meta), "utf-8")
        with ShardedReasoner(fragment="rhodf", shards=2, persist_dir=root) as cluster:
            assert cluster.revision == FINAL_REVISION
            assert set(cluster.graph) == closure_with_batch(NET_EXPLICIT, "rhodf")
