"""The columnar snapshot image: state identity, bit for bit.

The acceptance line: an image of an engine parses to the engine's
revision, terms and partitions, restores into an identical substrate,
and ``load_snapshot`` keeps reading the legacy v1
stream forever — pinned by a golden v1 fixture committed to the repo
(the v1 *writer* is gone; ``test_v1_compat`` covers what it left on
disk).
"""

import hashlib

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import Delta, Slider
from repro.dictionary import TermDictionary
from repro.persist import (
    Snapshot,
    SnapshotError,
    image_revision,
    load_snapshot,
    parse_snapshot,
)
from repro.persist.columnar import (
    ColumnarSnapshot,
    encode_columnar_snapshot,
    parse_columnar_snapshot,
)
from repro.rdf import BNode, IRI, Literal
from repro.store import HashDictStore

from ..conftest import EX, each_execution_mode, make_chain, small_ontology

GOLDEN_V1 = Path(__file__).parent / "fixtures" / "golden-v1.slider"

#: The exact state sealed into the committed golden fixture.  The terms
#: deliberately cover every shape the wire format must round-trip.
GOLDEN_STATE = dict(
    revision=7,
    fragment="rhodf",
    store_spec="hashdict",
    axiom_count=2,
    terms=[
        EX.Cat,
        BNode("b0"),
        Literal("plain"),
        Literal("hallo", language="de"),
        Literal("42", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer")),
        EX.p,
    ],
    explicit=[(0, 5, 1), (0, 5, 2)],
    inferred=[(1, 5, 3), (1, 5, 4)],
)


def engine_image(extra_deltas=(), workers=0, **engine):
    """(image blob, expected state) for one engine run."""
    with Slider(fragment="rhodf", workers=workers, timeout=None, **engine) as r:
        r.apply(Delta(assertions=small_ontology() + make_chain(6)))
        r.apply(Delta(retractions=[small_ontology()[0]]))
        for delta in extra_deltas:
            r.apply(delta)
        expected = dict(
            revision=r.revision,
            terms=r.dictionary.snapshot_terms(),
            explicit=set(r.input_manager.explicit),
            store=set(r.store),
        )
        return r.snapshot_bytes(), expected


class TestImageIdentity:
    @each_execution_mode
    def test_image_parses_to_the_engine_state(self, execution):
        blob, expected = engine_image(**execution)
        image = parse_snapshot(blob)
        assert isinstance(image, ColumnarSnapshot)
        assert (image.revision, image.fragment, image.store_spec) == (
            expected["revision"], "rhodf", "hashdict"
        )
        assert image_revision(blob) == expected["revision"]
        # Term ids are positional: the lists must agree element-wise.
        assert list(image.terms) == expected["terms"]
        assert set(image.explicit) == expected["explicit"]
        assert set(image.explicit).isdisjoint(image.inferred)
        assert set(image.explicit) | set(image.inferred) == expected["store"]
        image.close()

    @each_execution_mode
    def test_restore_is_identical(self, execution):
        blob, expected = engine_image(**execution)
        dictionary, target = TermDictionary(), HashDictStore()
        explicit = parse_snapshot(blob).restore(dictionary, target)
        assert dictionary.snapshot_terms() == expected["terms"]  # ids bit-for-bit
        assert set(target) == expected["store"]
        assert explicit == expected["explicit"]

    def test_term_accessor_matches_term_list(self):
        blob, expected = engine_image()
        image = parse_columnar_snapshot(blob)
        for term_id, term in enumerate(expected["terms"]):
            assert image.term(term_id) == term
        image.close()


class TestColumnarDurabilitySafety:
    def write_v2(self, tmp_path):
        path = tmp_path / "snapshot.slider"
        path.write_bytes(encode_columnar_snapshot(**GOLDEN_STATE))
        return path

    def test_load_dispatches_on_magic(self, tmp_path):
        path = self.write_v2(tmp_path)
        assert isinstance(load_snapshot(path), ColumnarSnapshot)
        assert isinstance(load_snapshot(GOLDEN_V1), Snapshot)

    def test_corrupt_byte_is_detected(self, tmp_path):
        path = self.write_v2(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum|malformed|term"):
            load_snapshot(path)

    def test_truncated_image_is_detected(self, tmp_path):
        path = self.write_v2(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(SnapshotError):
            load_snapshot(path)


class TestDurableEngine:
    def test_seal_is_columnar_and_recovers(self, tmp_path):
        state = tmp_path / "state"
        with Slider(
            fragment="rhodf", workers=0, timeout=None, persist_dir=state
        ) as r:
            r.apply(Delta(assertions=small_ontology()))
            path = r.snapshot()
            expected = set(r.graph)
            revision = r.revision
        assert path.read_bytes()[:8] == b"SLSNAP02"
        assert not list(state.glob("*.tmp"))
        with Slider(
            fragment="rhodf", workers=0, timeout=None, persist_dir=state
        ) as revived:
            assert revived.revision == revision
            assert set(revived.graph) == expected


ids = st.integers(min_value=0, max_value=11)
encoded_triples = st.tuples(ids, ids, ids)


class TestEncodedRoundTripProperties:
    @given(
        explicit=st.sets(encoded_triples, max_size=40),
        inferred=st.sets(encoded_triples, max_size=40),
        revision=st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_parse_restore_identity(self, explicit, inferred, revision):
        inferred -= explicit  # the partitions are disjoint by contract
        terms = [IRI(f"http://prop.example/t{i}") for i in range(12)]
        blob = encode_columnar_snapshot(
            revision=revision, fragment="rdfs", store_spec="hashdict",
            axiom_count=0, terms=terms,
            explicit=sorted(explicit), inferred=sorted(inferred),
        )
        snapshot = parse_columnar_snapshot(blob)
        assert snapshot.revision == revision
        assert set(snapshot.explicit) == explicit
        assert set(snapshot.inferred) == inferred
        dictionary, target = TermDictionary(), HashDictStore()
        restored = snapshot.restore(dictionary, target)
        assert restored == explicit
        assert set(target) == explicit | inferred
        assert dictionary.snapshot_terms() == terms
        snapshot.close()


class TestGoldenV1Fixture:
    """Old v1 files must stay readable, bit for bit, forever."""

    def test_fixture_parses_to_the_pinned_state(self):
        snapshot = load_snapshot(GOLDEN_V1)
        assert snapshot.revision == GOLDEN_STATE["revision"]
        assert snapshot.fragment == GOLDEN_STATE["fragment"]
        assert snapshot.store_spec == GOLDEN_STATE["store_spec"]
        assert snapshot.axiom_count == GOLDEN_STATE["axiom_count"]
        assert snapshot.terms == GOLDEN_STATE["terms"]
        assert snapshot.explicit == GOLDEN_STATE["explicit"]
        assert snapshot.inferred == GOLDEN_STATE["inferred"]

    def test_header_read_agrees_with_the_full_parse(self):
        assert image_revision(GOLDEN_V1.read_bytes()) == GOLDEN_STATE["revision"]
        with pytest.raises(SnapshotError, match="magic"):
            image_revision(b"NOTASNAP\x07")

    def test_cross_format_migration_preserves_state(self, tmp_path):
        """v1 fixture -> restore -> re-seal as v2 -> restore: identical."""
        v1 = load_snapshot(GOLDEN_V1)
        v2_blob = encode_columnar_snapshot(
            revision=v1.revision, fragment=v1.fragment,
            store_spec=v1.store_spec, axiom_count=v1.axiom_count,
            terms=v1.terms, explicit=sorted(v1.explicit),
            inferred=sorted(v1.inferred),
        )
        v2 = parse_columnar_snapshot(v2_blob)
        for snapshot in (v1, v2):
            dictionary, target = TermDictionary(), HashDictStore()
            explicit = snapshot.restore(dictionary, target)
            assert dictionary.snapshot_terms() == GOLDEN_STATE["terms"]
            assert explicit == set(GOLDEN_STATE["explicit"])
            assert set(target) == set(GOLDEN_STATE["explicit"]) | set(
                GOLDEN_STATE["inferred"]
            )
        v2.close()

    def test_fixture_bytes_are_untouched(self):
        """Guard against accidental fixture edits (regenerating it is a
        deliberate act: update this digest in the same commit)."""
        digest = hashlib.sha256(GOLDEN_V1.read_bytes()).hexdigest()
        assert digest == GOLDEN_SHA256


# Computed once from the committed fixture; see test_fixture_bytes_are_untouched.
GOLDEN_SHA256 = "acb7cfc3fa995d25b2ff53afa51711c86f8b403e628f8f58b75ade9f55d82217"
