"""Snapshot format round-trips: partitions, dictionary ids, revision.

The acceptance line for the format: snapshot → load preserves the explicit/inferred partitions, every dictionary
id, and the revision id *bit for bit*.
"""

import struct
import zlib

import pytest

from repro import Delta, Slider
from repro.persist import (
    Snapshot,
    SnapshotError,
    atomic_write,
    encode_columnar_snapshot,
    load_snapshot,
)
from repro.dictionary import TermDictionary
from repro.rdf import BNode, IRI, Literal, RDF, Triple
from repro.store import HashDictStore

from ..conftest import EX, each_execution_mode, make_chain, small_ontology
from .test_columnar import GOLDEN_V1


def durable_engine(tmp_path, **options):
    options.setdefault("workers", 0)
    options.setdefault("timeout", None)
    return Slider(fragment="rhodf", persist_dir=tmp_path / "state", **options)


class TestRoundTrip:
    @each_execution_mode
    def test_partitions_dictionary_and_revision_bit_for_bit(self, execution, tmp_path):
        with durable_engine(tmp_path, **execution) as reasoner:
            reasoner.apply(Delta(assertions=small_ontology() + make_chain(6)))
            reasoner.apply(Delta(retractions=[small_ontology()[0]]))
            path = reasoner.snapshot()
            expected_revision = reasoner.revision
            expected_terms = reasoner.dictionary.snapshot_terms()
            expected_explicit = set(reasoner.input_manager.explicit)
            expected_store = set(reasoner.store)

        snapshot = load_snapshot(path)
        assert snapshot.revision == expected_revision
        assert snapshot.fragment == "rhodf"
        assert snapshot.store_spec == "hashdict"
        assert snapshot.terms == expected_terms  # ids preserved by position
        assert set(snapshot.explicit) == expected_explicit
        assert set(snapshot.explicit) | set(snapshot.inferred) == expected_store
        assert set(snapshot.explicit).isdisjoint(snapshot.inferred)

    @each_execution_mode
    def test_restore_into_fresh_substrate_is_identical(self, execution, tmp_path):
        with durable_engine(tmp_path, **execution) as reasoner:
            reasoner.apply(Delta(assertions=small_ontology()))
            path = reasoner.snapshot()
            expected_terms = reasoner.dictionary.snapshot_terms()
            expected_store = set(reasoner.store)
            expected_explicit = set(reasoner.input_manager.explicit)

        snapshot = load_snapshot(path)
        dictionary, target = TermDictionary(), HashDictStore()
        explicit = snapshot.restore(dictionary, target)
        # Bit-for-bit: the fresh dictionary reproduces every id, so the
        # encoded tuples compare equal without any translation.
        assert dictionary.snapshot_terms() == expected_terms
        assert set(target) == expected_store
        assert explicit == expected_explicit

    def test_restore_into_shared_dictionary_remaps_ids(self, tmp_path):
        with durable_engine(tmp_path) as reasoner:
            reasoner.apply(Delta(assertions=small_ontology()))
            path = reasoner.snapshot()
            expected_graph = set(reasoner.graph)

        snapshot = load_snapshot(path)
        shared = TermDictionary(preregister=[EX.unrelated, EX.other])  # shifts all ids
        target = HashDictStore()
        snapshot.restore(shared, target)
        decoded = {shared.decode_triple(t) for t in target}
        assert decoded == expected_graph

    def test_every_term_shape_survives(self, tmp_path):
        triples = [
            Triple(EX.s, EX.p, IRI("http://example.org/o")),
            Triple(BNode("blank1"), EX.p, Literal("plain")),
            Triple(EX.s, EX.p, Literal("hallo", language="de")),
            Triple(EX.s, EX.p, Literal("42", datatype=IRI("http://www.w3.org/2001/XMLSchema#integer"))),
            Triple(EX.s, RDF.type, EX.Thing),
        ]
        with durable_engine(tmp_path) as reasoner:
            reasoner.apply(Delta(assertions=triples))
            path = reasoner.snapshot()
            expected = set(reasoner.graph)
        snapshot = load_snapshot(path)
        dictionary, target = TermDictionary(), HashDictStore()
        snapshot.restore(dictionary, target)
        assert {dictionary.decode_triple(t) for t in target} == expected

    def test_empty_engine_snapshot(self, tmp_path):
        with durable_engine(tmp_path) as reasoner:
            path = reasoner.snapshot()
        snapshot = load_snapshot(path)
        assert snapshot.explicit == [] and snapshot.inferred == []
        assert snapshot.axiom_count == 0


class TestDurabilitySafety:
    def test_corrupt_byte_is_detected(self, tmp_path):
        with durable_engine(tmp_path) as reasoner:
            reasoner.apply(Delta(assertions=small_ontology()))
            path = reasoner.snapshot()
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum|malformed"):
            load_snapshot(path)

    def test_truncated_snapshot_is_detected(self, tmp_path):
        with durable_engine(tmp_path) as reasoner:
            reasoner.apply(Delta(assertions=small_ontology()))
            path = reasoner.snapshot()
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_wrong_magic_is_detected(self, tmp_path):
        path = tmp_path / "bogus.slider"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 32)
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    @pytest.mark.parametrize("fsync", (True, False))
    def test_atomic_write_leaves_no_temp_file(self, tmp_path, fsync, fsynced):
        path = tmp_path / "snapshot.slider"
        path.write_bytes(b"the previous image")
        blob = encode_columnar_snapshot(
            revision=7,
            fragment="rhodf",
            store_spec="hashdict",
            axiom_count=0,
            terms=[EX.a, EX.b, EX.c],
            explicit=[(0, 1, 2)],
            inferred=[],
        )
        atomic_write(path, blob, fsync=fsync)
        assert path.read_bytes() == blob
        assert not list(tmp_path.glob("*.tmp"))
        # Durable means the bytes *and* the rename: file, then directory.
        assert fsynced(path) == fsynced(tmp_path) == fsync
        snapshot = load_snapshot(path)
        assert snapshot.revision == 7
        assert snapshot.explicit == [(0, 1, 2)]
        snapshot.close()

    def test_out_of_range_term_id_is_rejected(self, tmp_path):
        # A legacy v1 stream whose checksum holds but whose last id does
        # not exist: the golden image's final payload byte is the object
        # id of its last inferred triple.
        payload = bytearray(GOLDEN_V1.read_bytes()[8:-4])
        payload[-1] = 0x7F
        path = tmp_path / "snapshot.slider"
        path.write_bytes(
            b"SLSNAP01" + payload + struct.pack("<I", zlib.crc32(payload))
        )
        with pytest.raises(SnapshotError, match="term id"):
            load_snapshot(path)

    def test_snapshot_repr_and_counts(self, tmp_path):
        snapshot = Snapshot(
            revision=3, fragment="rdfs", store_spec="hashdict", axiom_count=2,
            terms=[EX.a], explicit=[(0, 0, 0)], inferred=[],
        )
        assert snapshot.triple_count == 1
        assert "rev=3" in repr(snapshot)
