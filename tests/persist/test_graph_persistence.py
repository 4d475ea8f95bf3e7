"""Durability of the named-graph column: WAL v2 + snapshot v3.

Pins the acceptance line "snapshot + WAL round-trip the graph column":
graph-scoped commits journal their graph label (``SLWAL002`` records),
compaction writes the sparse column into the image (the writer bumps to
``SLSNAP03`` only when graph data is present, so default-graph images
stay byte-identical ``SLSNAP02``), and recovery — from the journal tail
or from a snapshot — reproduces the column exactly.  Reading the graph
section of a legacy v1 image is pinned by ``test_v1_compat``.
"""

import pytest

from repro import Delta, Slider
from repro.persist import read_journal
from repro.persist.columnar import COLUMNAR_MAGIC, COLUMNAR_MAGIC_V3
from repro.persist.journal import JOURNAL_MAGIC, JournalRecord
from repro.persist.snapshot import load_snapshot, parse_snapshot
from repro.rdf import RDF, Triple

from ..conftest import EX, each_execution_mode
from .test_recovery import kill

G1 = EX.tenantA
G2 = EX.tenantB


def typed(i: int) -> Triple:
    return Triple(EX[f"item{i}"], RDF.type, EX.Event)


def make_engine(state_dir, **options):
    options.setdefault("workers", 0)
    options.setdefault("timeout", None)
    return Slider(fragment="rhodf", persist_dir=state_dir, **options)


class TestJournalGraphRecords:
    def test_record_round_trips_graph_label(self):
        record = JournalRecord(3, [typed(1)], [typed(2)], graph=G1)
        decoded = JournalRecord.decode(record.encode()[8:])
        assert decoded.graph == G1
        assert decoded.assertions == (typed(1),)

    def test_default_graph_record_keeps_v1_byte_shape(self):
        # No trailing graph term: the payload ends after the retractions.
        with_graph = JournalRecord(1, [typed(1)], graph=G1).encode()
        without = JournalRecord(1, [typed(1)]).encode()
        assert len(without) < len(with_graph)
        assert JournalRecord.decode(without[8:]).graph is None

    def test_literal_graph_label_rejected(self):
        from repro.persist.format import FormatError
        from repro.rdf import Literal

        with pytest.raises(FormatError):
            JournalRecord(1, [typed(1)], graph=Literal("nope"))

    def test_fresh_journal_stamps_v2_magic(self, tmp_path):
        with make_engine(tmp_path) as engine:
            engine.apply(Delta(assertions=[typed(1)], graph=G1))
        assert (tmp_path / "changelog.wal").read_bytes()[:8] == JOURNAL_MAGIC
        records, _, _ = read_journal(tmp_path / "changelog.wal")
        assert [r.graph for r in records] == [G1]


class TestRecoveryRoundTrip:
    @each_execution_mode
    def test_journal_replay_restores_graph_column(self, execution, tmp_path):
        engine = make_engine(tmp_path, **execution)
        engine.apply(Delta(assertions=[typed(1), typed(2)], graph=G1))
        engine.apply(Delta(assertions=[typed(3)], graph=G2))
        engine.apply(Delta(assertions=[typed(4)]))
        engine.apply(Delta(retractions=[typed(2)], graph=G1))
        expected = engine.graph_counts()
        kill(engine)
        with make_engine(tmp_path, **execution) as recovered:
            assert recovered.recovery.replayed_records == 4
            assert recovered.graph_counts() == expected == {G1: 1, G2: 1}
            assert recovered.triples_in_graph(G1) == [typed(1)]

    def test_snapshot_restores_graph_column(self, tmp_path):
        with make_engine(tmp_path) as engine:
            engine.apply(Delta(assertions=[typed(1), typed(2)], graph=G1))
            engine.snapshot()
        # The journal was truncated: the column must come from the image.
        records, _, _ = read_journal(tmp_path / "changelog.wal")
        assert records == []
        with make_engine(tmp_path) as recovered:
            assert recovered.graph_counts() == {G1: 2}
            recovered.apply(Delta(assertions=[typed(3)], graph=G2))
            recovered.snapshot()
        with make_engine(tmp_path) as again:
            assert again.graph_counts() == {G1: 2, G2: 1}


class TestSnapshotFormats:
    def test_columnar_magic_bumps_only_with_graph_data(self, tmp_path):
        with make_engine(tmp_path) as engine:
            engine.apply(Delta(assertions=[typed(1)]))
            engine.snapshot()
            magic_plain = (tmp_path / "snapshot.slider").read_bytes()[:8]
            engine.apply(Delta(assertions=[typed(2)], graph=G1))
            engine.snapshot()
            magic_graphs = (tmp_path / "snapshot.slider").read_bytes()[:8]
        assert magic_plain == COLUMNAR_MAGIC
        assert magic_graphs == COLUMNAR_MAGIC_V3

    def test_v3_image_parses_and_exposes_graphs(self, tmp_path):
        with make_engine(tmp_path) as engine:
            engine.apply(Delta(assertions=[typed(1), typed(2)], graph=G1))
            engine.snapshot()
        image = load_snapshot(tmp_path / "snapshot.slider")
        try:
            assert len(image.graphs) == 2
            graph_ids = {g for _, _, _, g in image.graphs}
            assert {image.term(g) for g in graph_ids} == {G1}
        finally:
            image.close()

    def test_snapshot_bytes_carries_graphs(self, tmp_path):
        with make_engine(tmp_path) as engine:
            engine.apply(Delta(assertions=[typed(1)], graph=G1))
            image = parse_snapshot(engine.snapshot_bytes())
            assert len(image.graphs) == 1
            image.close()
