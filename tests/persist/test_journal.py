"""Changelog (WAL) tests: framing, CRC, and crash injection.

The crash-injection acceptance line: truncate the journal at *every*
byte boundary of the last record and recovery must drop exactly the
torn tail — never a good record, never corrupted state.
"""

import pytest

from repro import Slider
from repro.persist import (
    CLUSTER_LOG,
    JOURNAL_MAGIC,
    ClusterRecord,
    JournalError,
    JournalRecord,
    JournalWriter,
    read_journal,
    recover_journal,
)
from repro.rdf import Literal, RDF, Triple

from ..conftest import EX, small_ontology


def typed(i: int) -> Triple:
    return Triple(EX[f"item{i}"], RDF.type, EX.Event)


def write_records(path, count: int, fsync: bool = False) -> list[JournalRecord]:
    records = [
        JournalRecord(
            revision=i + 1,
            assertions=[typed(i), Triple(EX[f"s{i}"], EX.says, Literal(f"v{i}"))],
            retractions=[typed(i - 1)] if i else [],
        )
        for i in range(count)
    ]
    with JournalWriter(path, fsync=fsync) as writer:
        for record in records:
            writer.append(record)
    return records


def assert_records_equal(actual, expected):
    assert [(r.revision, r.assertions, r.retractions) for r in actual] == [
        (r.revision, r.assertions, r.retractions) for r in expected
    ]


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = tmp_path / "changelog.wal"
        written = write_records(path, 5)
        records, durable, fragment = read_journal(path)
        assert_records_equal(records, written)
        assert durable == path.stat().st_size
        assert fragment == ""  # write_records uses the default stamp

    def test_empty_journal(self, tmp_path):
        path = tmp_path / "changelog.wal"
        with JournalWriter(path, fragment="rhodf"):
            pass
        records, durable, fragment = read_journal(path)
        assert records == []
        assert durable == path.stat().st_size  # the whole file is header
        assert fragment == "rhodf"

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "changelog.wal"
        first = write_records(path, 2)
        extra = JournalRecord(revision=3, assertions=[typed(42)])
        with JournalWriter(path) as writer:
            writer.append(extra)
        records, _, _ = read_journal(path)
        assert_records_equal(records, first + [extra])

    def test_reset_truncates_to_magic(self, tmp_path):
        path = tmp_path / "changelog.wal"
        with JournalWriter(path, fragment="rdfs") as writer:
            header_size = writer.size
            writer.append(JournalRecord(1, [typed(1)]))
            writer.reset()
            assert writer.size == header_size
            writer.append(JournalRecord(2, [typed(2)]))
        records, _, fragment = read_journal(path)
        assert fragment == "rdfs"
        assert [r.revision for r in records] == [2]

    def test_fsync_mode_writes_identical_bytes(self, tmp_path):
        loose, strict = tmp_path / "a.wal", tmp_path / "b.wal"
        write_records(loose, 3, fsync=False)
        write_records(strict, 3, fsync=True)
        assert loose.read_bytes() == strict.read_bytes()

    def test_empty_delta_record(self, tmp_path):
        path = tmp_path / "changelog.wal"
        with JournalWriter(path) as writer:
            writer.append(JournalRecord(1))
        records, _, _ = read_journal(path)
        assert records[0].assertions == () and records[0].retractions == ()


class TestCrashInjection:
    """Kill the journal mid-record at every byte boundary of the tail."""

    def test_truncate_at_every_byte_of_the_last_record(self, tmp_path):
        path = tmp_path / "changelog.wal"
        written = write_records(path, 4)
        blob = path.read_bytes()
        # Framing is deterministic, so the last record's start offset is
        # the intact file size minus the last record's framed length.
        last_start = len(blob) - len(written[3].encode())

        prefix_path = tmp_path / "torn.wal"
        for cut in range(last_start, len(blob)):  # every torn length
            prefix_path.write_bytes(blob[:cut])
            records, durable, _ = read_journal(prefix_path)
            assert_records_equal(records, written[:3])
            assert durable == last_start  # the tail is dropped exactly
        # The intact file still yields all four.
        records, _, _ = read_journal(path)
        assert_records_equal(records, written)

    def test_bitflip_in_last_record_drops_only_it(self, tmp_path):
        path = tmp_path / "changelog.wal"
        written = write_records(path, 3)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0xFF
        path.write_bytes(bytes(blob))
        records, _, _ = read_journal(path)
        assert_records_equal(records, written[:2])

    def test_garbage_after_valid_records_is_dropped(self, tmp_path):
        path = tmp_path / "changelog.wal"
        written = write_records(path, 2)
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 10)
        records, durable, _ = read_journal(path)
        assert_records_equal(records, written)
        assert durable < path.stat().st_size

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "not-a-journal.wal"
        path.write_bytes(b"PLAINTEXT LOG\n")
        with pytest.raises(JournalError, match="magic"):
            read_journal(path)

    def test_torn_magic_reads_as_empty(self, tmp_path):
        path = tmp_path / "changelog.wal"
        path.write_bytes(JOURNAL_MAGIC[:3])
        records, durable, fragment = read_journal(path)
        assert records == [] and durable == 0 and fragment is None

    def test_recover_journal_cuts_the_torn_tail_off_the_file(self, tmp_path):
        path = tmp_path / "changelog.wal"
        written = write_records(path, 3)
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(written[0].encode()[:-2])
        records, dropped, fragment = recover_journal(path)
        assert_records_equal(records, written)
        assert dropped == len(written[0].encode()) - 2 and fragment == ""
        assert path.stat().st_size == intact
        assert recover_journal(tmp_path / "absent.wal") == ([], 0, None)

    def test_engine_recovery_truncates_torn_tail(self, tmp_path):
        """End to end: a torn last record is dropped by Slider start-up
        and the journal is physically truncated for clean appends."""
        state = tmp_path / "state"
        with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=state) as r:
            r.materialize(small_ontology())
        wal = state / "changelog.wal"
        blob = wal.read_bytes()
        wal.write_bytes(blob[:-4])  # tear the last record mid-payload

        with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=state) as r:
            assert r.recovery is not None
            assert r.recovery.torn_bytes_dropped > 0
            assert wal.stat().st_size < len(blob)
            survivors = set(r.graph)
            # Appending after truncation keeps the journal healthy.
            r.materialize([typed(7)])
        with Slider(fragment="rhodf", workers=0, timeout=None, persist_dir=state) as r:
            assert set(r.graph) >= survivors | {typed(7)}


class TestClusterLog:
    """The same writer and reader under the cluster log's codec."""

    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "cluster.wal"
        written = [
            ClusterRecord(1, [1, 0], [typed(1), typed(2)]),
            ClusterRecord(2, [1, 1]),
            ClusterRecord(3, [3, 1], [typed(3)], [typed(1)]),
        ]
        with JournalWriter(path, fragment="rdfs", codec=CLUSTER_LOG) as writer:
            for record in written:
                writer.append(record)
        records, durable, fragment = read_journal(path, CLUSTER_LOG)
        assert path.read_bytes().startswith(CLUSTER_LOG.magic)
        assert durable == path.stat().st_size and fragment == "rdfs"
        assert [(r.revision, r.vector, r.assertions, r.retractions) for r in records] == [
            (r.revision, r.vector, r.assertions, r.retractions) for r in written
        ]

    def test_each_reader_refuses_the_other_log(self, tmp_path):
        changelog, cluster_log = tmp_path / "changelog.wal", tmp_path / "cluster.wal"
        write_records(changelog, 1)
        with JournalWriter(cluster_log, codec=CLUSTER_LOG) as writer:
            writer.append(ClusterRecord(1, [1]))
        with pytest.raises(JournalError, match="not a Slider changelog"):
            read_journal(cluster_log)
        with pytest.raises(JournalError, match="not a Slider cluster log"):
            read_journal(changelog, CLUSTER_LOG)
