"""Unit tests for the durable WAL: framing, segments, checkpointing,
recovery, and the fault-injection points that make crashes testable."""

import pytest

from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.errors import RecoveryError, TransactionError
from repro.rdbms.transactions import (
    WalRecord,
    WalRecordType,
    decode_frames,
    encode_frame,
    scan_wal,
)
from repro.testing.faults import FaultInjector, InjectedFault


def durable_db(path, **overrides):
    config = DatabaseConfig(**overrides)
    return Database("dur", config, path=path)


def make_record(lsn, txn_id=7, record_type=WalRecordType.INSERT, payload=None):
    return WalRecord(
        lsn=lsn,
        txn_id=txn_id,
        record_type=record_type,
        table="t",
        rid=lsn - 1,
        payload_bytes=10,
        payload=payload,
    )


class TestFrameCodec:
    def test_roundtrip(self):
        record = make_record(3, payload=(1, b"abc", None))
        decoded, torn = decode_frames(encode_frame(record))
        assert torn is None
        assert decoded == [record]

    def test_multiple_frames_in_order(self):
        frames = b"".join(encode_frame(make_record(i)) for i in range(1, 6))
        decoded, torn = decode_frames(frames)
        assert torn is None
        assert [r.lsn for r in decoded] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("cut", [1, 4, 7, 8, 12])
    def test_torn_tail_detected_at_frame_boundary(self, cut):
        whole = encode_frame(make_record(1))
        torn_frame = encode_frame(make_record(2))[:cut]
        decoded, torn = decode_frames(whole + torn_frame)
        assert [r.lsn for r in decoded] == [1]
        assert torn == len(whole)

    def test_corrupt_body_stops_decoding(self):
        good = encode_frame(make_record(1))
        bad = bytearray(encode_frame(make_record(2)))
        bad[-1] ^= 0xFF  # flip a payload byte: CRC mismatch
        decoded, torn = decode_frames(bytes(good + bad) + encode_frame(make_record(3)))
        assert [r.lsn for r in decoded] == [1]
        assert torn == len(good)


class TestDurableLog:
    def test_appends_survive_reopen(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer, b text)")
        db.insert_rows("t", [(1, "x"), (2, "y")])
        db.execute("UPDATE t SET b = 'z' WHERE a = 2")
        db.close(checkpoint=False)

        db2 = durable_db(tmp_path / "db")
        assert db2.execute("SELECT a, b FROM t ORDER BY a").rows == [
            (1, "x"),
            (2, "z"),
        ]
        assert db2.last_recovery["records_replayed"] > 0

    def test_append_requires_activation(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.wal.close()
        with pytest.raises(TransactionError, match="not activated"):
            db.execute("CREATE TABLE t (a integer)")

    def test_uncommitted_tail_discarded_with_rid_continuity(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        # simulate a crash mid-transaction: log an INSERT with no COMMIT,
        # then abandon the process state entirely
        txn = db.txn_manager.begin()
        table = db.table("t")
        rid = table.insert((2,))
        txn.log_insert("t", rid, 8, undo=lambda: None, payload=(2,))
        db.wal.close()

        db2 = durable_db(tmp_path / "db")
        assert db2.execute("SELECT a FROM t").rows == [(1,)]
        assert db2.last_recovery["txns_discarded"] == 1
        # the dead rid is re-allocated as a filler slot so later rids match
        assert db2.table("t").allocated_rids == 2
        db2.insert_rows("t", [(3,)])
        assert db2.execute("SELECT a FROM t ORDER BY a").rows == [(1,), (3,)]

    def test_torn_final_frame_truncated(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        db.wal.close()
        # tear the final frame in half by hand
        wal_dir = tmp_path / "db" / "wal"
        segment = sorted(wal_dir.glob("*.wal"))[-1]
        data = segment.read_bytes()
        whole, _ = decode_frames(data)
        keep = len(data) - len(encode_frame(whole[-1])) // 2
        segment.write_bytes(data[:keep])

        scan = scan_wal(wal_dir)
        assert scan.torn_offset is not None
        # the truncation is durable: a second scan decodes cleanly
        rescan = scan_wal(wal_dir)
        assert rescan.torn_offset is None
        assert rescan.frames_decoded == len(whole) - 1

    def test_segment_rotation_and_bytes(self, tmp_path):
        db = durable_db(tmp_path / "db", wal_segment_bytes=1024)
        db.execute("CREATE TABLE t (a integer, b text)")
        db.insert_rows("t", [(i, "pad" * 30) for i in range(50)])
        assert db.wal.segment_count() > 1
        assert db.wal.bytes_on_disk() > 1024
        db.close(checkpoint=False)

        db2 = durable_db(tmp_path / "db", wal_segment_bytes=1024)
        assert db2.execute("SELECT count(*) FROM t").rows == [(50,)]

    def test_group_commit_batches_fsyncs(self, tmp_path):
        db = durable_db(tmp_path / "db", wal_group_commit=4)
        db.execute("CREATE TABLE t (a integer)")
        before = db.wal.fsyncs
        for i in range(8):  # 8 commits -> 2 barrier fsyncs
            db.insert_rows("t", [(i,)])
        assert db.wal.fsyncs - before == 2
        db.close(checkpoint=False)
        assert durable_db(tmp_path / "db").execute(
            "SELECT count(*) FROM t"
        ).rows == [(8,)]

    def test_ddl_replays_in_log_order(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        db.execute("ALTER TABLE t ADD COLUMN b text")
        db.execute("UPDATE t SET b = 'x'")
        db.execute("ALTER TABLE t DROP COLUMN a")
        db.execute("CREATE TABLE gone (z integer)")
        db.execute("DROP TABLE gone")
        db.close(checkpoint=False)

        db2 = durable_db(tmp_path / "db")
        assert db2.execute("SELECT * FROM t").rows == [("x",)]
        assert not db2.has_table("gone")

    def test_recover_refuses_populated_database(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        with pytest.raises(RecoveryError):
            db.recover()


class TestCheckpoint:
    def test_checkpoint_truncates_dead_segments(self, tmp_path):
        db = durable_db(tmp_path / "db", wal_segment_bytes=1024)
        db.execute("CREATE TABLE t (a integer, b text)")
        db.insert_rows("t", [(i, "pad" * 30) for i in range(50)])
        assert db.wal.segment_count() > 1
        info = db.checkpoint()
        assert info.segments_truncated >= 1
        assert db.wal.segment_count() == 1
        assert db.wal.bytes_on_disk() == 0

        db.close(checkpoint=False)
        db2 = durable_db(tmp_path / "db", wal_segment_bytes=1024)
        assert db2.last_recovery["had_checkpoint"]
        assert db2.last_recovery["records_replayed"] == 0
        assert db2.execute("SELECT count(*) FROM t").rows == [(50,)]

    def test_replay_starts_after_checkpoint_lsn(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        db.checkpoint()
        db.insert_rows("t", [(2,)])
        db.close(checkpoint=False)

        db2 = durable_db(tmp_path / "db")
        assert db2.last_recovery["had_checkpoint"]
        # only the post-checkpoint insert replays
        assert db2.last_recovery["txns_committed"] == 1
        assert db2.execute("SELECT a FROM t ORDER BY a").rows == [(1,), (2,)]

    def test_corrupt_checkpoint_falls_back_to_full_replay(self, tmp_path):
        # A corrupt checkpoint only arises from a crash racing the atomic
        # rename, i.e. before the WAL was truncated -- so the whole log is
        # still there and recovery can replay it from LSN 0.
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        db.close(checkpoint=False)
        (tmp_path / "db" / "checkpoint.bin").write_bytes(b"garbage")

        db2 = durable_db(tmp_path / "db")
        assert not db2.last_recovery["had_checkpoint"]
        assert db2.execute("SELECT a FROM t").rows == [(1,)]

    def test_checkpoint_requires_quiescence(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.txn_manager.begin()
        with pytest.raises(TransactionError):
            db.checkpoint()

    def test_in_memory_database_cannot_checkpoint(self):
        db = Database("mem")
        with pytest.raises(TransactionError):
            db.checkpoint()


class TestFaultPoints:
    def test_wal_append_fault_prevents_commit(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        injector = FaultInjector()
        db.attach_faults(injector)
        # the single-row autocommit txn appends BEGIN, INSERT, COMMIT;
        # fail the COMMIT append so nothing becomes durable
        injector.plan("wal.append", "raise", at=3)
        with pytest.raises(InjectedFault):
            db.insert_rows("t", [(1,)])
        db.wal.close()

        db2 = durable_db(tmp_path / "db")
        assert db2.execute("SELECT count(*) FROM t").rows == [(0,)]

    def test_torn_write_point_tears_commit_frame(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        injector = FaultInjector()
        db.attach_faults(injector)
        injector.plan("wal.torn_write", "raise", at=1)
        with pytest.raises(InjectedFault):
            db.insert_rows("t", [(2,)])
        db.wal._fh.close()  # abandon without syncing, like a crash

        db2 = durable_db(tmp_path / "db")
        assert db2.last_recovery["torn_offset"] is not None
        assert db2.execute("SELECT a FROM t").rows == [(1,)]

    def test_fsync_fault_fires_at_barrier(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        injector = FaultInjector()
        db.attach_faults(injector)
        injector.plan("wal.fsync", "raise", at=1)
        with pytest.raises(InjectedFault):
            db.insert_rows("t", [(1,)])
        assert injector.fired("wal.fsync") == 1

    def test_checkpoint_truncate_fault_leaves_stale_segments(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        injector = FaultInjector()
        db.attach_faults(injector)
        injector.plan("checkpoint.truncate", "raise", at=1)
        with pytest.raises(InjectedFault):
            db.checkpoint()
        # the checkpoint itself landed; the stale segments are skipped by
        # LSN on recovery
        db.wal.close()
        db2 = durable_db(tmp_path / "db")
        assert db2.last_recovery["had_checkpoint"]
        assert db2.last_recovery["records_replayed"] == 0
        assert db2.execute("SELECT a FROM t").rows == [(1,)]

    def test_fault_points_inert_in_memory(self):
        db = Database("mem")
        db.execute("CREATE TABLE t (a integer)")
        injector = FaultInjector()
        db.attach_faults(injector)
        injector.plan("wal.append", "raise", at=1)
        db.insert_rows("t", [(1,)])  # no fault: wal.append is durable-only
        assert injector.fired("wal.append") == 0


class TestWalStatus:
    def test_wal_status_surface(self, tmp_path):
        db = durable_db(tmp_path / "db")
        db.execute("CREATE TABLE t (a integer)")
        db.insert_rows("t", [(1,)])
        db.checkpoint()
        status = db.wal_status()
        assert status["durable"] is True
        assert status["records"] == db.wal.total_records
        assert status["fsyncs"] >= 1
        assert status["checkpoints"] == 1
        assert status["last_checkpoint_lsn"] == db.wal.last_lsn
        assert status["last_recovery"]["had_checkpoint"] is False

        mem_status = Database("mem").wal_status()
        assert mem_status["durable"] is False
        assert mem_status["last_recovery"] is None
