"""SinewDB durability lifecycle: open/close, reopen replay, resumed
materialization, and the WAL status surfaces (status() and the shell)."""

import io
import json

import pytest

from repro.core import SinewDB
from repro.rdbms.types import SqlType
from repro.shell import SinewShell
from repro.testing.faults import FaultInjector, InjectedFault

DOCS = [
    {"a": i, "b": f"s{i}", "nested": {"x": i * 2}}
    for i in range(10)
]


def canonical(sdb, table="t"):
    return sorted(
        json.dumps({"_id": doc_id, **doc}, sort_keys=True)
        for doc_id, doc in sdb.documents(table)
    )


def build(path):
    sdb = SinewDB.open(path)
    sdb.create_collection("t")
    sdb.load("t", DOCS)
    return sdb


class TestLifecycle:
    def test_clean_close_reopen_byte_identical(self, tmp_path):
        sdb = build(tmp_path / "db")
        expected = canonical(sdb)
        sdb.close()

        sdb2 = SinewDB.open(tmp_path / "db")
        assert canonical(sdb2) == expected
        # clean close checkpointed: nothing replayed
        assert sdb2.last_recovery["records_replayed"] == 0
        assert sdb2.last_recovery["had_checkpoint"]
        assert all(report.ok for report in sdb2.check())
        sdb2.close()

    def test_crash_reopen_replays_wal(self, tmp_path):
        sdb = build(tmp_path / "db")
        sdb.query("UPDATE t SET b = 'updated' WHERE a = 3")
        expected = canonical(sdb)
        sdb.db.wal.close()  # abandon without checkpoint: crash semantics

        sdb2 = SinewDB.open(tmp_path / "db")
        assert sdb2.last_recovery["records_replayed"] > 0
        assert canonical(sdb2) == expected
        assert all(report.ok for report in sdb2.check())
        # logical schema survives via the replayed catalog records
        keys = {key for key, _t, _s in sdb2.logical_schema("t")}
        assert {"a", "b", "nested.x"} <= keys
        sdb2.close()

    def test_collections_and_drops_survive(self, tmp_path):
        sdb = SinewDB.open(tmp_path / "db")
        sdb.create_collection("keep")
        sdb.create_collection("gone")
        sdb.load("keep", [{"k": 1}])
        sdb.drop_collection("gone")
        sdb.db.wal.close()

        sdb2 = SinewDB.open(tmp_path / "db")
        assert sdb2.collections() == ["keep"]
        sdb2.close()


class TestMaterializationResume:
    def test_cursor_resumes_mid_column(self, tmp_path):
        sdb = build(tmp_path / "db")
        sdb.materialize("t", "a", SqlType.INTEGER)
        # move only part of the column, then crash
        sdb.materializer_step("t", max_rows=4)
        state = sdb.catalog.table("t").state(
            sdb.catalog.lookup_id("a", SqlType.INTEGER)
        )
        assert 0 < state.cursor < len(DOCS)
        crashed_cursor = state.cursor
        expected = canonical(sdb)
        sdb.db.wal.close()

        sdb2 = SinewDB.open(tmp_path / "db")
        state2 = sdb2.catalog.table("t").state(
            sdb2.catalog.lookup_id("a", SqlType.INTEGER)
        )
        assert state2.dirty
        assert state2.cursor == crashed_cursor
        report = sdb2.run_materializer("t")
        # only the remaining rows are re-examined
        assert report.rows_examined == len(DOCS) - crashed_cursor
        assert not sdb2.catalog.table("t").dirty_columns()
        assert canonical(sdb2) == expected
        assert all(r.ok for r in sdb2.check())
        sdb2.close()

    def test_settled_layout_matches_crash_free_run(self, tmp_path):
        def workload(sdb, crash_mid_settle):
            sdb.create_collection("t")
            sdb.load("t", DOCS)
            sdb.materialize("t", "a", SqlType.INTEGER)
            sdb.materialize("t", "b", SqlType.TEXT)
            if crash_mid_settle:
                sdb.materializer_step("t", max_rows=13)
                sdb.db.wal.close()
            else:
                sdb.run_materializer("t")
                sdb.close()

        control = SinewDB.open(tmp_path / "control")
        workload(control, crash_mid_settle=False)
        control = SinewDB.open(tmp_path / "control")
        settled = sorted(
            (k, t.value, s) for k, t, s in control.logical_schema("t")
        )
        control_docs = canonical(control)
        control.close()

        crashed = SinewDB.open(tmp_path / "crash")
        workload(crashed, crash_mid_settle=True)
        recovered = SinewDB.open(tmp_path / "crash")
        recovered.run_materializer("t")
        assert canonical(recovered) == control_docs
        assert (
            sorted((k, t.value, s) for k, t, s in recovered.logical_schema("t"))
            == settled
        )
        recovered.close()

    def test_daemon_resumes_after_reopen(self, tmp_path):
        sdb = build(tmp_path / "db")
        sdb.materialize("t", "a", SqlType.INTEGER)
        sdb.materializer_step("t", max_rows=3)
        sdb.db.wal.close()

        sdb2 = SinewDB.open(tmp_path / "db")
        assert sdb2.daemon.recoveries >= 1
        sdb2.start_daemon()
        try:
            deadline = 200
            while sdb2.catalog.table("t").dirty_columns() and deadline:
                import time

                time.sleep(0.01)
                deadline -= 1
            assert not sdb2.catalog.table("t").dirty_columns()
        finally:
            sdb2.close()
        assert not sdb2.daemon.is_alive()


class TestStatusSurfaces:
    def test_status_includes_wal_block(self, tmp_path):
        sdb = build(tmp_path / "db")
        status = sdb.status()
        assert status["wal"]["durable"] is True
        assert status["wal"]["records"] > 0
        assert status["wal"]["fsyncs"] >= 1
        sdb.checkpoint()
        status = sdb.status()
        assert status["wal"]["checkpoints"] == 1
        assert status["wal"]["last_checkpoint_lsn"] > 0
        sdb.close()

    def test_in_memory_status_stays_cheap(self):
        sdb = SinewDB("mem")
        status = sdb.status()
        assert status["wal"]["durable"] is False
        assert status["wal"]["segments"] == 0

    def test_shell_wal_command(self, tmp_path):
        sdb = build(tmp_path / "db")
        out = io.StringIO()
        shell = SinewShell(sdb=sdb, out=out)
        shell.run_line("\\wal")
        text = out.getvalue()
        assert "wal: durable" in text
        assert "segments:" in text
        shell.run_line("\\wal checkpoint")
        assert "checkpoint written at lsn" in out.getvalue()
        shell.run_line("\\wal bogus")
        assert "usage: \\wal [status|checkpoint]" in out.getvalue()
        sdb.close()

    def test_shell_wal_in_memory(self):
        out = io.StringIO()
        shell = SinewShell(sdb=SinewDB("mem"), out=out)
        shell.run_line("\\wal")
        assert "in-memory" in out.getvalue()


class TestFaultedCheckpoint:
    def test_checkpoint_pages_fault_preserves_old_checkpoint(self, tmp_path):
        sdb = build(tmp_path / "db")
        sdb.checkpoint()
        first_lsn = sdb.db.checkpointer.last_checkpoint_lsn
        sdb.load("t", [{"late": True}])
        injector = FaultInjector()
        sdb.attach_faults(injector)
        injector.plan("checkpoint.pages", "raise", at=1)
        with pytest.raises(InjectedFault):
            sdb.checkpoint()
        expected = canonical(sdb)
        sdb.db.wal.close()

        sdb2 = SinewDB.open(tmp_path / "db")
        assert sdb2.last_recovery["had_checkpoint"]
        assert sdb2.last_recovery["checkpoint_lsn"] == first_lsn
        assert canonical(sdb2) == expected
        sdb2.close()
