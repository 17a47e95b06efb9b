"""The materializer slice: one walk of the table for all its dirty keys,
one rewrite per row, one transaction per slice.

A durable ``materializer_step`` that moves k rows across m columns
writes exactly BEGIN + k UPDATE + m ``cursor`` + COMMIT records and one
fsync; a step over rows with nothing to move writes none; a fault
mid-slice leaves the heap rows and the in-memory cursors as they were.
"""

import pytest

from repro.core import SinewDB
from repro.rdbms.types import SqlType
from repro.testing.faults import FaultInjector, InjectedFault

N_DOCS = 12
DOCS = [{"a": i, "b": f"s{i}", "c": i * 0.5} for i in range(N_DOCS)]
COLUMNS = (("a", SqlType.INTEGER), ("b", SqlType.TEXT))


def open_marked(path):
    """A durable collection with ``a`` and ``b`` marked, nothing moved."""
    sdb = SinewDB.open(path)
    sdb.create_collection("t")
    sdb.load("t", DOCS)
    for key, key_type in COLUMNS:
        sdb.materialize("t", key, key_type)
    return sdb


def record_appends(sdb):
    """Arm a zero-delay plan on every WAL append, so each append's
    context lands in the injector's history."""
    injector = FaultInjector()
    injector.plan("wal.append", "delay", delay=0.0, count=None)
    sdb.attach_faults(injector)
    return injector


def appended(injector):
    return [
        (context["record_type"], context["table"])
        for point, _action, context in injector.history
        if point == "wal.append"
    ]


def states(sdb):
    table = sdb.catalog.table("t")
    return [table.state(sdb.catalog.lookup_id(k, t)) for k, t in COLUMNS]


def test_slice_is_one_transaction_with_one_fsync(tmp_path):
    sdb = open_marked(tmp_path / "db")
    try:
        injector = record_appends(sdb)
        fsyncs = sdb.db.wal.fsyncs
        k = 5
        report = sdb.materializer_step("t", max_rows=k)
        assert report.rows_examined == k
        assert report.rows_moved == k * len(COLUMNS)  # values, not rows
        assert appended(injector) == (
            [("begin", None)]
            + [("update", "t")] * k
            + [("catalog", None)] * len(COLUMNS)
            + [("commit", None)]
        )
        assert sdb.db.wal.fsyncs - fsyncs == 1
        assert [state.cursor for state in states(sdb)] == [k, k]
        # each row was rewritten once, for both keys
        table = sdb.db.table("t")
        positions = [table.schema.position_of(key) for key, _t in COLUMNS]
        for rid in range(N_DOCS):
            row = table.fetch(rid)
            cells = [row[position] for position in positions]
            assert cells == ([rid, f"s{rid}"] if rid < k else [None, None])
    finally:
        sdb.close()


def test_step_over_settled_rows_writes_nothing(tmp_path):
    sdb = open_marked(tmp_path / "db")
    try:
        sdb.run_materializer("t")
        # a load re-dirties both columns; their cursors restart at 0, so
        # the next slice walks settled rows first
        sdb.load("t", [{"a": 99, "b": "fresh"}])
        assert all(state.dirty and state.cursor == 0 for state in states(sdb))
        injector = record_appends(sdb)
        report = sdb.materializer_step("t", max_rows=N_DOCS)
        assert report.rows_examined == N_DOCS and report.rows_moved == 0
        assert appended(injector) == []
        assert [state.cursor for state in states(sdb)] == [N_DOCS, N_DOCS]
        report = sdb.materializer_step("t", max_rows=N_DOCS)
        assert report.rows_moved == len(COLUMNS)
        assert sorted(report.columns_completed) == ["a", "b"]
    finally:
        sdb.close()


def test_fault_mid_slice_undoes_the_whole_slice(tmp_path):
    sdb = open_marked(tmp_path / "db")
    try:
        sdb.materializer_step("t", max_rows=3)
        table = sdb.db.table("t")
        rows_before = list(table.scan())
        cursors_before = [state.cursor for state in states(sdb)]
        assert cursors_before == [3, 3]
        injector = FaultInjector()
        injector.plan("materializer.after_row_move", "raise", at=2)
        sdb.attach_faults(injector)
        with pytest.raises(InjectedFault):
            sdb.materializer_step("t", max_rows=5)
        ((_point, _action, context),) = injector.history
        assert context == {"table": "t", "keys": ("a", "b"), "rid": 4}
        assert list(table.scan()) == rows_before
        assert [state.cursor for state in states(sdb)] == cursors_before
        assert not sdb.db.txn_manager.active
        # the slice is simply taken again, and the column converges
        sdb.run_materializer("t")
        assert not sdb.materializer.pending("t")
        assert [doc for _id, doc in sdb.documents("t")] == DOCS
    finally:
        sdb.close()
