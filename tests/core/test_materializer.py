"""Unit tests for the incremental column materializer."""

import pytest

from repro.core import SinewDB
from repro.rdbms.errors import ConcurrencyError
from repro.rdbms.types import SqlType

N_DOCS = 200


@pytest.fixture()
def sdb():
    instance = SinewDB("mat")
    instance.create_collection("t")
    instance.load(
        "t",
        [
            {"k": f"v{i}", "n": i, "user": {"id": i}, "sparse": i}
            if i % 2 == 0
            else {"k": f"v{i}", "n": i, "user": {"id": i}}
            for i in range(N_DOCS)
        ],
    )
    return instance


class TestFullMaterialization:
    def test_column_appears_and_values_move(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        report = sdb.run_materializer("t")
        assert "k" in report.columns_completed
        assert report.rows_moved == N_DOCS
        table = sdb.db.table("t")
        assert "k" in table.schema
        position = table.schema.position_of("k")
        values = [row[position] for _rid, row in table.scan()]
        assert values == [f"v{i}" for i in range(N_DOCS)]

    def test_values_removed_from_reservoir(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.run_materializer("t")
        table = sdb.db.table("t")
        data_position = table.schema.position_of("data")
        for _rid, row in table.scan():
            assert sdb.extractor.extract_text(row[data_position], "k") is None

    def test_sparse_column_moves_only_present_values(self, sdb):
        sdb.materialize("t", "sparse", SqlType.INTEGER)
        report = sdb.run_materializer("t")
        assert report.rows_moved == N_DOCS // 2
        result = sdb.query("SELECT count(*) FROM t WHERE sparse IS NOT NULL")
        assert result.scalar() == N_DOCS // 2

    def test_dirty_flag_cleared(self, sdb):
        sdb.materialize("t", "n", SqlType.INTEGER)
        assert sdb.materializer.pending("t")
        sdb.run_materializer("t")
        assert not sdb.materializer.pending("t")

    def test_queries_identical_before_and_after(self, sdb):
        before = sdb.query("SELECT k FROM t WHERE n = 7").rows
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.materialize("t", "n", SqlType.INTEGER)
        sdb.run_materializer("t")
        after = sdb.query("SELECT k FROM t WHERE n = 7").rows
        assert before == after == [("v7",)]


class TestIncrementalMaterialization:
    def test_step_is_bounded(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        report = sdb.materializer_step("t", max_rows=50)
        assert report.rows_examined == 50
        assert report.columns_completed == []
        assert sdb.materializer.pending("t")  # still dirty

    def test_query_during_partial_move_sees_all_rows(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.materializer_step("t", max_rows=N_DOCS // 2)
        # half the values are physical, half still in the reservoir: the
        # COALESCE rewrite must see every row (section 3.1.4)
        result = sdb.query("SELECT count(*) FROM t WHERE k IS NOT NULL")
        assert result.scalar() == N_DOCS
        point = sdb.query(f"SELECT n FROM t WHERE k = 'v{N_DOCS - 1}'")
        assert point.rows == [(N_DOCS - 1,)]

    def test_resumes_where_it_stopped(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.materializer_step("t", max_rows=60)
        sdb.materializer_step("t", max_rows=60)
        report = sdb.materializer_step("t", max_rows=N_DOCS)
        assert "k" in report.columns_completed
        total_moved = N_DOCS  # every row had k
        table = sdb.db.table("t")
        position = table.schema.position_of("k")
        assert sum(1 for _r, row in table.scan() if row[position] is not None) == (
            total_moved
        )

    def test_explain_shows_coalesce_while_dirty(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.materializer_step("t", max_rows=10)
        plan = sdb.explain("SELECT k FROM t")
        assert "COALESCE" in plan or "Coalesce" in plan

    def test_load_after_materialization_re_dirties(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.run_materializer("t")
        assert not sdb.materializer.pending("t")
        sdb.load("t", [{"k": "fresh", "n": 999}])
        pending = sdb.materializer.pending("t")
        assert pending
        sdb.run_materializer("t")
        result = sdb.query("SELECT n FROM t WHERE k = 'fresh'")
        assert result.rows == [(999,)]


class TestDematerialization:
    def test_column_dropped_and_values_back_in_reservoir(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.run_materializer("t")
        sdb.dematerialize("t", "k", SqlType.TEXT)
        report = sdb.run_materializer("t")
        assert "k" in report.columns_completed
        assert "k" not in sdb.db.table("t").schema
        assert sdb.query("SELECT k FROM t WHERE n = 3").rows == [("v3",)]

    def test_roundtrip_preserves_documents(self, sdb):
        sdb.load("t", [{"n": N_DOCS, "arr": [{"x": 3}, {"x": 4}]}])
        baseline = [doc for _id, doc in sdb.documents("t")]
        columns = [("k", SqlType.TEXT), ("user", SqlType.BYTEA), ("arr", SqlType.ARRAY)]
        for key, key_type in columns:
            sdb.materialize("t", key, key_type)
        sdb.run_materializer("t")
        assert [doc for _id, doc in sdb.documents("t")] == baseline
        for key, key_type in columns:
            sdb.dematerialize("t", key, key_type)
        sdb.run_materializer("t")
        assert [doc for _id, doc in sdb.documents("t")] == baseline


class TestNestedMaterialization:
    def test_materialize_nested_object_column(self, sdb):
        sdb.materialize("t", "user", SqlType.BYTEA)
        sdb.run_materializer("t")
        # sub-key extraction must now route through the physical column
        result = sdb.query('SELECT "user.id" FROM t WHERE n = 5')
        assert result.rows == [(5,)]
        plan = sdb.explain('SELECT "user.id" FROM t')
        assert "user" in plan and "data" not in plan.split("Seq Scan")[0]

    def test_materialize_dotted_key_directly(self, sdb):
        sdb.materialize("t", "user.id", SqlType.INTEGER)
        sdb.run_materializer("t")
        table = sdb.db.table("t")
        assert "user.id" in table.schema
        result = sdb.query('SELECT "user.id" FROM t WHERE n = 9')
        assert result.rows == [(9,)]

    def test_materialize_child_after_parent(self, sdb):
        # the child value lives in the parent's physical cell by then, so
        # the mover must source from there instead of the reservoir
        truth = [doc for _id, doc in sdb.documents("t")]
        sdb.materialize("t", "user", SqlType.BYTEA)
        sdb.run_materializer("t")
        sdb.materialize("t", "user.id", SqlType.INTEGER)
        report = sdb.run_materializer("t")
        assert report.rows_moved == N_DOCS
        result = sdb.query('SELECT "user.id" FROM t WHERE n = 9')
        assert result.rows == [(9,)]
        assert not any(report.findings for report in sdb.check("t"))
        assert [doc for _id, doc in sdb.documents("t")] == truth

    def test_child_query_correct_while_move_from_parent_cell_in_flight(self, sdb):
        sdb.materialize("t", "user", SqlType.BYTEA)
        sdb.run_materializer("t")
        sdb.materialize("t", "user.id", SqlType.INTEGER)
        expected = sorted(range(N_DOCS))
        while sdb.materializer.pending("t"):
            sdb.materializer_step("t", max_rows=7)
            rows = sdb.query('SELECT "user.id" FROM t').column(0)
            assert sorted(rows) == expected

    def test_dematerialize_child_returns_value_to_parent_cell(self, sdb):
        sdb.materialize("t", "user", SqlType.BYTEA)
        sdb.run_materializer("t")
        sdb.materialize("t", "user.id", SqlType.INTEGER)
        sdb.run_materializer("t")
        sdb.dematerialize("t", "user.id", SqlType.INTEGER)
        report = sdb.run_materializer("t")
        assert report.rows_moved == N_DOCS
        assert "user.id" not in sdb.db.table("t").schema
        result = sdb.query('SELECT "user.id" FROM t WHERE n = 9')
        assert result.rows == [(9,)]
        assert not any(report.findings for report in sdb.check("t"))
        assert [doc for _id, doc in sdb.documents("t")] == [
            doc for doc in ({"k": f"v{i}", "n": i, "user": {"id": i}, "sparse": i}
                            if i % 2 == 0
                            else {"k": f"v{i}", "n": i, "user": {"id": i}}
                            for i in range(N_DOCS))
        ]


class TestLatchInteraction:
    def test_materializer_blocked_by_loader_latch(self, sdb):
        sdb.materialize("t", "k", SqlType.TEXT)
        sdb.materializer.latch_timeout = 0.05
        with sdb.catalog.exclusive_latch("loader"):
            with pytest.raises(ConcurrencyError, match="timed out"):
                sdb.materializer_step("t")
        # fail-fast mode still available for exclusion checks
        sdb.materializer.latch_blocking = False
        with sdb.catalog.exclusive_latch("loader"):
            with pytest.raises(ConcurrencyError, match="must wait"):
                sdb.materializer_step("t")
