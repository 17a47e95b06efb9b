"""Additional SinewDB facade edge cases."""

import pytest

from repro.core import SinewDB
from repro.rdbms.errors import CatalogError, SqlSyntaxError
from repro.rdbms.types import SqlType


@pytest.fixture()
def sdb():
    instance = SinewDB("misc")
    instance.create_collection("t")
    instance.load("t", [{"a": i, "b": f"s{i}", "flag": i % 2 == 0} for i in range(20)])
    return instance


class TestQueryEntryPoints:
    def test_execute_accepts_select(self, sdb):
        result = sdb.execute("SELECT count(*) FROM t")
        assert result.scalar() == 20

    def test_query_routes_dml(self, sdb):
        result = sdb.query("UPDATE t SET b = 'x' WHERE a = 1")
        assert result.rowcount == 1

    def test_syntax_error_propagates(self, sdb):
        with pytest.raises(SqlSyntaxError):
            sdb.query("SELEKT a FROM t")

    def test_query_against_plain_rdbms_table(self, sdb):
        sdb.db.execute("CREATE TABLE plain (x integer)")
        sdb.db.execute("INSERT INTO plain VALUES (1), (2)")
        result = sdb.query("SELECT x FROM plain ORDER BY x")
        assert result.column(0) == [1, 2]

    def test_limit_and_order(self, sdb):
        result = sdb.query("SELECT a FROM t ORDER BY a DESC LIMIT 3")
        assert result.column(0) == [19, 18, 17]

    def test_distinct_on_virtual(self, sdb):
        result = sdb.query("SELECT DISTINCT flag FROM t")
        assert sorted(result.column(0)) == [False, True]


class TestCollectionLifecycle:
    def test_recreate_after_drop(self, sdb):
        sdb.drop_collection("t")
        sdb.create_collection("t")
        assert sdb.query("SELECT count(*) FROM t").scalar() == 0

    def test_materialize_unknown_attribute(self, sdb):
        with pytest.raises(CatalogError):
            sdb.materialize("t", "ghost", SqlType.TEXT)

    def test_materialize_idempotent(self, sdb):
        sdb.materialize("t", "a", SqlType.INTEGER)
        sdb.materialize("t", "a", SqlType.INTEGER)  # no error, no double state
        sdb.run_materializer("t")
        assert sdb.query("SELECT count(*) FROM t WHERE a >= 0").scalar() == 20

    def test_dematerialize_virtual_is_noop(self, sdb):
        sdb.dematerialize("t", "a", SqlType.INTEGER)
        assert not sdb.materializer.pending("t")

    def test_storage_bytes_positive(self, sdb):
        assert sdb.storage_bytes("t") > 0


class TestDelete:
    def test_delete_with_virtual_predicate(self, sdb):
        result = sdb.execute("DELETE FROM t WHERE flag = true")
        assert result.rowcount == 10
        assert sdb.query("SELECT count(*) FROM t").scalar() == 10

    def test_delete_after_materialization(self, sdb):
        sdb.materialize("t", "a", SqlType.INTEGER)
        sdb.run_materializer("t")
        sdb.execute("DELETE FROM t WHERE a < 5")
        assert sdb.query("SELECT count(*) FROM t").scalar() == 15


class TestMaterializerWithDeletedRows:
    def test_materializer_skips_dead_rows(self, sdb):
        sdb.execute("DELETE FROM t WHERE a = 3")
        sdb.materialize("t", "b", SqlType.TEXT)
        report = sdb.run_materializer("t")
        assert report.rows_moved == 19
        assert sdb.query("SELECT count(*) FROM t WHERE b IS NOT NULL").scalar() == 19


class TestMultiCollection:
    def test_same_key_different_collections_independent(self, sdb):
        sdb.create_collection("u")
        sdb.load("u", [{"a": 100 + i} for i in range(5)])
        sdb.materialize("u", "a", SqlType.INTEGER)
        sdb.run_materializer("u")
        # 't' keeps its virtual 'a'; 'u' has it physical
        assert "a" not in sdb.db.table("t").schema
        assert "a" in sdb.db.table("u").schema
        assert sdb.query("SELECT min(a) FROM u").scalar() == 100
        assert sdb.query("SELECT min(a) FROM t").scalar() == 0

    def test_cross_collection_join(self, sdb):
        sdb.create_collection("v")
        sdb.load("v", [{"a": i, "extra": f"e{i}"} for i in range(5)])
        result = sdb.query(
            "SELECT x.extra FROM t w, v x WHERE w.a = x.a AND w.a < 2"
        )
        assert sorted(result.column(0)) == ["e0", "e1"]


@pytest.mark.parametrize("pins, rows_moved", [
    ((), None),
    ((SqlType.INTEGER,), 1),
    ((SqlType.INTEGER,), None),
    ((SqlType.INTEGER, SqlType.TEXT), None),
])
def test_update_writes_under_the_literal_type(pins, rows_moved):
    """An UPDATE stores the value under its literal's type, as a load
    would, and drops the key's occurrence of any other type: each row
    holds the key once, in every layout."""
    sdb = SinewDB("update_types")
    sdb.create_collection("t")
    sdb.load("t", [{"a": 1, "k": 1}, {"a": 2, "k": "x"}, {"a": 3, "k": 3}])
    for key_type in pins:
        sdb.materialize("t", "k", key_type)
    if rows_moved is None:
        sdb.run_materializer("t")
    elif pins:
        sdb.materializer_step("t", max_rows=rows_moved)
    assert sdb.execute("UPDATE t SET k = 'y' WHERE a = 1").rowcount == 1
    assert sdb.execute("UPDATE t SET k = 5 WHERE a = 2").rowcount == 1
    assert sdb.execute("UPDATE t SET k = NULL WHERE a = 3").rowcount == 1
    assert sdb.query("SELECT a FROM t WHERE k = 'x'").rows == []
    assert sdb.query("SELECT a FROM t WHERE k = 'y'").rows == [(1,)]
    assert sdb.query("SELECT a FROM t WHERE k = 5").rows == [(2,)]
    assert sdb.query("SELECT a FROM t WHERE k IS NULL").rows == [(3,)]
    assert [doc for _id, doc in sdb.documents("t")] == [
        {"a": 1, "k": "y"}, {"a": 2, "k": 5}, {"a": 3},
    ]
    assert all(not report.findings for report in sdb.check())
    sdb.run_materializer("t")
    assert sdb.query("SELECT a, k FROM t ORDER BY a").rows == [(1, "y"), (2, "5"), (3, None)]
    sdb.close()
