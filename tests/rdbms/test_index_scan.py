"""Ordered column indexes and the planner's access-path choice.

Three things are pinned here: *when* the planner may read a conjunct as an
index condition (only where that cannot change the answer), that an
``IndexScan`` returns exactly the rows of ``SeqScan`` + ``Filter`` for the
same condition (the two built directly as plan nodes over one table), and
that every live index stays equal to what a fresh build would give after
each kind of write.
"""

import random

import pytest

from repro.rdbms.database import Database
from repro.rdbms.plan_nodes import Filter, IndexScan, SeqScan, fuse
from repro.rdbms.planner import _index_condition
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType

from .index_oracle import assert_indexes_exact

COLUMNS = [
    ("k", SqlType.INTEGER),
    ("f", SqlType.REAL),
    ("s", SqlType.TEXT),
    ("m", SqlType.REAL),  # holds ints and floats side by side
    ("b", SqlType.BOOLEAN),
    ("loose", SqlType.INTEGER),  # a plain table does not enforce its types
]

#: conditions the planner may answer from an index
SARGABLE = [
    "k = 7",
    "7 = k",
    "k = -3",
    "k = 7.0",
    "k < 5",
    "k <= 5",
    "5 > k",
    "k > 40",
    "k >= 40",
    "40 <= k",
    "k > -2",
    "k BETWEEN 10 AND 20",
    "k BETWEEN 20 AND 10",
    "k BETWEEN -5 AND 2.5",
    "k IN (1, 2, 3)",
    "k IN (3, 3, 99999)",
    "t.k = 7",
    "f = 1.5",
    "f < 0",
    "f BETWEEN 0 AND 3",
    "m = 2",
    "m = 2.0",
    "m BETWEEN 1 AND 2.5",
    "m >= 2",
    "s = 'b'",
    "s = ''",
    "s < 'b'",
    "s >= 'ab'",
    "s BETWEEN 'a' AND 'b'",
    "s IN ('a', 'zz', '5')",
    "loose = 5",
    "loose < 3",
    "loose BETWEEN 0 AND 100",
]

#: conditions that must be left to the scan
NOT_SARGABLE = [
    "s = 5",  # literal outside the column's comparison bracket
    "k = 'x'",
    "k = NULL",
    "k < NULL",
    "k BETWEEN NULL AND 5",
    "k IN (1, NULL)",
    "k IN (1, 'x')",
    "k = true",
    "k NOT BETWEEN 1 AND 5",
    "k NOT IN (1, 2)",
    "k <> 5",
    "k = f",  # a column on both sides
    "k = k",
    "k + 0 = 5",
    "abs(k) = 5",
    "k = abs(-5)",  # a function operand
    "k = next_tick()",  # a volatile one
    "k IS NULL",
    "k IS NOT NULL",
    "b = true",  # no ordered type
    "s LIKE 'a%'",
    "k = 1 OR k = 2",
    "5 = 5",
]


def _random_rows(rng: random.Random, n: int) -> list[tuple]:
    rows = []
    for _ in range(n):
        rows.append(
            (
                rng.choice([None, rng.randrange(-5, 60)]),
                rng.choice([None, rng.randrange(-4, 8) / 2, float("nan")]),
                rng.choice([None, "", "a", "ab", "b", "zz", "5"]),
                rng.choice([None, 1, 2, 2.0, 2.5, 3, True]),
                rng.choice([None, True, False]),
                rng.choice([None, 5, 5.0, "5", True, 2, b"x"]),
            )
        )
    return rows


@pytest.fixture()
def db():
    database = Database("ix")
    database.create_table("t", COLUMNS)
    ticks = iter(range(10**6))
    database.create_function(
        "next_tick", lambda: next(ticks), SqlType.INTEGER, volatile=True
    )
    database.insert_rows("t", _random_rows(random.Random(20), 400))
    database.analyze()
    return database


def where_of(text: str):
    return parse(f"SELECT * FROM t WHERE {text}").where


def run(db, plan) -> list[tuple]:
    return list(fuse(plan).run(db.execution_context()))


def same_rows(left: list[tuple], right: list[tuple]) -> bool:
    # NaN is in the data: compare by repr, which also tells 2 from 2.0
    return [repr(row) for row in left] == [repr(row) for row in right]


class TestIndexCondition:
    @pytest.mark.parametrize("text", SARGABLE)
    def test_index_scan_equals_filtered_seq_scan(self, db, text):
        table = db.table("t")
        where = where_of(text)
        sargable = _index_condition(where, table, "t")
        assert sargable is not None, text
        by_index = run(db, IndexScan(table, "t", *sargable, where, 0.1))
        by_scan = run(db, Filter(SeqScan(table, "t"), where, 0.1))
        assert same_rows(by_index, by_scan), text
        assert_indexes_exact(table)

    @pytest.mark.parametrize("text", NOT_SARGABLE)
    def test_left_to_the_scan(self, db, text):
        table = db.table("t")
        assert _index_condition(where_of(text), table, "t") is None, text
        assert "Index Scan" not in db.explain(f"SELECT * FROM t WHERE {text}")
        assert not table._indexes

    def test_null_nan_and_foreign_values_are_not_indexed(self, db):
        table = db.table("t")
        for column in ("k", "f", "m", "loose", "s"):
            list(table.index_fetch(column, [(None, True, None, True)]))
        keys = {c: [k for k, _ in table._indexes[c].entries] for c in table._indexes}
        assert None not in keys["k"] and len(keys["k"]) < len(table)
        assert all(key == key for key in keys["f"])  # no NaN
        assert {type(key) for key in keys["m"]} == {int, float}  # no bool
        assert {type(key) for key in keys["loose"]} == {int, float}
        assert {type(key) for key in keys["s"]} == {str}

    def test_unordered_column_cannot_be_indexed(self, db):
        with pytest.raises(Exception, match="no ordering"):
            list(db.table("t").index_fetch("b", [(True, True, True, True)]))


def big_db() -> Database:
    database = Database("big")
    database.execute("CREATE TABLE t (id integer, grp integer, label text)")
    database.insert_rows("t", [(i, i % 7, f"l{i % 50}") for i in range(3000)])
    database.analyze()
    return database


class TestAccessPath:
    def test_selective_predicate_takes_the_index(self):
        database = big_db()
        text = database.explain("SELECT label FROM t WHERE id = 17")
        assert "Index Scan on t using id" in text
        assert "Index Cond: (id = 17)" in text
        before = database.counters.snapshot()
        assert database.execute("SELECT label FROM t WHERE id = 17").rows == [("l17",)]
        delta = database.counters.diff(before)
        assert delta["index_builds"] == 1 and delta["index_probes"] == 1
        # one scan to build, one tuple fetched
        assert delta["tuples_scanned"] == 3000 + 1
        before = database.counters.snapshot()
        database.execute("SELECT label FROM t WHERE id BETWEEN 20 AND 22")
        delta = database.counters.diff(before)
        assert delta["index_builds"] == 0 and delta["tuples_scanned"] == 3

    def test_unselective_predicate_keeps_the_scan(self):
        database = big_db()
        assert "Index Scan" not in database.explain("SELECT id FROM t WHERE grp = 3")
        assert "Index Scan" not in database.explain("SELECT id FROM t WHERE id > 10")
        assert "Index Scan" not in database.explain(
            "SELECT id FROM t WHERE id BETWEEN 100 AND 800"
        )

    def test_tiny_table_keeps_the_scan(self):
        database = Database("tiny")
        database.execute("CREATE TABLE t (id integer)")
        database.insert_rows("t", [(i,) for i in range(16)])
        database.analyze()
        assert "Index Scan" not in database.explain("SELECT id FROM t WHERE id = 3")

    def test_other_conjuncts_filter_above_the_index(self):
        database = big_db()
        sql = "SELECT id FROM t WHERE label = 'l17' AND id IN (17, 67, 68) AND grp < 5"
        text = database.explain(sql)
        assert "Index Scan on t using id" in text
        assert "Filter: (label = 'l17')" in text and "Filter: (grp < 5)" in text
        assert database.execute(sql).rows == [(17,), (67,)]

    def test_rows_and_limit_prefix_come_in_heap_order(self):
        database = big_db()
        sql = "SELECT id FROM t WHERE id IN (900, 5, 300, 5) LIMIT 2"
        assert "Index Scan" in database.explain(sql)
        assert database.execute(sql).rows == [(5,), (300,)]

    def test_index_side_of_a_join(self):
        database = big_db()
        sql = "SELECT a.id, b.label FROM t a, t b WHERE a.id = b.id AND a.id = 4"
        assert "Index Scan on t a using id" in database.explain(sql)
        assert database.execute(sql).rows == [(4, "l4")]

    def test_never_morsel_parallel(self):
        """Both access paths run inline; EXPLAIN prints the planned tree."""
        database = Database("par")
        database.execute("CREATE TABLE t (id integer)")
        database.insert_rows("t", [(i,) for i in range(9000)])
        database.analyze()
        text = database.explain("SELECT id FROM t WHERE id = 8000")
        assert "Index Scan" in text and "Parallel" not in text
        scan = database.explain("SELECT id FROM t WHERE id + 0 = 8000")
        assert "Seq Scan on t" in scan and "Parallel" not in scan
        assert database.execute("SELECT id FROM t WHERE id + 0 = 8000").rows == [(8000,)]
        database.close()

    def test_explain_analyze_shows_estimated_and_actual_rows(self):
        database = big_db()
        result = database.execute_statement(
            parse("SELECT id FROM t WHERE id BETWEEN 5 AND 9"), analyze=True
        )
        line = next(l for l in result.plan_text.splitlines() if "Index Scan" in l)
        assert "(rows=" in line and "actual rows=5" in line
        assert "Index Cond: (id BETWEEN 5 AND 9)" in result.plan_text

    def test_recheck_drops_a_row_changed_after_the_probe(self):
        database = big_db()
        table = database.table("t")
        where = where_of("id = 17")
        plan = fuse(IndexScan(table, "t", *_index_condition(where, table, "t"), where, 0.1))
        rows = plan.run(database.execution_context())
        original_fetch = table.fetch

        def fetch_after_a_writer(rid):
            table.update(rid, (-1, 0, "moved"))
            return original_fetch(rid)

        table.fetch = fetch_after_a_writer
        try:
            assert list(rows) == []
        finally:
            del table.fetch
        assert database.execute("SELECT label FROM t WHERE id = -1").rows == [("moved",)]


class TestDml:
    def test_update_and_delete_probe_instead_of_scanning(self):
        database = big_db()
        before = database.counters.snapshot()
        assert database.execute("UPDATE t SET label = 'x' WHERE id = 40").rowcount == 1
        assert database.execute("DELETE FROM t WHERE id BETWEEN 50 AND 52").rowcount == 3
        delta = database.counters.diff(before)
        assert delta["index_probes"] == 2 and delta["index_builds"] == 1
        assert delta["tuples_scanned"] < 3100  # the build, not three scans
        assert database.execute("SELECT label FROM t WHERE id = 40").rows == [("x",)]
        assert database.execute("SELECT count(*) FROM t").scalar() == 2997
        assert_indexes_exact(database.table("t"))

    def test_update_of_the_indexed_column_sees_no_own_write(self):
        database = big_db()
        database.execute("SELECT id FROM t WHERE id = 1")  # index exists
        assert database.execute("UPDATE t SET id = id + 1 WHERE id IN (7, 8)").rowcount == 2
        assert database.execute("SELECT count(*) FROM t WHERE id = 9").scalar() == 2
        assert_indexes_exact(database.table("t"))

    def test_unindexable_where_scans(self):
        database = big_db()
        assert database.execute("DELETE FROM t WHERE id + 0 = 3").rowcount == 1
        assert database.execute("DELETE FROM t").rowcount == 2999
        assert not database.table("t")._indexes


class TestMaintenance:
    """Seeded: after every step each live index equals a fresh build."""

    def test_every_write_path_keeps_indexes_exact(self, tmp_path):
        rng = random.Random(5)
        database = Database("m", path=tmp_path / "m")
        database.create_table("t", COLUMNS)
        database.insert_rows("t", _random_rows(rng, 120))

        def touch():
            table = database.table("t")
            for column in ("k", "f", "s", "m", "loose"):
                if column in table.schema:
                    list(table.index_fetch(column, [(None, True, None, True)]))

        touch()
        steps = ["insert", "update", "delete", "rollback", "add", "drop", "truncate",
                 "reopen", "checkpoint"]
        for step in [rng.choice(steps) for _ in range(120)] + steps:
            table = database.table("t")
            arity = len(table.schema)
            if step == "insert":
                rows = [r + (None,) * (arity - 6) for r in _random_rows(rng, 5)]
                database.insert_rows("t", [r[:arity] for r in rows])
            elif step == "update":
                database.execute(
                    f"UPDATE t SET k = {rng.randrange(60)}, s = 'u{rng.randrange(3)}' "
                    f"WHERE k = {rng.randrange(60)}"
                )
            elif step == "delete":
                database.execute(f"DELETE FROM t WHERE k BETWEEN {rng.randrange(60)} AND 70")
            elif step == "rollback":
                database.execute("BEGIN")
                database.insert_rows("t", [(1,) + (None,) * (arity - 1)],
                                     txn=database._default_session.txn)
                database.execute("UPDATE t SET k = 3 WHERE k < 10")
                database.execute("DELETE FROM t WHERE k = 3")
                assert_indexes_exact(database.table("t"))
                database.execute("ROLLBACK")
            elif step == "add" and "extra" not in table.schema:
                database.execute("ALTER TABLE t ADD COLUMN extra integer")
                assert not table._indexes
            elif step == "drop" and "extra" in table.schema:
                database.execute("ALTER TABLE t DROP COLUMN extra")
                assert not table._indexes
            elif step == "truncate":
                database.truncate_table("t")
                assert not table._indexes
                database.insert_rows(
                    "t", [r + (None,) * (arity - 6) for r in _random_rows(rng, 40)]
                )
            elif step == "checkpoint":
                database.checkpoint()
            elif step == "reopen":
                expected = sorted(map(repr, database.table("t").scan()))
                database.wal.close()  # crash: no checkpoint
                database = Database(
                    "m", path=tmp_path / "m"
                )
                assert not database.table("t")._indexes  # rebuilt on demand
                assert sorted(map(repr, database.table("t").scan())) == expected
            touch()
            assert_indexes_exact(database.table("t"))
        database.close()


class _HookedFamily:
    """A specializer family for ``plus(v, k) = v + k`` whose batch form
    runs ``hook`` (once) before it evaluates: a way to act inside the
    window between an index key being computed and its lock being taken."""

    def __init__(self):
        self.hook = None

    def bind(self, requests):
        ((_tag, (k,)),) = requests
        family = self

        class Bound:
            def one(self, value):
                return _plus(value, k)

            def columns(self, values):
                hook, family.hook = family.hook, None
                if hook is not None:
                    hook()
                return [[_plus(value, k) for value in values]]

        return Bound()


def _plus(value, k):
    return value + k if type(value) is int else None


class TestWritesDuringABuild:
    """An expression index keys rows outside the index lock, so writes can
    land between a build's registration and its end, and a build can start
    between a writer computing its keys and taking the lock."""

    def setup_table(self):
        database = Database("hooked")
        database.execute("CREATE TABLE t (id integer, v integer)")
        database.insert_rows("t", [(i, i % 50) for i in range(3000)])
        family = _HookedFamily()
        database.functions.register_scalar(
            "plus", _plus, SqlType.INTEGER, specializer=(family, "plus")
        )
        table = database.table("t")
        target, ranges = _index_condition(
            where_of("plus(v, 1) = 8"), table, "t", database.functions
        )
        return database, family, table, target, ranges

    def test_writes_inside_a_build_reach_the_index(self):
        database, family, table, target, ranges = self.setup_table()
        rid_of = {row[0]: rid for rid, row in table.scan()}

        def write_mid_scan():
            table.insert((5000, 7))
            table.update(rid_of[7], (7, 1))  # from key 8 to key 2
            table.update(rid_of[2999], (2999, 7))  # a row the scan has not reached
            table.delete(rid_of[57])
            table.undo_delete(rid_of[57], (57, 7))

        family.hook = write_mid_scan
        found = sorted(row[0] for _rid, row in table.index_fetch(target, ranges))
        assert family.hook is None  # the hook ran, inside the build
        assert found == sorted(
            [i for i in range(3000) if i % 50 == 7 and i != 7] + [2999, 5000]
        )
        assert_indexes_exact(table)

    def test_a_build_started_by_a_writer_keeps_its_row(self):
        database, family, table, target, ranges = self.setup_table()
        list(table.index_fetch(target, ranges))  # plus(v, 1) is built
        other, other_ranges = _index_condition(
            where_of("plus(v, 2) = 9"), table, "t", database.functions
        )
        # the insert below computes its key for plus(v, 1); right then a
        # probe builds plus(v, 2), so the insert must key its row again
        family.hook = lambda: list(table.index_fetch(other, other_ranges))
        rid = table.insert((6000, 7))
        assert family.hook is None
        assert rid in [r for r, _row in table.index_fetch(other, other_ranges)]
        assert rid in [r for r, _row in table.index_fetch(target, ranges)]
        assert_indexes_exact(table)

    def test_planner_takes_the_expression_index(self):
        database, _family, table, _target, _ranges = self.setup_table()
        sql = "SELECT id FROM t WHERE plus(v, 1) BETWEEN 8 AND 9"
        assert "Index Scan on t using plus(v, 1)" in database.explain(sql)
        assert len(database.execute(sql).rows) == 120
        before = database.counters.snapshot()
        assert database.execute("UPDATE t SET v = 0 WHERE plus(v, 1) = 8").rowcount == 60
        assert database.execute("DELETE FROM t WHERE plus(v, 1) = 9").rowcount == 60
        delta = database.counters.diff(before)
        assert delta["index_probes"] == 2 and delta["index_builds"] == 0
        assert database.execute(sql).rows == []
        assert_indexes_exact(table)

    def test_a_build_that_raises_leaves_no_index_behind(self):
        database, family, table, target, ranges = self.setup_table()

        def fail():
            raise RuntimeError("key evaluation failed")

        family.hook = fail
        with pytest.raises(RuntimeError, match="key evaluation failed"):
            list(table.index_fetch(target, ranges))
        assert not table._indexes
        table.insert((7000, 7))  # no pending list left to grow
        assert 7000 in [row[0] for _rid, row in table.index_fetch(target, ranges)]
        assert_indexes_exact(table)
