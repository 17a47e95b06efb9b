"""The batch executor: result equality, exact work under LIMIT, EXPLAIN.

Every query's filters, projection, sort and aggregation run as batch
fragments on the calling thread (DESIGN.md section 10).  The contract
under test: the rows are right -- checked against SQLite on the same
10 000 rows, or against rows computed in Python -- and a fragment
evaluates exactly the rows the row-at-a-time operators evaluated.
"""

import sqlite3
import threading

import pytest

from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.plan_nodes import BatchFragment, HashAggregate
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType


N_ROWS = 10_000  # ten batches


def _table_rows(n_rows: int = N_ROWS) -> list[tuple]:
    return [(i, f"s{i % 7}", None if i % 11 == 0 else i % 13) for i in range(n_rows)]


def _side_rows() -> list[tuple]:
    """``u``: 40 rows whose ``c`` meets ``t.c`` on 0..12 (13 and 14 meet
    nothing, NULL never joins)."""
    return [(None if i % 9 == 0 else i % 15, f"d{i % 4}", i) for i in range(40)]


def _populate(database: Database) -> None:
    database.execute("CREATE TABLE t (a integer, b text, c integer)")
    database.insert_rows("t", _table_rows())
    database.analyze()


@pytest.fixture(scope="module")
def pair():
    """The engine and SQLite holding the same rows."""
    database = Database("batch")
    _populate(database)
    database.execute("CREATE TABLE u (c integer, d text, e integer)")
    database.insert_rows("u", _side_rows())
    database.analyze()
    reference = sqlite3.connect(":memory:")
    reference.execute("CREATE TABLE t (a integer, b text, c integer)")
    reference.executemany("INSERT INTO t VALUES (?, ?, ?)", _table_rows())
    reference.execute("CREATE TABLE u (c integer, d text, e integer)")
    reference.executemany("INSERT INTO u VALUES (?, ?, ?)", _side_rows())
    yield database, reference
    database.close()
    reference.close()


@pytest.fixture(scope="module")
def small_work_mem(pair):
    """The same rows in an engine whose 1 KB ``work_mem`` turns the hash
    operators into Merge Join, Sort + GroupAggregate and Sort + Unique."""
    database = Database("batch_small", DatabaseConfig(work_mem_bytes=1024))
    _populate(database)
    database.execute("CREATE TABLE u (c integer, d text, e integer)")
    database.insert_rows("u", _side_rows())
    database.analyze()
    yield database, pair[1]
    database.close()


#: (engine SQL, SQLite SQL or None for the same text, ordered?)  SQLite
#: sorts NULLs first ascending; PostgreSQL, and the engine, last -- so the
#: reference spells the placement out.  Unordered results compare as
#: multisets.
EQUIVALENCE_QUERIES = [
    ("SELECT a, b FROM t WHERE a % 3 = 0", None, False),
    ("SELECT a + c, b FROM t WHERE c IS NOT NULL", None, False),
    (
        "SELECT a, c FROM t ORDER BY c, a DESC",
        "SELECT a, c FROM t ORDER BY c NULLS LAST, a DESC",
        True,
    ),
    (
        "SELECT b, c FROM t WHERE a % 2 = 0 ORDER BY b DESC, c",
        "SELECT b, c FROM t WHERE a % 2 = 0 ORDER BY b DESC, c NULLS LAST",
        True,
    ),
    ("SELECT count(*) FROM t", None, True),
    ("SELECT b, count(*), sum(a), avg(a), min(c), max(c) FROM t GROUP BY b", None, False),
    ("SELECT c, count(*) FROM t WHERE a % 5 = 1 GROUP BY c", None, False),
    ("SELECT DISTINCT b FROM t", None, False),
    ("SELECT a FROM t ORDER BY a DESC LIMIT 25", None, True),
    ("SELECT b, avg(c) FROM t GROUP BY b ORDER BY b", None, True),
    ("SELECT a + c FROM t WHERE c IS NOT NULL", None, False),
    (
        "SELECT a, b, c FROM t WHERE b = 's3' ORDER BY c, a DESC",
        "SELECT a, b, c FROM t WHERE b = 's3' ORDER BY c NULLS LAST, a DESC",
        True,
    ),
    (
        "SELECT b, count(*), sum(a), min(c), max(c), avg(a) FROM t GROUP BY b ORDER BY b",
        None,
        True,
    ),
    ("SELECT count(*) FROM t WHERE a BETWEEN 100 AND 4000", None, True),
    ("SELECT upper(b), length(b) FROM t WHERE a < 500 ORDER BY a", None, True),
    ("SELECT a FROM t WHERE b LIKE 's%' AND c IN (1, 2, 3) ORDER BY a LIMIT 50", None, True),
    (
        "SELECT coalesce(c, -1), count(*) FROM t GROUP BY coalesce(c, -1) ORDER BY 1",
        None,
        True,
    ),
    ("SELECT min(a), max(a) FROM t", None, True),
    ("SELECT a, b FROM t WHERE c IS NULL ORDER BY a DESC LIMIT 25", None, True),
    # the operators above fragments: joins, LIMIT over a join, grouping
    ("SELECT t.a, u.d FROM t, u WHERE t.c = u.c AND t.a < 3000", None, False),
    ("SELECT t.a, u.e FROM t, u WHERE t.c = u.c AND t.a % 40 < u.e", None, False),
    ("SELECT t.a, u.e FROM t, u WHERE t.c = u.c AND t.a = u.e", None, False),
    ("SELECT t.a, u.d FROM t, u WHERE t.a < 30", None, False),
    # every row the join can return here is ('d1',): any 7 are the answer
    ("SELECT u.d FROM t, u WHERE t.c = u.c AND u.d = 'd1' LIMIT 7", None, False),
    ("SELECT u.d, count(*), sum(t.a) FROM t, u WHERE t.c = u.c GROUP BY u.d", None, False),
    ("SELECT DISTINCT t.b, u.d FROM t, u WHERE t.c = u.c", None, False),
    ("SELECT DISTINCT c FROM t", None, False),
]

#: the operators a small ``work_mem`` must bring into these queries' plans
SMALL_WORK_MEM_OPERATORS = ("Merge Join", "GroupAggregate", "Unique", "Nested Loop")


def _multiset(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=repr)


class TestSerialEquivalence:
    @pytest.mark.parametrize(
        "sql", [sql for sql, _reference, _ordered in EQUIVALENCE_QUERIES]
    )
    def test_rows_identical(self, pair, sql):
        database, reference = pair
        _sql, reference_sql, ordered = next(q for q in EQUIVALENCE_QUERIES if q[0] == sql)
        rows = database.execute(sql).rows
        expected = reference.execute(reference_sql or sql).fetchall()
        assert rows, sql
        if ordered:
            assert rows == expected
        else:
            assert _multiset(rows) == _multiset(expected)

    def test_rows_identical_under_small_work_mem(self, small_work_mem):
        database, reference = small_work_mem
        plans = []
        for sql, reference_sql, ordered in EQUIVALENCE_QUERIES:
            plans.append(database.explain(sql))
            rows = database.execute(sql).rows
            expected = reference.execute(reference_sql or sql).fetchall()
            if ordered:
                assert rows == expected, sql
            else:
                assert _multiset(rows) == _multiset(expected), sql
        for operator in SMALL_WORK_MEM_OPERATORS:
            assert any(operator in plan for plan in plans), operator

    def test_every_scan_side_chain_is_one_fragment(self, pair):
        database, _reference = pair
        plan = database._plan(parse("SELECT b, count(*) FROM t WHERE a % 3 = 0 GROUP BY b"))
        fragments = [node for node in plan.walk() if isinstance(node, BatchFragment)]
        assert len(fragments) == 2  # the aggregate's; the projection above it
        assert isinstance(fragments[-1].chain[0], HashAggregate)

    def test_empty_table_parallel(self):
        database = Database("empty")
        database.execute("CREATE TABLE e (x integer)")
        database.analyze()
        assert database.execute("SELECT x FROM e WHERE x > 0").rows == []
        # a global aggregate over no rows still yields its one row
        assert database.execute("SELECT count(*) FROM e").rows == [(0,)]
        assert database.execute("SELECT x FROM e ORDER BY x").rows == []
        database.close()

    def test_dead_slots_skipped(self):
        """Deleted rows leave dead slots inside pages (like recovery
        filler); the page walk must skip them."""
        database = Database("dead")
        _populate(database)
        database.execute("DELETE FROM t WHERE a % 97 = 3")
        rows = database.execute("SELECT a, b FROM t WHERE a % 2 = 1 ORDER BY a").rows
        assert rows == [
            (a, b) for a, b, _c in _table_rows() if a % 2 == 1 and a % 97 != 3
        ]
        database.close()

    def test_udf_call_counts_identical(self, pair):
        database, _reference = pair
        database.create_function(
            "double_it", lambda v: None if v is None else v * 2, SqlType.INTEGER
        )
        sql = "SELECT double_it(a) FROM t WHERE double_it(c) = 10"
        before = database.counters.udf_calls
        rows = database.execute(sql).rows
        expected = [(a * 2,) for a, _b, c in _table_rows() if c is not None and c * 2 == 10]
        assert rows == expected
        # the predicate on every row, the projection on the survivors
        assert database.counters.udf_calls - before == N_ROWS + len(expected)


class Calls:
    """A counting UDF that remembers which thread called it."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0
        self.threads: set[int] = set()

    def __call__(self, value):
        self.count += 1
        self.threads.add(threading.get_ident())
        return self.fn(value)


class TestEligibility:
    """No query shape is kept off the batch pipeline, and none leaves the
    calling thread."""

    @pytest.fixture()
    def db(self):
        database = Database("elig")
        database.execute("CREATE TABLE t (a integer, b text)")
        database.insert_rows("t", [(i, f"x{i % 3}") for i in range(9000)])
        database.analyze()
        yield database
        database.close()

    def test_limit_without_order_by_stays_serial(self, db):
        """A LIMIT without ORDER BY evaluates the predicate up to the last
        row it returns, and the projection on the rows it returns."""
        f, g = Calls(lambda a: a * 10), Calls(lambda a: a % 1000)
        db.create_function("f", f, SqlType.INTEGER)
        db.create_function("g", g, SqlType.INTEGER)
        table = db.table("t")
        before = db.counters.snapshot()
        rows = db.execute("SELECT f(a) FROM t WHERE g(a) > 990 LIMIT 5").rows
        delta = db.counters.diff(before)
        matches = [a for a in range(9000) if a % 1000 > 990]
        pulled = matches[4]  # the fifth match fills the LIMIT
        assert rows == [(a * 10,) for a in matches[:5]]
        assert (g.count, f.count) == (pulled + 1, 5)
        assert delta["udf_calls"] == pulled + 1 + 5
        # whole pages up to the one holding the last row pulled, no more
        last_page = table._rid_directory[pulled][0]
        assert delta["tuples_scanned"] == sum(
            len(page.slots) for page in table.pages[: last_page + 1]
        )
        assert f.threads == g.threads == {threading.get_ident()}

    def test_volatile_predicate_stays_serial(self, db):
        """A volatile predicate is called once per row, on the calling
        thread, and keeps the right rows."""
        flip = Calls(lambda a: a % 2)
        db.create_function("flip", flip, SqlType.INTEGER, volatile=True)
        rows = db.execute("SELECT a FROM t WHERE flip(a) = 1").rows
        assert rows == [(a,) for a in range(9000) if a % 2 == 1]
        assert flip.count == 9000
        assert flip.threads == {threading.get_ident()}

    def test_distinct_aggregate_stays_serial(self, db):
        """DISTINCT aggregates keep their seen-sets in the one fold."""
        rows = db.execute(
            "SELECT b, count(DISTINCT a % 10), count(*) FROM t GROUP BY b"
        ).rows
        assert _multiset(rows) == [("x0", 10, 3000), ("x1", 10, 3000), ("x2", 10, 3000)]

    def test_join_stays_serial(self, db):
        db.execute("CREATE TABLE u (a integer)")
        db.insert_rows("u", [(i,) for i in range(10)])
        db.analyze()
        sql = "SELECT t.a, t.b FROM t, u WHERE t.a = u.a AND t.a % 2 = 0"
        plan = db._plan(parse(sql))
        # both join inputs are fragments
        assert sum(isinstance(node, BatchFragment) for node in plan.walk()) >= 2
        assert _multiset(db.execute(sql).rows) == [(a, f"x{a % 3}") for a in (0, 2, 4, 6, 8)]

    def test_limit_over_a_join_pulls_outer_rows_one_at_a_time(self, db):
        """Under a LIMIT the outer side of a join hands over one row per
        batch, so its predicate runs on no row the join did not reach."""
        db.execute("CREATE TABLE u (a integer)")
        db.insert_rows("u", [(i,) for i in range(0, 9000, 100)])
        db.analyze()
        g = Calls(lambda a: a)
        db.create_function("g", g, SqlType.INTEGER)
        sql = "SELECT t.a FROM t, u WHERE t.a = u.a AND g(t.a) >= 0 LIMIT 2"
        assert db.execute(sql).rows == [(0,), (100,)]
        # outer rows are pulled up to the second match, which fills the LIMIT
        assert g.count == 100 + 1

    def test_serial_config_never_parallelizes(self):
        database = Database("one")
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(100)])
        database.analyze()
        assert database.config.parallel_workers == 1
        assert "Parallel" not in database.explain("SELECT a FROM t WHERE a > 1")
        database.close()


class TestOperatorWork:
    """Exact work of the operators above fragments."""

    def test_merge_join_computes_each_key_once(self):
        """A Merge Join's key is computed once per input row by its Sort
        and once by the merge: 2 x the rows in, for any run of equal keys."""
        database = Database("mj", DatabaseConfig(work_mem_bytes=1024))
        for name in ("l", "r"):
            database.execute(f"CREATE TABLE {name} (a integer)")
            database.insert_rows(name, [(i,) for i in range(1000)])
        database.analyze()
        f = Calls(lambda a: a % 500)  # runs of two equal keys on each side
        database.create_function("f", f, SqlType.INTEGER)
        sql = "SELECT count(*) FROM l, r WHERE f(l.a) = f(r.a)"
        assert "Merge Join" in database.explain(sql)
        assert database.execute(sql).rows == [(2000,)]
        assert f.count == 2 * 2000
        database.close()

    def test_limit_over_group_aggregate_stops_at_the_next_group(self):
        """Under a LIMIT, GroupAggregate takes its sorted input a row at a
        time: it computes group keys up to the row that starts the group
        after the last one returned."""
        database = Database("ga", DatabaseConfig(work_mem_bytes=1024))
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(300)])
        database.analyze()
        f = Calls(lambda a: a // 3)  # groups of three rows
        database.create_function("f", f, SqlType.INTEGER)
        sql = "SELECT f(a), count(*) FROM t GROUP BY f(a) LIMIT 2"
        assert "GroupAggregate" in database.explain(sql)
        assert database.execute(sql).rows == [(0, 3), (1, 3)]
        # the Sort's keys on every row, then rows 0..6: row 6 ends group 1
        assert f.count == 300 + 7
        database.close()


class TestExplainSurface:
    def test_plain_explain_is_the_planned_tree(self):
        database = Database("xp")
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(5000)])
        database.analyze()
        text = database.explain("SELECT a FROM t WHERE a % 3 > 1")
        assert text.splitlines()[0].startswith("Project: a")
        assert "Filter: ((a % 3) > 1)" in text and "->  Seq Scan on t" in text
        assert "workers" not in text
        database.close()

    def test_explain_analyze_counts_every_node_of_a_fragment(self):
        database = Database("xa")
        database.execute("CREATE TABLE t (a integer, b text)")
        database.insert_rows("t", [(i, f"s{i % 5}") for i in range(9000)])
        database.analyze()
        result = database.execute_statement(
            parse("SELECT b, count(*) FROM t WHERE a % 2 = 0 GROUP BY b"), analyze=True
        )
        lines = result.plan_text.splitlines()

        def actual(label: str) -> str:
            return next(line for line in lines if label in line)

        assert "actual rows=9000 loops=1" in actual("Seq Scan on t")
        assert "actual rows=4500 loops=1" in actual("Filter:")
        assert "actual rows=5 loops=1" in actual("HashAggregate")
        assert "actual rows=5 loops=1" in actual("Project:")
        assert "Parallel" not in result.plan_text and "Worker" not in result.plan_text
        database.close()

    def test_serial_plan_has_no_parallel_block(self):
        database = Database("xs")
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(100)])
        database.analyze()
        result = database.execute_statement(
            parse("SELECT a FROM t WHERE a > 3"), analyze=True
        )
        assert "Parallel:" not in result.plan_text
        for key in ("workers", "morsels", "per_worker"):
            assert key not in result.exec_stats
        database.close()
