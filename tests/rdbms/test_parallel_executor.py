"""Morsel-driven parallel executor: morsel math, result equality, EXPLAIN.

The contract under test is *serial equivalence*: for every eligible query,
the parallel plan must return the same rows in the same order with the
same extraction counters as the serial plan.  See DESIGN.md section 10.
"""

import pytest

from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.executor import MORSEL_ROWS, ExecutorPool, Morsel, partition_morsels
from repro.rdbms.plan_nodes import (
    HashAggregate,
    ParallelHashAggregate,
    ParallelScan,
    ParallelSort,
)
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType


# ---------------------------------------------------------------------------
# morsel boundary math
# ---------------------------------------------------------------------------


class TestPartitionMorsels:
    def test_empty_table(self):
        assert partition_morsels(0) == []

    def test_negative_is_empty(self):
        assert partition_morsels(-5) == []

    def test_smaller_than_one_morsel(self):
        morsels = partition_morsels(10)
        assert morsels == [Morsel(0, 0, 10)]

    def test_exact_multiple(self):
        morsels = partition_morsels(2 * MORSEL_ROWS)
        assert [(m.start_rid, m.end_rid) for m in morsels] == [
            (0, MORSEL_ROWS),
            (MORSEL_ROWS, 2 * MORSEL_ROWS),
        ]

    def test_remainder_morsel(self):
        morsels = partition_morsels(MORSEL_ROWS + 1)
        assert len(morsels) == 2
        assert len(morsels[-1]) == 1

    def test_covers_whole_rid_space(self):
        n = 3 * MORSEL_ROWS + 17
        morsels = partition_morsels(n)
        assert morsels[0].start_rid == 0
        assert morsels[-1].end_rid == n
        for left, right in zip(morsels, morsels[1:]):
            assert left.end_rid == right.start_rid

    def test_custom_morsel_rows(self):
        assert len(partition_morsels(100, morsel_rows=10)) == 10

    def test_invalid_morsel_rows(self):
        with pytest.raises(ValueError):
            partition_morsels(100, morsel_rows=0)


class TestExecutorPool:
    def test_serial_pool_never_starts_threads(self):
        pool = ExecutorPool(1)
        results = pool.map_morsels(len, partition_morsels(10_000))
        assert sum(results) == 10_000
        assert pool.status()["started"] is False

    def test_results_in_morsel_order(self):
        pool = ExecutorPool(4)
        morsels = partition_morsels(20_000, morsel_rows=100)
        try:
            results = pool.map_morsels(lambda m: m.index, morsels)
        finally:
            pool.shutdown()
        assert results == list(range(len(morsels)))

    def test_worker_error_propagates(self):
        pool = ExecutorPool(4)

        def boom(morsel):
            if morsel.index == 3:
                raise RuntimeError("morsel 3 failed")
            return morsel.index

        try:
            with pytest.raises(RuntimeError, match="morsel 3"):
                pool.map_morsels(boom, partition_morsels(1000, morsel_rows=100))
        finally:
            pool.shutdown()

    def test_shutdown_idempotent(self):
        pool = ExecutorPool(2)
        pool.map_morsels(len, partition_morsels(10, morsel_rows=1))
        pool.shutdown()
        pool.shutdown()


# ---------------------------------------------------------------------------
# parallel-vs-serial equivalence
# ---------------------------------------------------------------------------

N_ROWS = 10_000  # > 2 morsels, so the pool actually fans out


def _populate(database: Database) -> None:
    database.execute("CREATE TABLE t (a integer, b text, c integer)")
    rows = [
        (i, f"s{i % 7}", None if i % 11 == 0 else i % 13) for i in range(N_ROWS)
    ]
    database.insert_rows("t", rows)
    database.analyze()


@pytest.fixture(scope="module")
def pair():
    serial = Database("serial", DatabaseConfig(parallel_workers=1))
    parallel = Database("parallel", DatabaseConfig(parallel_workers=4))
    _populate(serial)
    _populate(parallel)
    yield serial, parallel
    serial.close()
    parallel.close()


EQUIVALENCE_QUERIES = [
    "SELECT a, b FROM t WHERE a % 3 = 0",
    "SELECT a + c, b FROM t WHERE c IS NOT NULL",
    "SELECT a, c FROM t ORDER BY c, a DESC",
    "SELECT b, c FROM t WHERE a % 2 = 0 ORDER BY b DESC, c",
    "SELECT count(*) FROM t",
    "SELECT b, count(*), sum(a), avg(a), min(c), max(c) FROM t GROUP BY b",
    "SELECT c, count(*) FROM t WHERE a % 5 = 1 GROUP BY c",
    "SELECT DISTINCT b FROM t",
    "SELECT a FROM t ORDER BY a DESC LIMIT 25",
    "SELECT b, avg(c) FROM t GROUP BY b ORDER BY b",
    "SELECT a + c FROM t WHERE c IS NOT NULL",
    "SELECT a, b, c FROM t WHERE b = 's3' ORDER BY c, a DESC",
    "SELECT b, count(*), sum(a), min(c), max(c), avg(a) FROM t GROUP BY b ORDER BY b",
    "SELECT count(*) FROM t WHERE a BETWEEN 100 AND 4000",
    "SELECT upper(b), length(b) FROM t WHERE a < 500 ORDER BY a",
    "SELECT a FROM t WHERE b LIKE 's%' AND c IN (1, 2, 3) ORDER BY a LIMIT 50",
    "SELECT coalesce(c, -1), count(*) FROM t GROUP BY coalesce(c, -1) ORDER BY 1",
    "SELECT min(a), max(a) FROM t",
    "SELECT a, b FROM t WHERE c IS NULL ORDER BY a DESC LIMIT 25",
]


class TestSerialEquivalence:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_rows_identical(self, pair, sql):
        serial, parallel = pair
        assert parallel.execute(sql).rows == serial.execute(sql).rows

    def test_plan_is_actually_parallel(self, pair):
        _serial, parallel = pair
        plan = parallel._plan(parse("SELECT a FROM t WHERE a % 3 = 0"))
        assert any(isinstance(node, ParallelScan) for node in plan.walk())

    def test_empty_table_parallel(self):
        database = Database("empty", DatabaseConfig(parallel_workers=4))
        database.execute("CREATE TABLE e (x integer)")
        database.analyze()
        assert database.execute("SELECT x FROM e WHERE x > 0").rows == []
        # a global aggregate over zero morsels still yields its one row
        assert database.execute("SELECT count(*) FROM e").rows == [(0,)]
        database.close()

    def test_dead_slots_skipped(self, pair):
        """Deleted rows leave dead slots inside morsels (like recovery
        filler); both engines must skip them identically."""
        serial, parallel = pair
        for database in (serial, parallel):
            database.execute("DELETE FROM t WHERE a % 97 = 3")
        sql = "SELECT a, b FROM t WHERE a % 2 = 1 ORDER BY a"
        assert parallel.execute(sql).rows == serial.execute(sql).rows

    def test_udf_call_counts_identical(self, pair):
        serial, parallel = pair
        for database in (serial, parallel):
            database.create_function(
                "double_it", lambda v: None if v is None else v * 2, SqlType.INTEGER
            )
        sql = "SELECT double_it(a) FROM t WHERE double_it(c) = 10"
        baselines = {}
        for name, database in (("serial", serial), ("parallel", parallel)):
            before = database.counters.udf_calls
            rows = database.execute(sql).rows
            baselines[name] = (rows, database.counters.udf_calls - before)
        assert baselines["serial"] == baselines["parallel"]


# ---------------------------------------------------------------------------
# eligibility rules
# ---------------------------------------------------------------------------


class TestEligibility:
    @pytest.fixture()
    def db(self):
        database = Database("elig", DatabaseConfig(parallel_workers=4))
        database.execute("CREATE TABLE t (a integer, b text)")
        database.insert_rows("t", [(i, f"x{i % 3}") for i in range(100)])
        database.analyze()
        yield database
        database.close()

    def _parallel_nodes(self, database, sql):
        plan = database._plan(parse(sql))
        return [n for n in plan.walk() if isinstance(n, ParallelScan)]

    def test_limit_without_order_by_stays_serial(self, db):
        assert not self._parallel_nodes(db, "SELECT a FROM t WHERE a > 1 LIMIT 5")

    def test_limit_with_order_by_parallelizes(self, db):
        nodes = self._parallel_nodes(db, "SELECT a FROM t ORDER BY a LIMIT 5")
        assert any(isinstance(n, ParallelSort) for n in nodes)

    def test_volatile_predicate_stays_serial(self, db):
        db.create_function("vol", lambda v: v, SqlType.INTEGER, volatile=True)
        assert not self._parallel_nodes(db, "SELECT a FROM t WHERE vol(a) > 1")

    def test_volatile_projection_not_pushed_to_workers(self, db):
        db.create_function("vol2", lambda v: v, SqlType.INTEGER, volatile=True)
        nodes = self._parallel_nodes(db, "SELECT vol2(a) FROM t WHERE a > 1")
        # the safe predicate parallelizes, but the volatile projection must
        # stay in the main thread (not folded into the scan workers)
        assert nodes and all(node.projection is None for node in nodes)

    def test_stable_udf_parallelizes(self, db):
        db.create_function("stab", lambda v: v, SqlType.INTEGER)
        assert self._parallel_nodes(db, "SELECT stab(a) FROM t WHERE a > 1")

    def test_distinct_aggregate_stays_serial(self, db):
        plan = db._plan(parse("SELECT count(DISTINCT b) FROM t"))
        assert any(isinstance(n, HashAggregate) for n in plan.walk())
        assert not any(isinstance(n, ParallelHashAggregate) for n in plan.walk())

    def test_join_stays_serial(self, db):
        db.execute("CREATE TABLE u (a integer)")
        db.insert_rows("u", [(i,) for i in range(10)])
        db.analyze()
        assert not self._parallel_nodes(
            db, "SELECT t.a FROM t, u WHERE t.a = u.a"
        )

    def test_serial_config_never_parallelizes(self):
        database = Database("one", DatabaseConfig(parallel_workers=1))
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(100)])
        database.analyze()
        plan = database._plan(parse("SELECT a FROM t WHERE a > 1"))
        assert not any(isinstance(n, ParallelScan) for n in plan.walk())
        database.close()


# ---------------------------------------------------------------------------
# EXPLAIN / EXPLAIN ANALYZE surface
# ---------------------------------------------------------------------------


class TestExplainSurface:
    def test_explain_analyze_reports_workers(self):
        database = Database("xa", DatabaseConfig(parallel_workers=4))
        database.execute("CREATE TABLE t (a integer, b text)")
        database.insert_rows("t", [(i, f"s{i % 5}") for i in range(9000)])
        database.analyze()
        result = database.execute_statement(
            parse("SELECT a, b FROM t WHERE a % 2 = 0"), analyze=True
        )
        assert "workers=4" in result.plan_text
        # three morsels keep three of the four configured threads busy
        assert "Parallel: workers=3 morsels=3" in result.plan_text
        assert "Worker 0:" in result.plan_text
        assert result.exec_stats["workers"] == 3
        assert result.exec_stats["morsels"] == 3
        per_worker = result.exec_stats["per_worker"]
        assert sum(w["rows"] for w in per_worker) == len(result.rows)
        assert sum(w["tuples_scanned"] for w in per_worker) == 9000
        database.close()

    def test_single_morsel_reports_the_one_thread_that_ran(self):
        """One morsel runs inline on the calling thread: ANALYZE and
        exec_stats say one worker, not the two configured."""
        database = Database("x1", DatabaseConfig(parallel_workers=2))
        database.execute("CREATE TABLE t (a integer, b text)")
        database.insert_rows("t", [(i, f"s{i % 5}") for i in range(3000)])
        database.analyze()
        result = database.execute_statement(
            parse("SELECT b, count(*) FROM t GROUP BY b"), analyze=True
        )
        assert "Parallel HashAggregate  (workers=2)" in result.plan_text
        assert "Parallel: workers=1 morsels=1" in result.plan_text
        assert result.exec_stats["workers"] == 1
        status = database.executor_pool.status()
        assert status["started"] is False and status["parallel_queries"] == 0
        database.close()

    def test_plain_explain_shows_workers_and_filter(self):
        database = Database("xp", DatabaseConfig(parallel_workers=2))
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(100)])
        database.analyze()
        text = database.explain("SELECT a FROM t WHERE a > 3")
        assert "Parallel Seq Scan on t  (workers=2)" in text
        assert "Filter:" in text
        database.close()

    def test_serial_plan_has_no_parallel_block(self):
        database = Database("xs", DatabaseConfig(parallel_workers=1))
        database.execute("CREATE TABLE t (a integer)")
        database.insert_rows("t", [(i,) for i in range(100)])
        database.analyze()
        result = database.execute_statement(
            parse("SELECT a FROM t WHERE a > 3"), analyze=True
        )
        assert "Parallel:" not in result.plan_text
        assert "workers" not in result.exec_stats
        database.close()
