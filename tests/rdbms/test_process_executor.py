"""Process executor lane: equivalence, eligibility fallback, recovery.

The process lane ships pickle-safe morsel tasks to worker processes and
must return exactly what the serial pipeline returns.  These tests cover
the cross-process result contract, the planner's per-fragment lane
selection (anything that cannot cross a pickle boundary silently rides
the thread lane; volatile functions stay serial), and the pool's
recovery after a worker process dies mid-query.  See DESIGN.md
section 14.
"""

import pytest

from repro.rdbms.cost import CostCounters
from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.errors import ExecutionError
from repro.rdbms.executor import SpillStore
from repro.rdbms.expressions import BinaryOp, ColumnRef, FunctionCall, Literal
from repro.rdbms.planner import Planner
from repro.rdbms.process_worker import ExitTask, ProcessTask, run_process_task
from repro.rdbms.sql.parser import parse
from repro.rdbms.types import SqlType

N_ROWS = 9000  # several morsels at the process lane's adaptive granularity


def _populate(database: Database) -> None:
    database.execute("CREATE TABLE t (a integer, b text, c integer)")
    rows = [
        (i, f"s{i % 7}", None if i % 11 == 0 else i % 13) for i in range(N_ROWS)
    ]
    database.insert_rows("t", rows)
    database.analyze()


@pytest.fixture(scope="module")
def lanes():
    databases = {}
    for lane in ("serial", "thread", "process"):
        database = Database(
            f"px_{lane}", DatabaseConfig(parallel_workers=4, executor_lane=lane)
        )
        _populate(database)
        databases[lane] = database
    yield databases
    for database in databases.values():
        database.close()


EQUIVALENCE_QUERIES = [
    "SELECT a, b FROM t WHERE a % 3 = 0",
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


class TestProcessEquivalence:
    @pytest.mark.parametrize("sql", EQUIVALENCE_QUERIES)
    def test_same_rows_same_order_across_all_lanes(self, lanes, sql):
        results = {lane: database.execute(sql) for lane, database in lanes.items()}
        assert results["thread"].rows == results["serial"].rows
        assert results["process"].rows == results["serial"].rows

    def test_process_lane_is_actually_used(self, lanes):
        result = lanes["process"].execute("SELECT a FROM t WHERE a % 2 = 0")
        assert result.exec_stats["lane"] == "process"
        assert result.exec_stats["workers"] == 4

    def test_serial_lane_never_parallelizes(self, lanes):
        result = lanes["serial"].execute("SELECT a FROM t WHERE a % 2 = 0")
        assert "lane" not in result.exec_stats
        assert "workers" not in result.exec_stats

    def test_single_morsel_still_crosses_the_process_boundary(self, lanes):
        database = lanes["process"]
        database.execute("CREATE TABLE small (x integer)")
        database.insert_rows("small", [(i,) for i in range(200)])
        database.analyze("small")
        result = database.execute("SELECT x FROM small WHERE x % 2 = 0")
        assert result.rows == [(i,) for i in range(0, 200, 2)]
        assert result.exec_stats["lane"] == "process"
        assert result.exec_stats["morsels"] == 1

    def test_explain_analyze_reports_process_lane(self, lanes):
        result = lanes["process"].execute_statement(
            parse("SELECT a FROM t WHERE a % 2 = 0"), analyze=True
        )
        assert "lane=process" in result.plan_text
        assert result.exec_stats["lane"] == "process"
        per_worker = result.exec_stats["per_worker"]
        assert sum(w["tuples_scanned"] for w in per_worker) == N_ROWS


class TestWorkerScan:
    """A worker reads the spilled image, the thread lane the heap: the
    same live rows and the same ``tuples_scanned`` for any morsel."""

    @pytest.mark.parametrize("bounds", [(0, 10**6), (0, 0), (5, 40), (17, 18), (100, 777)])
    def test_batches_match_the_heap_scan(self, bounds):
        database = Database("px_scan", DatabaseConfig())
        spill = SpillStore()
        try:
            database.execute("CREATE TABLE holes (a integer, b text)")
            database.insert_rows("holes", [(i, "v" * 40) for i in range(800)])
            database.execute("DELETE FROM holes WHERE a % 9 = 0 OR a BETWEEN 200 AND 420")
            table = database.table("holes")
            table.alloc_dead_slot()
            assert table.n_pages > 3
            start, end = bounds
            task = ProcessTask(
                index=0,
                start_rid=start,
                end_rid=end,
                table_path=spill.path_for(
                    "table", (table.name, table.version), table.snapshot_state
                ),
                scan_columns=tuple(("holes", column.name) for column in table.schema),
                predicates=(),
                projection=None,
                post=None,
                function_specs=(),
                catalog_path=None,
                use_cache=True,
                hint=None,
                batch_rows=64,
            )
            result = run_process_task(task)
            heap = CostCounters()
            pages = list(table.scan_batches(start, end, heap))
            assert result.payload == [row for page in pages for row in page]
            assert result.counters.tuples_scanned == heap.tuples_scanned == len(result.payload)
        finally:
            spill.cleanup()
            database.close()


class TestLaneEligibility:
    def test_builtin_functions_ride_the_process_lane(self, lanes):
        text = lanes["process"].explain("SELECT upper(b) FROM t WHERE a > 3")
        assert "lane=process" in text

    def test_closure_udf_falls_back_to_thread_lane(self, lanes):
        database = lanes["process"]
        database.create_function("plus_one", lambda v: v + 1, SqlType.INTEGER)
        text = database.explain("SELECT plus_one(a) FROM t WHERE a > 3")
        assert "workers=4" in text  # still parallel...
        assert "lane=thread" in text  # ...just not cross-process
        # `a + 0`: not an index condition, so the scan fragment stays
        result = database.execute("SELECT plus_one(a) FROM t WHERE a + 0 >= 8996")
        assert result.rows == [(8997,), (8998,), (8999,), (9000,)]
        assert result.exec_stats["lane"] == "thread"

    def test_unpushed_closure_projection_keeps_the_process_lane(self, lanes):
        # with ORDER BY above it, the projection stays in the parent; the
        # pushed fragment (predicate + sort key) is still pickle-safe
        database = lanes["process"]
        database.create_function("plus_two", lambda v: v + 2, SqlType.INTEGER)
        result = database.execute(
            "SELECT plus_two(a) FROM t WHERE a + 0 >= 8996 ORDER BY a"
        )
        assert result.rows == [(8998,), (8999,), (9000,), (9001,)]
        assert result.exec_stats["lane"] == "process"

    def test_volatile_predicate_stays_serial(self, lanes):
        database = lanes["process"]
        database.create_function(
            "wobble", lambda v: v, SqlType.INTEGER, volatile=True
        )
        text = database.explain("SELECT a FROM t WHERE wobble(a) > 3")
        assert "Parallel" not in text

    def test_thread_lane_config_never_uses_processes(self, lanes):
        result = lanes["thread"].execute("SELECT a FROM t WHERE a % 2 = 0")
        assert result.exec_stats["lane"] == "thread"

    def test_sort_and_aggregate_nodes_annotate_their_lane(self, lanes):
        database = lanes["process"]
        assert "lane=process" in database.explain(
            "SELECT a FROM t WHERE a > 3 ORDER BY a"
        )
        assert "lane=process" in database.explain(
            "SELECT b, count(*) FROM t GROUP BY b"
        )


class TestProcessSafePredicate:
    """Unit coverage of the planner's pickle-boundary gate."""

    def _planner(self, database: Database) -> Planner:
        return Planner(
            database.tables,
            database.table_stats,
            database.functions,
            work_mem_bytes=1 << 20,
            parallel_workers=4,
            executor_pool=database.executor_pool,
            executor_lane="process",
        )

    def test_plain_column_predicates_are_safe(self, lanes):
        planner = self._planner(lanes["process"])
        expr = BinaryOp(">", ColumnRef(None, "a"), Literal(3))
        assert planner._fragment_lane([expr]) == "process"

    def test_unpicklable_literal_is_not(self, lanes):
        planner = self._planner(lanes["process"])
        expr = BinaryOp(">", ColumnRef(None, "a"), Literal(lambda: None))
        assert planner._fragment_lane([expr]) == "thread"

    def test_function_without_remote_spec_is_not(self, lanes):
        database = lanes["process"]
        database.create_function("opaque", lambda v: v, SqlType.INTEGER)
        planner = self._planner(database)
        expr = FunctionCall("opaque", (ColumnRef(None, "a"),))
        assert planner._fragment_lane([expr]) == "thread"

    def test_builtin_has_a_remote_spec(self, lanes):
        planner = self._planner(lanes["process"])
        expr = FunctionCall("upper", (ColumnRef(None, "b"),))
        assert planner._fragment_lane([expr]) == "process"


class TestWorkerDeathRecovery:
    def test_dead_worker_fails_the_query_not_the_database(self, lanes):
        database = lanes["process"]
        pool = database.executor_pool
        with pytest.raises(ExecutionError, match="worker process died"):
            pool.map_tasks(run_process_task, [ExitTask()])
        # the pool was discarded; the next query spawns a fresh one
        result = database.execute("SELECT count(*) FROM t")
        assert result.rows == [(N_ROWS,)]
        assert result.exec_stats["lane"] == "process"
