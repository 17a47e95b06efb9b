"""Queries on a table of several batches run on the calling thread.

The module keeps its historical name; the process lane, the thread
fan-out and ``parallel_workers`` as a setting are gone, and every query
runs its batch fragments inline (DESIGN.md section 10).  What it still
checks: a query on a table large enough that the old executor would have
fanned it out reports no parallel work, and a volatile predicate is
called once per row and keeps the right rows.  The result contract
against SQLite lives in test_parallel_executor.py.
"""

import threading

import pytest

from repro.rdbms.database import Database
from repro.rdbms.types import SqlType

N_ROWS = 9000  # nine batches: the old executor would have fanned out


def _populate(database: Database) -> None:
    database.execute("CREATE TABLE t (a integer, b text, c integer)")
    rows = [
        (i, f"s{i % 7}", None if i % 11 == 0 else i % 13) for i in range(N_ROWS)
    ]
    database.insert_rows("t", rows)
    database.analyze()


@pytest.fixture(scope="module")
def database():
    database = Database("px")
    _populate(database)
    yield database
    database.close()


class TestProcessEquivalence:
    def test_serial_lane_never_parallelizes(self, database):
        assert database.config.parallel_workers == 1
        assert database.config.executor_lane == "serial"
        sql = "SELECT a FROM t WHERE a % 2 = 0"
        result = database.execute(sql)
        assert result.rows == [(a,) for a in range(0, N_ROWS, 2)]
        for key in ("workers", "morsels", "per_worker"):
            assert key not in result.exec_stats
        assert "Parallel" not in database.explain(sql)


class TestLaneEligibility:
    def test_volatile_predicate_stays_serial(self, database):
        threads: set[int] = set()
        calls = []

        def wobble(value):
            calls.append(value)
            threads.add(threading.get_ident())
            return value

        database.create_function("wobble", wobble, SqlType.INTEGER, volatile=True)
        text = database.explain("SELECT a FROM t WHERE wobble(a) > 3")
        assert "Parallel" not in text
        result = database.execute("SELECT a FROM t WHERE wobble(a) > 8995")
        assert result.rows == [(8996,), (8997,), (8998,), (8999,)]
        assert "workers" not in result.exec_stats
        # once per row, in scan order, on the calling thread
        assert calls == list(range(N_ROWS))
        assert threads == {threading.get_ident()}
