"""Serial fallbacks of the executor on a table of several morsels.

A volatile predicate and a one-worker configuration must never fan out,
even where the table is large enough that an eligible query would.  The
module keeps its historical name; the process lane it was named after is
gone and ``parallel_workers`` is the executor's one width knob (DESIGN.md
section 14).  The serial-vs-parallel result contract lives in
test_parallel_executor.py.
"""

import pytest

from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.types import SqlType

N_ROWS = 9000  # three morsels: an eligible query would fan out


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
    for name, workers in (("serial", 1), ("parallel", 4)):
        database = Database(f"px_{name}", DatabaseConfig(parallel_workers=workers))
        _populate(database)
        databases[name] = database
    yield databases
    for database in databases.values():
        database.close()


class TestProcessEquivalence:
    def test_serial_lane_never_parallelizes(self, lanes):
        sql = "SELECT a FROM t WHERE a % 2 = 0"
        result = lanes["serial"].execute(sql)
        assert "workers" not in result.exec_stats
        assert "morsels" not in result.exec_stats
        assert "Parallel" not in lanes["serial"].explain(sql)
        # the same query on the wider database does fan out
        assert lanes["parallel"].execute(sql).exec_stats["workers"] == 3
        assert result.rows == lanes["parallel"].execute(sql).rows


class TestLaneEligibility:
    def test_volatile_predicate_stays_serial(self, lanes):
        database = lanes["parallel"]
        database.create_function(
            "wobble", lambda v: v, SqlType.INTEGER, volatile=True
        )
        text = database.explain("SELECT a FROM t WHERE wobble(a) > 3")
        assert "Parallel" not in text
        result = database.execute("SELECT a FROM t WHERE wobble(a) > 8995")
        assert result.rows == [(8996,), (8997,), (8998,), (8999,)]
        assert "workers" not in result.exec_stats
