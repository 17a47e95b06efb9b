"""Row iterators vs the batch pipeline over the Figure 6 suite.

``parallel_workers=1`` plans the serial row iterators; ``parallel_workers=4``
rewrites every eligible fragment into the morsel operators, which run the
batch pipeline (at this size in one morsel, on the calling thread).  Both
return identical rows in identical order, with the identical extraction
*access* signature (UDF calls plus the sum of decodes and cache hits --
the splits may differ with cache locality, the totals may not).  See
DESIGN.md sections 10 and 14.
"""

import pytest

from repro.core.sinew import SinewConfig
from repro.nobench import NoBenchGenerator, SinewNoBench
from repro.rdbms.database import DatabaseConfig

N = 1500
FIG6_QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"]
WORKERS = {"serial": 1, "parallel": 4}


def _access_signature(exec_stats: dict) -> tuple:
    return (
        exec_stats.get("udf_calls", 0),
        exec_stats.get("header_decodes", 0)
        + exec_stats.get("header_cache_hits", 0),
        exec_stats.get("subdoc_decodes", 0)
        + exec_stats.get("subdoc_cache_hits", 0),
    )


@pytest.fixture(scope="module")
def matrix():
    generator = NoBenchGenerator(N, seed=11)
    documents = list(generator.documents())
    params = generator.params()
    adapters = {}
    for name, workers in WORKERS.items():
        adapter = SinewNoBench(
            params,
            SinewConfig(database=DatabaseConfig(parallel_workers=workers)),
        )
        adapter.load(documents)
        adapter.prepare()
        adapters[name] = adapter
    yield adapters
    for adapter in adapters.values():
        adapter.sdb.close()


class TestLaneMatrix:
    @pytest.mark.parametrize("query_id", FIG6_QUERIES)
    def test_rows_order_and_extraction_accesses_agree(self, matrix, query_id):
        base, other = (
            matrix[name].sdb.query(matrix[name].sql_for(query_id))
            for name in ("serial", "parallel")
        )
        assert other.rows == base.rows, f"{query_id} rows"
        assert _access_signature(other.exec_stats) == (
            _access_signature(base.exec_stats)
        ), f"{query_id} extraction accesses"

    def test_parallel_side_runs_the_batch_pipeline(self, matrix):
        adapter = matrix["parallel"]
        pipelined = [
            query_id
            for query_id in FIG6_QUERIES
            if "morsels" in adapter.sdb.query(adapter.sql_for(query_id)).exec_stats
        ]
        # the extraction-UDF scans must really take the morsel operators,
        # or the comparison above compares the row iterators with themselves
        assert len(pipelined) >= 3, pipelined

    def test_serial_lane_reports_no_parallel_stats(self, matrix):
        adapter = matrix["serial"]
        result = adapter.sdb.query(adapter.sql_for("q2"))
        assert "workers" not in result.exec_stats
        assert "morsels" not in result.exec_stats
