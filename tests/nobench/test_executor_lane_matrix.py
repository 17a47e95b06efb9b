"""Figure 6's queries report no parallel work.

The module keeps its historical name: it once compared the row iterators
with the threaded batch pipeline.  One executor body remains, and every
query runs its batch fragments on the calling thread (DESIGN.md section
10); the rows of each Figure 6 query are checked against the documents in
test_fig6_rows.py.  What stays here: no Figure 6 query's statistics, nor
the database status, carry the deleted fan-out's counters.
"""

import pytest

from repro.nobench import NoBenchGenerator, SinewNoBench

N = 1500
FIG6_QUERIES = ["q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10"]


@pytest.fixture(scope="module")
def adapter():
    generator = NoBenchGenerator(N, seed=11)
    adapter = SinewNoBench(generator.params())
    adapter.load(list(generator.documents()))
    adapter.prepare()
    yield adapter
    adapter.sdb.close()


class TestLaneMatrix:
    def test_serial_lane_reports_no_parallel_stats(self, adapter):
        for query_id in FIG6_QUERIES:
            result = adapter.sdb.query(adapter.sql_for(query_id))
            assert result.rows, query_id
            for key in ("workers", "morsels", "per_worker"):
                assert key not in result.exec_stats, (query_id, key)
        assert adapter.sdb.status()["executor"] == {"parallel_queries": 0}
