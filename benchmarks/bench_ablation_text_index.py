"""Ablation for paper section 4.3: the inverted text index.

The paper's motivation for integrating Solr was to answer predicates on
virtual columns from the index instead of extracting from the reservoir
per row.  This bench compares:

* an equality predicate on a sparse virtual column
  (``WHERE sparse_X = 'v'``), which the planner answers from the shape
  index (``Index Scan ... using shapes(data)``), reading only the rows
  that hold the key;
* the same predicate through the text index
  (``WHERE matches('sparse_X', 'v')``, ``Index Scan ... using
  text(data)``), built by its first probe;
* full-text searches over every field, which only ``matches()`` can
  express: one that every record matches, and one for a rare term.

Each row of the report names the access path EXPLAIN shows for it.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import SinewDB
from repro.harness import format_table
from repro.nobench import NoBenchGenerator

from conftest import write_report

N_RECORDS = max(400, int(4000 * float(os.environ.get("REPRO_SCALE", "1.0"))))


@pytest.fixture(scope="module")
def world():
    generator = NoBenchGenerator(N_RECORDS)
    params = generator.params()
    sdb = SinewDB("text_index")
    sdb.create_collection("nobench_main")
    sdb.load("nobench_main", generator.documents())
    sdb.analyze()
    return sdb, params


def extraction_sql(params) -> str:
    return (
        f"SELECT _id FROM nobench_main WHERE {params.q9_key} = '{params.q9_value}'"
    )


def index_sql(params) -> str:
    return (
        f"SELECT _id FROM nobench_main "
        f"WHERE matches('{params.q9_key}', '{params.q9_value.lower()}')"
    )


FULLTEXT_ALL_SQL = "SELECT _id FROM nobench_main WHERE matches('*', 'term_*')"


def fulltext_selective_sql(params) -> str:
    return f"SELECT _id FROM nobench_main WHERE matches('*', '{params.q5_str1.lower()}')"


def access_path(sdb, sql: str) -> str:
    """The scan EXPLAIN shows for ``sql``: its index, or Seq Scan + Filter."""
    for line in sdb.explain(sql).splitlines():
        if "Index Scan" in line:
            return "Index Scan using " + line.split(" using ", 1)[1].split("  (")[0]
        if "Seq Scan" in line:
            return "Seq Scan + Filter"
    raise AssertionError(f"no scan in the plan of {sql}")


def _best(fn, repeats: int = 3) -> float:
    fn()
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module", autouse=True)
def report(world):
    sdb, params = world
    queries = [
        ("shape index scan (key = 'v')", extraction_sql(params)),
        ("inverted index probe (explicit matches())", index_sql(params)),
        ("full-text search, every record matches", FULLTEXT_ALL_SQL),
        ("full-text search, rare term", fulltext_selective_sql(params)),
    ]
    timings = {}
    rows = []
    for label, sql in queries:
        timings[label] = _best(lambda: sdb.query(sql))
        rows.append([label, access_path(sdb, sql), f"{timings[label]:.4f}"])
    shape, index = (timings[label] for label, _sql in queries[:2])
    rows.append(["text index speedup over shape index", "", f"{shape / index:.1f}x"])
    write_report(
        "ablation_text_index",
        format_table(
            ["virtual-column predicate via", "path (EXPLAIN)", "time (s)"],
            rows,
            title=f"Section 4.3 ablation -- text index, {N_RECORDS} records",
        ),
    )
    yield


def test_index_and_extraction_agree(world):
    sdb, params = world
    by_extraction = sorted(sdb.query(extraction_sql(params)).column(0))
    by_index = sorted(sdb.query(index_sql(params)).column(0))
    assert by_extraction == by_index
    assert by_extraction  # non-empty


def test_explicit_matches_reads_the_text_index(world):
    sdb, params = world
    assert access_path(sdb, extraction_sql(params)) == "Index Scan using shapes(data)"
    assert access_path(sdb, index_sql(params)) == "Index Scan using text(data)"
    builds = sdb.db.counters.index_builds
    sdb.query(index_sql(params))
    sdb.query(fulltext_selective_sql(params))
    assert sdb.db.counters.index_builds == builds  # built once, by the first probe


def test_full_text_reaches_array_terms(world):
    sdb, _params = world
    result = sdb.query(
        "SELECT count(*) FROM nobench_main WHERE matches('nested_arr', 'term_*')"
    )
    assert result.scalar() == N_RECORDS  # every record has nested_arr terms


def test_rare_term_finds_its_record(world):
    sdb, params = world
    by_search = sdb.query(fulltext_selective_sql(params)).column(0)
    by_value = sdb.query(
        f"SELECT _id FROM nobench_main WHERE str1 = '{params.q5_str1}'"
    ).column(0)
    assert len(by_value) == 1 and set(by_value) <= set(by_search)
    assert len(by_search) < 10


@pytest.mark.parametrize("mode", ["extraction", "index"])
def test_text_index_predicate(benchmark, world, mode):
    sdb, params = world
    sql = extraction_sql(params) if mode == "extraction" else index_sql(params)
    benchmark.group = "text-index"
    benchmark.pedantic(lambda: sdb.query(sql), rounds=3, iterations=1, warmup_rounds=1)
