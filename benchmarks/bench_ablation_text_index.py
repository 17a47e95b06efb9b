"""Ablation for paper section 4.3: the inverted text index.

The paper's motivation for integrating Solr was to answer predicates on
virtual columns from the index instead of extracting from the reservoir
per row.  This bench compares:

* an equality predicate on a sparse virtual column
  (``WHERE sparse_X = 'v'``), which the planner answers from the shape
  index (``Index Scan ... using shapes(data)``), reading only the rows
  that hold the key;
* the same predicate through the text index
  (``WHERE matches('sparse_X', 'v')``);
* a multi-term full-text search only the text index can answer.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import SinewConfig, SinewDB
from repro.harness import format_table
from repro.nobench import NoBenchGenerator

from conftest import write_report

N_RECORDS = max(400, int(4000 * float(os.environ.get("REPRO_SCALE", "1.0"))))


@pytest.fixture(scope="module")
def world():
    generator = NoBenchGenerator(N_RECORDS)
    params = generator.params()
    sdb = SinewDB("text_index", SinewConfig(enable_text_index=True))
    sdb.create_collection("nobench_main")
    sdb.load("nobench_main", generator.documents())
    sdb.analyze()
    return sdb, params


@pytest.fixture(scope="module")
def auto_world():
    """Same data with automatic index prefiltering of equality predicates."""
    generator = NoBenchGenerator(N_RECORDS)
    sdb = SinewDB(
        "text_index_auto",
        SinewConfig(enable_text_index=True, rewrite_predicates_with_index=True),
    )
    sdb.create_collection("nobench_main")
    sdb.load("nobench_main", generator.documents())
    sdb.analyze()
    return sdb, generator.params()


def extraction_sql(params) -> str:
    return (
        f"SELECT _id FROM nobench_main WHERE {params.q9_key} = '{params.q9_value}'"
    )


def index_sql(params) -> str:
    return (
        f"SELECT _id FROM nobench_main "
        f"WHERE matches('{params.q9_key}', '{params.q9_value.lower()}')"
    )


def _best(fn, repeats: int = 3) -> float:
    fn()
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@pytest.fixture(scope="module", autouse=True)
def report(world, auto_world):
    sdb, params = world
    auto_sdb, auto_params = auto_world
    shape = _best(lambda: sdb.query(extraction_sql(params)))
    index = _best(lambda: sdb.query(index_sql(params)))
    automatic = _best(lambda: auto_sdb.query(extraction_sql(auto_params)))
    fulltext = _best(
        lambda: sdb.query("SELECT _id FROM nobench_main WHERE matches('*', 'term_*')")
    )
    rows = [
        ["shape index scan (key = 'v')", f"{shape:.4f}"],
        ["inverted index probe (explicit matches())", f"{index:.4f}"],
        ["automatic prefilter + exact recheck", f"{automatic:.4f}"],
        ["full-text search (index only)", f"{fulltext:.4f}"],
        ["text index speedup over shape index", f"{shape / index:.1f}x"],
    ]
    write_report(
        "ablation_text_index",
        format_table(
            ["virtual-column predicate via", "time (s)"],
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


def test_full_text_reaches_array_terms(world):
    sdb, _params = world
    result = sdb.query(
        "SELECT count(*) FROM nobench_main WHERE matches('nested_arr', 'term_*')"
    )
    assert result.scalar() == N_RECORDS  # every record has nested_arr terms


@pytest.mark.parametrize("mode", ["extraction", "index"])
def test_text_index_predicate(benchmark, world, mode):
    sdb, params = world
    sql = extraction_sql(params) if mode == "extraction" else index_sql(params)
    benchmark.group = "text-index"
    benchmark.pedantic(lambda: sdb.query(sql), rounds=3, iterations=1, warmup_rounds=1)
