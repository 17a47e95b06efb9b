"""Ablation for paper section 3.1.4: the cost of querying *dirty* columns.

While the materializer is mid-move, every reference to the moving column
is rewritten to ``COALESCE(physical, extract(...))``.  The paper measured
"a maximum slowdown of 10% for queries that access columns that must be
coalesced" and no slowdown at all for disk-bound workloads.

This bench measures two queries against the same table in three states
-- fully virtual, dirty (half materialized), and fully physical -- and
reports the dirty-state overhead relative to both endpoints: a
``count(*)`` that every row answers (no index can) and a point lookup,
which the dirty state answers from the union of the physical column's
index and the reservoir expression's index (the COALESCE bridge).  It
asserts, with counts and plans and no timings, that the three states
return the same rows and that the dirty lookup reads that union.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import SinewDB
from repro.harness import format_table
from repro.nobench import NoBenchGenerator
from repro.rdbms.types import SqlType

from conftest import read_json, write_json, write_report

N_RECORDS = max(500, int(6000 * float(os.environ.get("REPRO_SCALE", "1.0"))))
DOCUMENTS = list(NoBenchGenerator(N_RECORDS).documents())

QUERY = "SELECT count(*) FROM nobench_main WHERE str1 IS NOT NULL"
POINT_QUERY_TEMPLATE = "SELECT num FROM nobench_main WHERE str1 = '{value}'"
#: one document the dirty state has moved to the physical column, one it
#: has not (the materializer stops half way through the table)
POINT_DOCUMENTS = (DOCUMENTS[N_RECORDS // 4], DOCUMENTS[3 * N_RECORDS // 4])
POINT_QUERIES = [POINT_QUERY_TEMPLATE.format(value=doc["str1"]) for doc in POINT_DOCUMENTS]
BRIDGE_SCAN = "Index Scan on nobench_main using str1 | extract_key_text(data, 'str1')"


def build(state: str) -> SinewDB:
    sdb = SinewDB(f"dirty_{state}")
    sdb.create_collection("nobench_main")
    sdb.load("nobench_main", DOCUMENTS)
    if state in ("dirty", "physical"):
        sdb.materialize("nobench_main", "str1", SqlType.TEXT)
        if state == "dirty":
            sdb.materializer_step("nobench_main", max_rows=N_RECORDS // 2)
        else:
            sdb.run_materializer("nobench_main")
    sdb.analyze()
    return sdb


@pytest.fixture(scope="module")
def systems():
    return {state: build(state) for state in ("virtual", "dirty", "physical")}


def _best(fn, repeats: int = 3) -> float:
    fn()  # warm
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module", autouse=True)
def report(systems):
    times = {
        state: _best(lambda sdb=sdb: sdb.query(QUERY))
        for state, sdb in systems.items()
    }
    point_times = {
        state: _best(lambda sdb=sdb: [sdb.query(sql) for sql in POINT_QUERIES])
        / len(POINT_QUERIES)
        for state, sdb in systems.items()
    }
    rows = [
        [state, f"{times[state]:.4f}", f"{point_times[state]:.5f}"] for state in times
    ]
    rows.append(
        ["dirty vs physical"]
        + [
            f"{(seconds['dirty'] - seconds['physical']) / seconds['physical'] * 100:+.1f}%"
            for seconds in (times, point_times)
        ]
    )
    extraction = {}
    for state, sdb in systems.items():
        extraction[state] = {
            "cached": dict(sdb.query(QUERY).exec_stats),
            "uncached": dict(
                sdb.query(QUERY, use_extraction_cache=False).exec_stats
            ),
        }
    write_json(
        "dirty_coalesce",
        {
            "n_records": N_RECORDS,
            "sql": QUERY,
            "seconds": times,
            "point_sql": POINT_QUERY_TEMPLATE,
            "point_seconds": point_times,
            "extraction": extraction,
        },
    )
    write_report(
        "dirty_coalesce",
        format_table(
            ["column state", "count(*) time (s)", "point lookup time (s)"],
            rows,
            title=(
                "Section 3.1.4 ablation -- COALESCE overhead on a dirty "
                f"column, {N_RECORDS} records (dirty point lookup: {BRIDGE_SCAN})"
            ),
        ),
    )
    yield


def test_dirty_results_correct(systems):
    counts = {
        state: sdb.query(QUERY).scalar() for state, sdb in systems.items()
    }
    assert counts["virtual"] == counts["dirty"] == counts["physical"] == N_RECORDS


def test_point_lookups_agree_and_dirty_reads_the_index_union(systems):
    """The same rows in every state, the dirty one through the bridge."""
    for doc, sql in zip(POINT_DOCUMENTS, POINT_QUERIES):
        answers = {state: sdb.query(sql).rows for state, sdb in systems.items()}
        assert answers == {state: [(doc["num"],)] for state in systems}, sql
        assert BRIDGE_SCAN in systems["dirty"].explain(sql)


def test_counters_emitted_in_json(report):
    payload = read_json("dirty_coalesce")
    for state in ("virtual", "dirty", "physical"):
        for side in ("cached", "uncached"):
            stats = payload["extraction"][state][side]
            for counter in ("header_decodes", "header_cache_hits", "udf_calls"):
                assert counter in stats
    # the physical state never touches the reservoir for this query
    assert payload["extraction"]["physical"]["cached"]["header_decodes"] == 0
    # the dirty state must extract for the unmoved half, on either path
    assert payload["extraction"]["dirty"]["cached"]["udf_calls"] > 0


def test_dirty_between_endpoints(systems):
    """The dirty plan does strictly less extraction work than all-virtual."""
    plan = systems["dirty"].explain(QUERY)
    assert "COALESCE" in plan


@pytest.mark.parametrize("state", ["virtual", "dirty", "physical"])
def test_dirty_coalesce_timing(benchmark, systems, state):
    sdb = systems[state]
    benchmark.group = "dirty-coalesce"
    benchmark.pedantic(lambda: sdb.query(QUERY), rounds=3, iterations=1, warmup_rounds=1)
