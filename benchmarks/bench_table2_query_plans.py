"""Paper Table 2: the effect of virtual columns on query plans.

Builds two Sinew instances over the same synthetic Twitter dataset -- one
all-virtual, one with the Table 2 attributes materialized (and ANALYZEd) --
and records the plans the optimizer chooses for the four Table 1 queries.
The reproduced effects:

* T1 (DISTINCT): HashAggregate under the fixed 200-row virtual estimate,
  Sort+Unique once real statistics exist;
* T2 (GROUP BY): 200-group hash plan vs. a statistics-driven strategy;
* T3/T4 (joins): cardinality estimates and join trees change.

The timing benchmarks measure T1/T2 execution in both conditions -- the
paper reports an order-of-magnitude gap on the self-join; at this scale
the physical condition must at least be decisively faster.
"""

from __future__ import annotations

import os

import pytest

from repro.core import SinewDB
from repro.rdbms.types import collation_key, type_from_name
from repro.workloads import (
    TABLE1_QUERIES,
    TABLE2_PHYSICAL_ATTRIBUTES,
    TwitterGenerator,
)

from conftest import write_report

N_TWEETS = max(500, int(8000 * float(os.environ.get("REPRO_SCALE", "1.0"))))


def build_sinew(materialize: bool) -> SinewDB:
    generator = TwitterGenerator(N_TWEETS)
    sdb = SinewDB("table2_physical" if materialize else "table2_virtual")
    sdb.create_collection("tweets")
    sdb.create_collection("deletes")
    sdb.load("tweets", generator.tweets())
    sdb.load("deletes", generator.deletes(N_TWEETS // 3))
    if materialize:
        for key, type_name in TABLE2_PHYSICAL_ATTRIBUTES:
            table = "deletes" if key.startswith("delete.") else "tweets"
            sdb.materialize(table, key, type_from_name(type_name))
        sdb.run_materializer("tweets")
        sdb.run_materializer("deletes")
    sdb.analyze()
    return sdb


@pytest.fixture(scope="module")
def systems():
    return {"virtual": build_sinew(False), "physical": build_sinew(True)}


@pytest.fixture(scope="module", autouse=True)
def report(systems):
    """Write the Table 2 artifact: both plans for every Table 1 query."""
    lines = [f"Table 2 reproduction -- query plans, {N_TWEETS} tweets", ""]
    for query_id, sql in TABLE1_QUERIES.items():
        lines.append(f"## {query_id}: {sql}")
        for condition in ("virtual", "physical"):
            lines.append(f"-- with {condition} columns:")
            lines.append(systems[condition].explain(sql))
        lines.append("")
    # headline assertions of the reproduction
    virtual_t1 = systems["virtual"].explain(TABLE1_QUERIES["T1"]).splitlines()[0]
    physical_t1 = systems["physical"].explain(TABLE1_QUERIES["T1"]).splitlines()[0]
    lines.append(f"T1 top operator: virtual={virtual_t1!r} physical={physical_t1!r}")
    write_report("table2_query_plans", "\n".join(lines))
    yield


def test_t1_plan_flip(systems):
    assert systems["virtual"].explain(TABLE1_QUERIES["T1"]).splitlines()[0].startswith(
        "HashAggregate  "
    )
    assert "Unique" in systems["physical"].explain(TABLE1_QUERIES["T1"]).splitlines()[0]


@pytest.mark.parametrize("query_id", ["T1", "T2"])
def test_t1_plan_flip_keeps_the_answer(systems, query_id):
    """The plan flip changes the algorithm, not the answer: T1's DISTINCT
    (HashAggregate over virtual columns, Sort+Unique over physical ones)
    and T2's GROUP BY return the same rows in both conditions."""
    sql = TABLE1_QUERIES[query_id]

    def answer(condition: str) -> list[tuple]:
        rows = systems[condition].query(sql).rows
        return sorted(rows, key=lambda row: tuple(map(collation_key, row)))

    virtual = answer("virtual")
    assert virtual and virtual == answer("physical")


@pytest.mark.parametrize("query_id", ["T1", "T2"])
@pytest.mark.parametrize("condition", ["virtual", "physical"])
def test_table2_query_timing(benchmark, systems, query_id, condition):
    sdb = systems[condition]
    sql = TABLE1_QUERIES[query_id]
    benchmark.group = f"table2-{query_id}"
    benchmark.pedantic(lambda: sdb.query(sql), rounds=3, iterations=1, warmup_rounds=1)


def test_table2_t3_join_timing(benchmark, systems):
    """The join query where the paper saw 50 min -> 4 min from
    materialization."""
    sql = TABLE1_QUERIES["T3"]
    benchmark.group = "table2-T3"
    benchmark.pedantic(
        lambda: systems["physical"].query(sql), rounds=2, iterations=1
    )
