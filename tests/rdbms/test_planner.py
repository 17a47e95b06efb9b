"""Unit tests for the cost-based planner (plan shapes, not results)."""

import pytest

from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.errors import CatalogError, PlanningError
from repro.rdbms.plan_nodes import (
    Filter,
    GroupAggregate,
    HashAggregate,
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
    SeqScan,
    Sort,
    Unique,
)
from repro.rdbms.sql.parser import parse


def plan_of(db, sql):
    return db._plan(parse(sql))


def nodes_of(plan, node_type):
    return [node for node in plan.walk() if isinstance(node, node_type)]


@pytest.fixture()
def db():
    # serial plans: these tests assert the *serial* operator shapes, which
    # the parallel rewrite would otherwise replace on multi-core machines
    database = Database(
        "plans", DatabaseConfig(work_mem_bytes=32 * 1024)
    )
    database.execute("CREATE TABLE big (id integer, grp integer, label text)")
    database.execute("CREATE TABLE small (id integer, name text)")
    rows = [(i, i % 7, f"l{i % 3}") for i in range(3000)]
    database.insert_rows("big", rows)
    database.insert_rows("small", [(i, f"n{i}") for i in range(20)])
    database.analyze()
    return database


class TestScansAndFilters:
    def test_filter_pushdown_below_join(self, db):
        plan = plan_of(
            db, "SELECT b.id FROM big b, small s WHERE b.id = s.id AND b.grp = 3"
        )
        filters = nodes_of(plan, Filter)
        assert filters, "single-table predicate should become a Filter"
        # the filter sits directly on the scan, not above the join
        assert isinstance(filters[0].child, SeqScan)

    def test_unknown_table(self, db):
        with pytest.raises(CatalogError):
            plan_of(db, "SELECT x FROM missing")

    def test_unknown_column(self, db):
        with pytest.raises(CatalogError):
            plan_of(db, "SELECT id FROM big WHERE nope = 1")

    def test_ambiguous_column(self, db):
        with pytest.raises(PlanningError, match="ambiguous"):
            plan_of(db, "SELECT name FROM big, small WHERE id = 1")


class TestJoinPlanning:
    def test_small_inner_hash_join(self, db):
        plan = plan_of(db, "SELECT b.id FROM big b, small s WHERE b.id = s.id")
        joins = nodes_of(plan, HashJoin)
        assert joins, "20-row inner fits work_mem: expect a hash join"
        # the small table should be the inner (build) side
        assert any(
            isinstance(scan, SeqScan) and scan.table.name == "small"
            for scan in joins[0].inner.walk()
        )

    def test_large_inner_merge_join(self, db):
        plan = plan_of(db, "SELECT a.id FROM big a, big b WHERE a.id = b.id")
        assert nodes_of(plan, MergeJoin), "3000 wide rows exceed work_mem"

    def test_cartesian_product_nested_loop(self, db):
        plan = plan_of(db, "SELECT b.id FROM big b, small s")
        assert nodes_of(plan, NestedLoopJoin)

    def test_three_way_join_uses_both_edges(self, db):
        plan = plan_of(
            db,
            "SELECT a.id FROM big a, small b, small c "
            "WHERE a.id = b.id AND b.id = c.id",
        )
        n_joins = len(nodes_of(plan, HashJoin)) + len(nodes_of(plan, MergeJoin))
        assert n_joins == 2

    def test_selective_filter_drives_join_order(self, db):
        # With a highly selective filter on big, big becomes the cheap side.
        plan = plan_of(
            db,
            "SELECT b.id FROM big b, small s WHERE b.id = s.id AND b.id = 17",
        )
        joins = nodes_of(plan, HashJoin) + nodes_of(plan, MergeJoin)
        assert joins
        assert plan.est_cost < plan_of(
            db, "SELECT b.id FROM big b, small s WHERE b.id = s.id"
        ).est_cost


class TestAggregateStrategy:
    def test_few_groups_hash(self, db):
        plan = plan_of(db, "SELECT grp, count(*) FROM big GROUP BY grp")
        assert nodes_of(plan, HashAggregate)

    def test_many_groups_sort(self, db):
        plan = plan_of(db, "SELECT id, count(*) FROM big GROUP BY id")
        assert nodes_of(plan, GroupAggregate)
        assert nodes_of(plan, Sort)

    def test_distinct_low_cardinality_hash(self, db):
        plan = plan_of(db, "SELECT DISTINCT grp FROM big")
        assert nodes_of(plan, HashAggregate)

    def test_distinct_high_cardinality_unique(self, db):
        plan = plan_of(db, "SELECT DISTINCT id FROM big")
        assert nodes_of(plan, Unique)

    def test_udf_group_key_defaults_to_hash(self, db):
        # a UDF group key gets the 200-group default -> hash, even though
        # the true cardinality (3000) would overflow work_mem
        db.create_function("f", lambda v: v, return_type=None)
        plan = plan_of(db, "SELECT count(*) FROM big GROUP BY f(id)")
        assert nodes_of(plan, HashAggregate)

    def test_group_by_validation(self, db):
        with pytest.raises(PlanningError, match="GROUP BY"):
            plan_of(db, "SELECT label, count(*) FROM big GROUP BY grp")

    def test_global_aggregate_single_group(self, db):
        plan = plan_of(db, "SELECT count(*), sum(id) FROM big")
        aggregate = nodes_of(plan, HashAggregate)[0]
        assert aggregate.est_rows == 1


class TestOrderByAndLimit:
    def test_order_by_scan_column_sorts_before_projection(self, db):
        plan = plan_of(db, "SELECT id FROM big ORDER BY grp")
        sorts = nodes_of(plan, Sort)
        assert sorts

    def test_order_by_alias(self, db):
        plan = plan_of(db, "SELECT grp, count(*) AS c FROM big GROUP BY grp ORDER BY c DESC")
        assert nodes_of(plan, Sort)

    def test_order_by_unknown_rejected(self, db):
        with pytest.raises((PlanningError, CatalogError)):
            plan_of(db, "SELECT id FROM big ORDER BY nonexistent")

    def test_limit_node(self, db):
        from repro.rdbms.plan_nodes import Limit

        plan = plan_of(db, "SELECT id FROM big LIMIT 5")
        assert nodes_of(plan, Limit)
        assert plan.est_rows <= 5


class TestExplain:
    def test_explain_text_structure(self, db):
        text = db.explain("SELECT grp, count(*) FROM big GROUP BY grp")
        assert "Seq Scan on big" in text
        assert "Aggregate" in text
        assert "rows=" in text

    def test_explain_statement_execution(self, db):
        result = db.execute("EXPLAIN SELECT id FROM big WHERE grp = 1")
        assert result.plan_text is not None
        assert "Filter" in result.plan_text
