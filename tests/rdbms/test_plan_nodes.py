"""Direct unit tests for physical operators (bypassing the planner; each
tree is made executable with ``fuse``, as the planner does)."""

import pytest

from repro.rdbms.cost import CostCounters, DiskBudget
from repro.rdbms.expressions import BinaryOp, ColumnRef, Literal
from repro.rdbms.functions import FunctionRegistry
from repro.rdbms.plan_nodes import (
    AggSpec,
    ExecutionContext,
    Filter,
    GroupAggregate,
    HashAggregate,
    HashJoin,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    Unique,
    fuse,
)
from repro.rdbms.storage import BufferPool, Column, HeapTable, Schema
from repro.rdbms.types import SqlType


def make_table(name, columns, rows):
    counters = CostCounters()
    table = HeapTable(
        name,
        Schema([Column(n, t) for n, t in columns]),
        counters,
        BufferPool(64, counters),
        DiskBudget(),
    )
    for row in rows:
        table.insert(row)
    return table


def context(work_mem=1 << 20):
    counters = CostCounters()
    return ExecutionContext(counters, FunctionRegistry(counters), DiskBudget(), work_mem)


@pytest.fixture()
def people():
    return make_table(
        "people",
        [("id", SqlType.INTEGER), ("grp", SqlType.TEXT), ("score", SqlType.INTEGER)],
        [
            (1, "a", 10),
            (2, "b", 20),
            (3, "a", 30),
            (4, None, None),
            (5, "b", 50),
        ],
    )


class TestScanFilterProject:
    def test_seq_scan_all_rows(self, people):
        scan = SeqScan(people, "p")
        assert len(list(fuse(scan).rows(context()))) == 5
        assert scan.output_columns[0] == ("p", "id")

    def test_filter_three_valued(self, people):
        scan = SeqScan(people, "p")
        predicate = BinaryOp(">", ColumnRef("p", "score"), Literal(15))
        node = Filter(scan, predicate, 0.5)
        rows = list(fuse(node).rows(context()))
        assert [row[0] for row in rows] == [2, 3, 5]  # NULL score dropped

    def test_project_expressions(self, people):
        scan = SeqScan(people, "p")
        node = Project(
            scan,
            [BinaryOp("*", ColumnRef("p", "id"), Literal(2))],
            ["doubled"],
        )
        assert [row[0] for row in fuse(node).rows(context())] == [2, 4, 6, 8, 10]

    def test_limit(self, people):
        node = Limit(SeqScan(people, "p"), 2)
        assert len(list(fuse(node).rows(context()))) == 2


class TestSortUnique:
    def test_sort_nulls_last(self, people):
        node = Sort(SeqScan(people, "p"), [(ColumnRef("p", "grp"), True)])
        groups = [row[1] for row in fuse(node).rows(context())]
        assert groups == ["a", "a", "b", "b", None]

    def test_sort_descending(self, people):
        # DESC places NULLs first (PostgreSQL default), then values
        node = Sort(SeqScan(people, "p"), [(ColumnRef("p", "score"), False)])
        scores = [row[2] for row in fuse(node).rows(context())]
        assert scores[0] is None
        assert scores[1:] == [50, 30, 20, 10]

    def test_sort_mixed_type_key_does_not_crash(self):
        table = make_table("m", [("v", SqlType.TEXT)], [(1,), ("x",), (2.5,), (None,)])
        node = Sort(SeqScan(table, "m"), [(ColumnRef("m", "v"), True)])
        values = [row[0] for row in fuse(node).rows(context())]
        assert values[:2] == [1, 2.5]  # numbers first, then text, NULL last
        assert values[-1] is None

    def test_unique_on_sorted(self, people):
        ordered = Sort(
            Project(SeqScan(people, "p"), [ColumnRef("p", "grp")], ["grp"]),
            [(ColumnRef(None, "grp"), True)],
        )
        node = Unique(ordered)
        assert [row[0] for row in fuse(node).rows(context())] == ["a", "b", None]

    def test_sort_spills_when_over_work_mem(self, people):
        ctx = context(work_mem=16)
        node = Sort(SeqScan(people, "p"), [(ColumnRef("p", "id"), True)])
        list(fuse(node).rows(ctx))
        assert ctx.counters.spill_bytes > 0
        assert ctx.disk.used_bytes == 0  # released after the sort


class TestAggregates:
    def agg_specs(self, registry):
        return [
            AggSpec(registry.aggregate("count"), None, False, "__agg0"),
            AggSpec(registry.aggregate("sum"), ColumnRef("p", "score"), False, "__agg1"),
        ]

    def test_hash_aggregate_groups(self, people):
        ctx = context()
        node = HashAggregate(
            SeqScan(people, "p"),
            [ColumnRef("p", "grp")],
            self.agg_specs(ctx.functions),
            est_groups=3,
        )
        out = {row[0]: (row[1], row[2]) for row in fuse(node).rows(ctx)}
        assert out == {"a": (2, 40), "b": (2, 70), None: (1, None)}

    def test_group_aggregate_matches_hash(self, people):
        ctx = context()
        sorted_input = Sort(SeqScan(people, "p"), [(ColumnRef("p", "grp"), True)])
        node = GroupAggregate(
            sorted_input,
            [ColumnRef("p", "grp")],
            self.agg_specs(ctx.functions),
            est_groups=3,
        )
        out = {row[0]: (row[1], row[2]) for row in fuse(node).rows(ctx)}
        assert out == {"a": (2, 40), "b": (2, 70), None: (1, None)}

    def test_distinct_aggregate(self, people):
        ctx = context()
        spec = AggSpec(
            ctx.functions.aggregate("count"), ColumnRef("p", "grp"), True, "__agg0"
        )
        node = HashAggregate(SeqScan(people, "p"), [], [spec], est_groups=1)
        assert list(fuse(node).rows(ctx)) == [(2,)]  # 'a', 'b' distinct; NULL skipped


class TestJoins:
    def make_pair(self):
        left = make_table(
            "l", [("k", SqlType.INTEGER), ("lv", SqlType.TEXT)],
            [(1, "l1"), (2, "l2"), (2, "l2b"), (None, "lnull")],
        )
        right = make_table(
            "r", [("k", SqlType.INTEGER), ("rv", SqlType.TEXT)],
            [(2, "r2"), (3, "r3"), (None, "rnull")],
        )
        return SeqScan(left, "l"), SeqScan(right, "r")

    def expected(self):
        return [(2, "l2", 2, "r2"), (2, "l2b", 2, "r2")]

    def test_hash_join(self):
        left, right = self.make_pair()
        node = HashJoin(
            left, right, [ColumnRef("l", "k")], [ColumnRef("r", "k")], est_rows=2
        )
        assert sorted(fuse(node).rows(context())) == self.expected()

    def test_merge_join(self):
        left, right = self.make_pair()
        node = MergeJoin(
            left, right, [ColumnRef("l", "k")], [ColumnRef("r", "k")], est_rows=2
        )
        assert sorted(fuse(node).rows(context())) == self.expected()

    def test_nested_loop_with_condition(self):
        left, right = self.make_pair()
        condition = BinaryOp("=", ColumnRef("l", "k"), ColumnRef("r", "k"))
        node = NestedLoopJoin(left, right, condition, est_rows=2)
        assert sorted(fuse(node).rows(context())) == self.expected()

    def test_cartesian_nested_loop(self):
        left, right = self.make_pair()
        node = NestedLoopJoin(left, right, None, est_rows=12)
        assert len(list(fuse(node).rows(context()))) == 12

    def test_null_keys_never_join(self):
        # the NULL rows on both sides must not pair up under any algorithm
        for algorithm in ("hash", "merge"):
            left, right = self.make_pair()
            cls = HashJoin if algorithm == "hash" else MergeJoin
            node = cls(
                left, right, [ColumnRef("l", "k")], [ColumnRef("r", "k")], est_rows=2
            )
            assert all(row[0] is not None for row in fuse(node).rows(context()))


class TestExplainText:
    def test_tree_rendering(self, people):
        scan = SeqScan(people, "p")
        node = Limit(
            Sort(scan, [(ColumnRef("p", "id"), True)]), 3
        )
        text = node.explain()
        lines = text.splitlines()
        assert lines[0].startswith("Limit 3")
        assert "->  Sort" in lines[1]
        assert "->  Seq Scan on people p" in lines[2]
