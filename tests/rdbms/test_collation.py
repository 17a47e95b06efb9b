"""Every operator that decides "equal" or "in order" agrees with ``=``.

One value set mixes every type bracket, exact and inexact numbers, bools
beside 0 and 1, and arrays whose elements differ only in type.  On a
plain table (plan nodes built directly, so each algorithm runs whether
or not the planner would pick it) and on a Sinew collection (virtual
and materialized keys, both strategies forced through ``work_mem``):

* GROUP BY's groups, DISTINCT's rows and each join's pairs are exactly
  the equivalence classes of the filter's ``=``;
* ``count(DISTINCT)`` counts the classes;
* MIN/MAX are the first/last non-NULL value of ORDER BY;
* no Python ``TypeError`` escapes any of them.
"""

from __future__ import annotations

import pytest

from repro.core import SinewConfig, SinewDB
from repro.rdbms.cost import CostCounters, DiskBudget
from repro.rdbms.database import Database, DatabaseConfig
from repro.rdbms.expressions import (
    AnyPredicate,
    BinaryOp,
    ColumnRef,
    InList,
    Literal,
    SchemaResolver,
    compile_expr,
)
from repro.rdbms.functions import FunctionRegistry
from repro.rdbms.plan_nodes import (
    AggSpec,
    ExecutionContext,
    GroupAggregate,
    HashAggregate,
    HashJoin,
    MergeJoin,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    Unique,
    fuse,
)
from repro.rdbms.storage import BufferPool, Column, HeapTable, Schema
from repro.rdbms.types import SqlType, bracket, collation_key

VALUES = [
    None, 0, 1, 1.0, 2**53, 2**53 + 1, float(2**53), True, False, "1", "x", b"ab",
    [1], [1.0], [True], ["x"], [1, None],
]  # fmt: skip

X, Y = ColumnRef(None, "x"), ColumnRef(None, "y")
_XY = SchemaResolver([(None, "x"), (None, "y")])
_EQUALS = compile_expr(BinaryOp("=", X, Y), _XY)


def equals(left, right) -> bool:
    """The filter's ``=``, as compiled for a WHERE clause."""
    return _EQUALS((left, right)) is True


def classes_of(values: list) -> list[list[int]]:
    """The positions of the non-NULL ``values``, partitioned by ``=``."""
    classes: list[list[int]] = []
    for position, value in enumerate(values):
        if value is None:
            continue
        for members in classes:
            if equals(values[members[0]], value):
                members.append(position)
                break
        else:
            classes.append([position])
    for members in classes:  # ``=`` is an equivalence on the set
        for a in members:
            for b in range(len(values)):
                assert equals(values[a], values[b]) == (b in members)
    return classes


def class_index(classes: list[list[int]], values: list, value) -> int:
    (found,) = [i for i, members in enumerate(classes) if equals(values[members[0]], value)]
    return found


def assert_classes(keys: list, classes: list[list[int]], values: list) -> None:
    """``keys`` (NULL aside) name every class of ``=`` exactly once."""
    named = [class_index(classes, values, key) for key in keys if key is not None]
    assert sorted(named) == list(range(len(classes)))


def assert_pairs(pairs: list[tuple], classes: list[list[int]], ids: list) -> None:
    """The ``(left id, right id)`` pairs are exactly the pairs of one class."""
    expected = sorted(
        (ids[a], ids[b]) for members in classes for a in members for b in members
    )
    assert sorted(pairs) == expected


def test_every_form_of_equals_agrees():
    """A literal operand (the guarded fast paths), IN and ``= ANY`` decide
    as the general comparison of two columns does; two values of one
    bracket order as their collation keys do."""
    in_list = compile_expr(InList(X, (Y,)), _XY)
    any_of = compile_expr(AnyPredicate(X, Y), _XY)
    less = compile_expr(BinaryOp("<", X, Y), _XY)
    for right in VALUES[1:]:
        literal = Literal(tuple(right) if isinstance(right, list) else right)
        by_literal = compile_expr(BinaryOp("=", X, literal), _XY)
        in_literals = compile_expr(InList(X, (literal,)), _XY)
        for left in VALUES[1:]:
            expected = equals(left, right)
            assert expected == (collation_key(left) == collation_key(right))
            for form in (by_literal, in_literals):
                assert (form((left, None)) is True) == expected
            assert (in_list((left, right)) is True) == expected
            assert (any_of((left, [right])) is True) == expected
            if bracket(left) == bracket(right):
                assert less((left, right)) is (collation_key(left) < collation_key(right))
            else:
                assert less((left, right)) is None


def by_collation(rows) -> list:
    return sorted(rows, key=lambda row: tuple(map(collation_key, row)))


# ---------------------------------------------------------------------------
# plain table, plan nodes built directly
# ---------------------------------------------------------------------------

#: every value twice, so each class holds at least two rows
ROWS = [(index, value) for index, value in enumerate(VALUES + VALUES[::-1])]
ROW_VALUES = [value for _id, value in ROWS]
IDS = [row_id for row_id, _value in ROWS]


def make_table() -> HeapTable:
    counters = CostCounters()
    table = HeapTable(
        "v",
        Schema([Column("id", SqlType.INTEGER), Column("v", SqlType.TEXT)]),
        counters,
        BufferPool(64, counters),
        DiskBudget(),
    )
    for row in ROWS:
        table.insert(row)
    return table


def context(work_mem: int = 1 << 20) -> ExecutionContext:
    counters = CostCounters()
    return ExecutionContext(counters, FunctionRegistry(counters), DiskBudget(), work_mem)


def run(node) -> list[tuple]:
    ctx = context()
    return [row for batch in fuse(node).batches(ctx) for row in batch]


def spec(name: str, distinct: bool = False, output: str = "__agg0") -> AggSpec:
    argument = None if name == "count*" else ColumnRef("t", "v")
    function = FunctionRegistry().aggregate("count" if name == "count*" else name)
    return AggSpec(function, argument, distinct, output)


@pytest.fixture(scope="module")
def table() -> HeapTable:
    return make_table()


@pytest.fixture(scope="module")
def classes() -> list[list[int]]:
    return classes_of(ROW_VALUES)


def grouped(table: HeapTable, strategy: str, specs: list[AggSpec], keys=True) -> list:
    scan = SeqScan(table, "t")
    group = [ColumnRef("t", "v")] if keys else []
    if strategy == "hash":
        return run(HashAggregate(scan, group, specs, est_groups=1))
    ordered = Sort(scan, [(expr, True) for expr in group])
    return run(GroupAggregate(ordered, group, specs, est_groups=1))


@pytest.mark.parametrize("strategy", ["hash", "sort"])
def test_group_by_groups_are_the_classes(table, classes, strategy):
    rows = grouped(table, strategy, [spec("count*")])
    assert sum(1 for key, _count in rows if key is None) == 1
    assert_classes([key for key, _count in rows], classes, ROW_VALUES)
    for key, count in rows:
        if key is None:
            assert count == ROW_VALUES.count(None)
        else:
            assert count == len(classes[class_index(classes, ROW_VALUES, key)])


@pytest.mark.parametrize("strategy", ["hash", "sort"])
def test_distinct_rows_are_the_classes(table, classes, strategy):
    project = Project(SeqScan(table, "t"), [ColumnRef("t", "v")], ["v"])
    if strategy == "hash":
        node = HashAggregate(project, [ColumnRef(None, "v")], [], est_groups=1)
    else:
        node = Unique(Sort(project, [(ColumnRef(None, "v"), True)]))
    keys = [key for (key,) in run(node)]
    assert keys.count(None) == 1
    assert_classes(keys, classes, ROW_VALUES)


@pytest.mark.parametrize("strategy", ["hash", "sort"])
def test_count_distinct_counts_the_classes(table, classes, strategy):
    rows = grouped(table, strategy, [spec("count", distinct=True)], keys=False)
    assert rows == [(len(classes),)]


@pytest.mark.parametrize("strategy", ["hash", "sort"])
def test_min_and_max_are_the_ends_of_order_by(table, strategy):
    rows = grouped(
        table, strategy, [spec("min"), spec("max", output="__agg1")], keys=False
    )
    ordered = run(Sort(SeqScan(table, "t"), [(ColumnRef("t", "v"), True)]))
    present = [value for _id, value in ordered if value is not None]
    ((low, high),) = rows
    assert collation_key(low) == collation_key(present[0])
    assert collation_key(high) == collation_key(present[-1])


@pytest.mark.parametrize("algorithm", ["hash", "merge", "nested"])
def test_join_pairs_are_the_classes(table, classes, algorithm):
    left, right = SeqScan(table, "l"), SeqScan(table, "r")
    outer, inner = [ColumnRef("l", "v")], [ColumnRef("r", "v")]
    node = {
        "hash": lambda: HashJoin(left, right, outer, inner, est_rows=1),
        "merge": lambda: MergeJoin(left, right, outer, inner, est_rows=1),
        "nested": lambda: NestedLoopJoin(
            left, right, BinaryOp("=", outer[0], inner[0]), est_rows=1
        ),
    }[algorithm]()
    assert_pairs([(l_id, r_id) for l_id, _lv, r_id, _rv in run(node)], classes, IDS)


# ---------------------------------------------------------------------------
# plain table through SQL: the planner's choices at both work_mem settings
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1 << 20, 64], ids=["roomy", "tiny"])
def database(request):
    database = Database("collation", DatabaseConfig(work_mem_bytes=request.param))
    database.execute("CREATE TABLE v (id integer, v text)")
    database.insert_rows("v", ROWS)
    database.analyze()
    yield database
    database.close()


def test_sql_over_a_plain_table_agrees_with_equals(database, classes):
    query = lambda sql: database.execute(sql).rows  # noqa: E731
    groups = query("SELECT v, count(*) FROM v GROUP BY v")
    assert_classes([key for key, _count in groups], classes, ROW_VALUES)
    assert_classes([key for (key,) in query("SELECT DISTINCT v FROM v")], classes, ROW_VALUES)
    (count, low, high), = query("SELECT count(DISTINCT v), min(v), max(v) FROM v")
    present = [value for (value,) in query("SELECT v FROM v ORDER BY v") if value is not None]
    assert count == len(classes)
    assert collation_key(low) == collation_key(present[0])
    assert collation_key(high) == collation_key(present[-1])
    for sql in (
        "SELECT l.id, r.id FROM v l, v r WHERE l.v = r.v",
        "SELECT l.id, r.id FROM v l, v r WHERE l.v = r.v OR l.id = -1",
    ):
        assert_pairs(query(sql), classes, IDS)
    assert [row for (row,) in query("SELECT id FROM v WHERE v = 1")] == [
        row_id for row_id, value in ROWS if equals(value, 1)
    ]


# ---------------------------------------------------------------------------
# Sinew collection, virtual and materialized
# ---------------------------------------------------------------------------

#: one key per type: a key holding several types reads as text
KEYS = {int: ("n", SqlType.INTEGER), float: ("r", SqlType.REAL),
        bool: ("b", SqlType.BOOLEAN), str: ("s", SqlType.TEXT),
        list: ("a", SqlType.ARRAY)}  # fmt: skip
DOCS = [
    {"id": index} if value is None else {"id": index, KEYS[type(value)][0]: value}
    for index, value in ROWS
    if not isinstance(value, bytes)  # JSON has no bytes
]


def key_values(key: str) -> list:
    return [document.get(key) for document in DOCS]


@pytest.fixture(
    scope="module",
    params=[(False, 1 << 20), (False, 64), (True, 1 << 20), (True, 64)],
    ids=["virtual-roomy", "virtual-tiny", "materialized-roomy", "materialized-tiny"],
)
def collection(request):
    materialized, work_mem = request.param
    sdb = SinewDB(
        "collation", SinewConfig(database=DatabaseConfig(work_mem_bytes=work_mem))
    )
    sdb.create_collection("t")
    sdb.load("t", DOCS)
    if materialized:
        for key, sql_type in KEYS.values():
            sdb.materialize("t", key, sql_type)
        sdb.run_materializer("t")
    sdb.analyze()
    yield sdb, work_mem
    sdb.close()


@pytest.mark.parametrize("key", [key for key, _type in KEYS.values()])
def test_sql_over_a_collection_agrees_with_equals(collection, key):
    sdb, work_mem = collection
    values = key_values(key)
    classes = classes_of(values)
    ids = [document["id"] for document in DOCS]
    groups = sdb.query(f"SELECT {key}, count(*) FROM t GROUP BY {key}").rows
    assert_classes([group for group, _count in groups], classes, values)
    for group, count in groups:
        if group is not None:
            assert count == len(classes[class_index(classes, values, group)])
    distinct = [value for (value,) in sdb.query(f"SELECT DISTINCT {key} FROM t").rows]
    assert_classes(distinct, classes, values)
    ordered = sdb.query(f"SELECT {key} FROM t ORDER BY {key}").rows
    present = [value for (value,) in ordered if value is not None]
    ((count, low, high),) = sdb.query(
        f"SELECT count(DISTINCT {key}), min({key}), max({key}) FROM t"
    ).rows
    assert count == len(classes)
    assert collation_key(low) == collation_key(present[0])
    assert collation_key(high) == collation_key(present[-1])
    join = f"SELECT l.id, r.id FROM t l, t r WHERE l.{key} = r.{key}"
    if work_mem < 1024:
        assert "Merge Join" in sdb.explain(join)
        assert "GroupAggregate" in sdb.explain(f"SELECT {key}, count(*) FROM t GROUP BY {key}")
    else:
        assert "Hash Join" in sdb.explain(join)
    assert_pairs(sdb.query(join).rows, classes, ids)
    assert_pairs(sdb.query(f"{join} OR l.id = -1").rows, classes, ids)


def test_integer_and_real_keys_join_exactly(collection):
    """``l.n = r.r`` pairs 1 with 1.0 and 2**53 with float(2**53), but not
    2**53 + 1: numbers keep their value across INTEGER and REAL."""
    sdb, _work_mem = collection
    for sql in (
        "SELECT l.n, r.r FROM t l, t r WHERE l.n = r.r",
        "SELECT l.n, r.r FROM t l, t r WHERE l.n = r.r OR l.id = -1",
    ):
        pairs = sdb.query(sql).rows
        assert by_collation(pairs) == by_collation(
            [(n, r) for n in key_values("n") for r in key_values("r")
             if n is not None and r is not None and equals(n, r)]
        )  # fmt: skip
        assert sorted({n for n, _r in pairs}) == [1, 2**53]
