"""Property-based differential test of the expression compiler.

Random expression trees -- every node type, literals and column
references of mixed types including NULL, booleans and arrays -- over
random rows: the compiled row form, the compiled batch form and the
tree-walking reference evaluator must agree on every value (and its
type), on which error is raised, and on the number of counted UDF calls.
Over the same random rows, the operators that decide "equal" agree with
each other: GROUP BY hashed or sorted, and the three join algorithms.

Runs in the stress lane (``pytest -m slow``); CI pins the derandomized
``ci`` hypothesis profile so failures replay deterministically.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.rdbms.cost import CostCounters, DiskBudget
from repro.rdbms.expressions import (
    AnyPredicate,
    Between,
    BinaryOp,
    Cast,
    Coalesce,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
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
    SeqScan,
    Sort,
    fuse,
)
from repro.rdbms.storage import BufferPool, Column, HeapTable, Schema
from repro.rdbms.types import SqlType, collation_key

from .differential import COLUMNS, check

pytestmark = pytest.mark.slow

# small domains on purpose: values must collide for comparisons, IN lists
# and BETWEEN bounds to take every branch
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=3)
    | st.sampled_from([-1.5, 0.0, 0.5, 2.0, 3.0])
    | st.sampled_from(["", "a", "ab", "b", "5", "a%", "_b", "true"])
)
VALUES = SCALARS | st.lists(SCALARS, max_size=3) | st.just(b"ab")
ROWS = st.lists(st.tuples(*[VALUES] * len(COLUMNS)), max_size=6)

# an array literal is a tuple (AST nodes are hashable dataclasses)
LITERALS = (SCALARS | st.lists(SCALARS, max_size=3).map(tuple)).map(Literal)
REFERENCES = st.sampled_from(COLUMNS).map(lambda name: ColumnRef(None, name))
OPERATORS = st.sampled_from(
    ["=", "<>", "!=", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%", "||"]
)
CAST_TARGETS = st.sampled_from(
    [SqlType.TEXT, SqlType.INTEGER, SqlType.REAL, SqlType.BOOLEAN, SqlType.ARRAY]
)


def grow(children):
    return st.one_of(
        st.builds(BinaryOp, OPERATORS, children, children),
        st.builds(UnaryOp, st.sampled_from(["NOT", "-", "+"]), children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Between, children, children, children, st.booleans()),
        st.builds(InList, children, st.lists(children, max_size=3).map(tuple), st.booleans()),
        st.builds(Like, children, children, st.booleans()),
        st.builds(Coalesce, st.lists(children, max_size=3).map(tuple)),
        st.builds(Cast, children, CAST_TARGETS),
        st.builds(AnyPredicate, children, children),
        st.builds(lambda argument: FunctionCall("ident", (argument,)), children),
        st.builds(lambda argument: FunctionCall("length", (argument,)), children),
        st.builds(
            lambda subject, key: FunctionCall("spec", (subject, Literal(key))),
            REFERENCES | children,
            st.sampled_from(["k1", "k2"]),
        ),
    )


EXPRESSIONS = st.recursive(LITERALS | REFERENCES, grow, max_leaves=10)


@settings(max_examples=400)
@given(expr=EXPRESSIONS, rows=ROWS)
def test_row_form_batch_form_and_reference_agree(expr, rows):
    check(expr, rows)


def _table(rows) -> HeapTable:
    counters = CostCounters()
    schema = Schema([Column(name, SqlType.TEXT) for name in COLUMNS])
    table = HeapTable("t", schema, counters, BufferPool(16, counters), DiskBudget())
    for row in rows:
        table.insert(row)
    return table


def _multiset(node) -> list:
    """The rows ``node`` returns, in the collation's order."""
    counters = CostCounters()
    context = ExecutionContext(counters, FunctionRegistry(counters), DiskBudget(), 1 << 20)
    rows = [row for batch in fuse(node).batches(context) for row in batch]
    return sorted(map(lambda row: tuple(map(collation_key, row)), rows))


@settings(max_examples=200)
@given(rows=ROWS, key=st.sampled_from(COLUMNS), other=st.sampled_from(COLUMNS))
def test_hashed_and_sorted_operators_agree(rows, key, other):
    table = _table(rows)
    functions = FunctionRegistry()
    argument = ColumnRef("t", other)
    specs = [
        AggSpec(functions.aggregate("count"), None, False, "__agg0"),
        AggSpec(functions.aggregate("count"), argument, True, "__agg1"),
        AggSpec(functions.aggregate("min"), argument, False, "__agg2"),
        AggSpec(functions.aggregate("max"), argument, False, "__agg3"),
    ]
    group = [ColumnRef("t", key)]
    hashed = HashAggregate(SeqScan(table, "t"), group, specs, est_groups=1)
    ordered = Sort(SeqScan(table, "t"), [(group[0], True)])
    assert _multiset(hashed) == _multiset(GroupAggregate(ordered, group, specs, est_groups=1))

    outer, inner = [ColumnRef("l", key)], [ColumnRef("r", other)]
    condition = BinaryOp("=", outer[0], inner[0])
    joins = [
        HashJoin(SeqScan(table, "l"), SeqScan(table, "r"), outer, inner, est_rows=1),
        MergeJoin(SeqScan(table, "l"), SeqScan(table, "r"), outer, inner, est_rows=1),
        NestedLoopJoin(SeqScan(table, "l"), SeqScan(table, "r"), condition, est_rows=1),
    ]
    first, *rest = map(_multiset, joins)
    assert all(result == first for result in rest)
