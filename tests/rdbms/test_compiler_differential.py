"""The one expression compiler, against the reference evaluator.

A fixed corpus covering every node type and every specialised code shape
(literal on either side of a comparison, literal BETWEEN bounds, constant
LIKE patterns, string needles of ``= ANY``, lazy ``COALESCE`` / ``IN``,
hoisted and lazy specialised calls) over rows of deliberately mixed
types.  The property-based version of the same check is
``test_compiler_properties.py`` (stress lane).
"""

import pytest

from repro.rdbms.cost import CostCounters
from repro.rdbms.errors import ExecutionError
from repro.rdbms.expressions import (
    _FACTORIES,
    ColumnRef,
    FunctionCall,
    Literal,
    SchemaResolver,
    Star,
    compile_expr,
)
from repro.rdbms.sql.parser import parse_expression
from repro.rdbms.vectorized import BatchProgram, compile_batch, rebatch, staged

from .differential import SCHEMA, RecordingFamily, check, registry

ROWS = [
    # a      b      s       arr                  flag   m
    (1,      2,     "ab",   ["x", "ab", 1],      True,  None),
    (2,      2.0,   "a%",   [1, 2.0, None],      False, "5"),
    (None,   0,     None,   None,                None,  5),
    (3.5,    None,  "5",    [],                  True,  [1, "a"]),
    (True,   1,     "",     [True, False],       None,  2.5),
    ("ab",   "ab",  "ab",   "not an array",      False, False),
    (0,      -1,    "xyz",  [[1], [2]],          True,  b"\x00"),
    (7,      3,     "AB",   ["AB", "ab"],        False, 0),
]

CORPUS = [
    # comparisons: column/column, literal on either side, every bracket
    "a = b", "a <> b", "a < b", "a >= b", "m = m",
    "a = 2", "2 = a", "a < 2", "2 < a", "a >= 2.0", "a <> 2", "a != 2",
    "s = 'ab'", "'ab' = s", "s > 'a'", "'b' > s", "s <> 'ab'",
    "flag = true", "false <> flag", "flag < true", "m = 5", "m = '5'", "m = false",
    "a = NULL", "NULL < a", "1 = 1", "'a' < 2", "1 < 2.5",
    # logic
    "a = 1 AND b = 2", "a = 1 OR b = 2", "NOT a = 1", "NOT flag", "flag AND m",
    "a IS NULL", "a IS NOT NULL", "(a = 1) IS NULL",
    # arithmetic (errors on non-numbers included)
    "a + b", "a - 1", "b * 2", "a / b", "a % 2", "7 / 2", "6 / 3", "s || s", "a || 'z'",
    "-a", "+a", "-s", "a / 0",
    # BETWEEN: literal bounds of one bracket, mixed, NULL, column bounds
    "a BETWEEN 1 AND 3", "a NOT BETWEEN 1 AND 3", "s BETWEEN 'a' AND 'b'",
    "a BETWEEN 1 AND 'z'", "a BETWEEN NULL AND 3", "a BETWEEN 5 AND NULL",
    "a BETWEEN b AND 3", "m BETWEEN 0 AND 9", "2 BETWEEN a AND b",
    # IN: literal items, NULL items, column items, negated, lazily evaluated
    "a IN (1, 2, 3)", "a NOT IN (1, 2)", "a IN (1, NULL)", "a NOT IN (5, NULL)",
    "s IN ('ab', 'zz', 5)", "a IN (b, 1)", "a IN (ident(b), ident(1))", "m IN (5, '5', false)",
    "a IN (NULL)", "NULL IN (1)",
    # LIKE: constant and computed patterns
    "s LIKE 'a%'", "s NOT LIKE 'a_'", "s LIKE s", "a LIKE '1'", "s LIKE NULL", "s LIKE m",
    # COALESCE: laziness shows in the UDF count
    "COALESCE(a, b)", "COALESCE(m, ident(a), ident(b))", "COALESCE(NULL, NULL)",
    "COALESCE(a, 0) = 0",
    # casts (errors abort)
    "s::integer", "a::text", "flag::integer", "m::real", "CAST(b AS boolean)",
    # = ANY: string needle, numeric needle, column needle, not an array
    "'ab' = ANY(arr)", "1 = ANY(arr)", "2 = ANY(arr)", "true = ANY(arr)",
    "a = ANY(arr)", "s = ANY(arr)", "NULL = ANY(arr)", "'ab' = ANY(s)", "'ab' = ANY(NULL)",
    # calls: built-in, counted, specialised (hoisted, lazy, nested)
    "length(s)", "ident(a)", "ident(ident(a)) = a", "upper(s) = 'AB'",
    "spec(s, 'k1')", "spec(s, 'k1') = spec(s, 'k2')", "COALESCE(a, spec(s, 'k1'))",
    "spec(m, 'k') IS NULL", "a IN (spec(s, 'k'), 1)", "spec(ident(s), 'k')",
    "spec(s, 'k') LIKE 'spec%'",
]


@pytest.mark.parametrize("sql", CORPUS)
def test_corpus(sql):
    check(parse_expression(sql), ROWS)


def test_corpus_covers_every_node_type():
    from repro.rdbms import expressions

    seen = {type(node) for sql in CORPUS for node in parse_expression(sql).walk()}
    assert seen == set(expressions._EMITTERS)


def test_empty_batch_and_empty_coalesce():
    from repro.rdbms.expressions import Coalesce

    check(parse_expression("a = 1"), [])
    check(Coalesce(()), ROWS[:2])


def test_uncompilable_node_is_an_execution_error():
    resolver = SchemaResolver(SCHEMA, registry(CostCounters(), RecordingFamily()))
    with pytest.raises(ExecutionError, match="cannot compile"):
        compile_expr(Star(), resolver)
    with pytest.raises(ExecutionError, match="cannot compile"):
        compile_batch((Star(),), resolver)


class TestSpecialisedCalls:
    """How the compiler uses the ``ScalarFunction.specializer`` hook."""

    def setup_method(self):
        self.counters = CostCounters()
        self.family = RecordingFamily()
        self.resolver = SchemaResolver(SCHEMA, registry(self.counters, self.family))

    def test_calls_on_one_column_are_one_batch_pass(self):
        exprs = [parse_expression(f"spec(s, 'k{i}')") for i in range(3)]
        stage = compile_batch(exprs, self.resolver).bind(self.counters)
        out = stage(ROWS)
        assert self.family.binds == [[("spec", (f"k{i}",)) for i in range(3)]]
        assert (self.family.column_calls, self.family.one_calls) == (1, 0)
        assert out[0] == ("spec:k0:'ab'", "spec:k1:'ab'", "spec:k2:'ab'")
        assert out[2] == (None, None, None)
        assert self.counters.udf_calls == 3 * len(ROWS)

    def test_different_columns_are_different_passes(self):
        exprs = [parse_expression("spec(s, 'k')"), parse_expression("spec(m, 'k')")]
        compile_batch(exprs, self.resolver).bind(self.counters)(ROWS)
        assert self.family.binds == [[("spec", ("k",))], [("spec", ("k",))]]
        assert self.family.column_calls == 2

    def test_lazy_call_runs_per_row_and_only_where_needed(self):
        expr = parse_expression("COALESCE(a, spec(s, 'k'))")
        out = compile_batch((expr,), self.resolver).bind(self.counters)(ROWS)
        nulls = sum(1 for row in ROWS if row[0] is None)
        assert (self.family.column_calls, self.family.one_calls) == (0, nulls)
        assert self.counters.udf_calls == nulls
        assert out[2] == (None,) and out[0] == (1,)

    @pytest.mark.parametrize(
        "sql",
        ["COALESCE(spec(m, 'k0'), spec(s, 'k1'))", "spec(s, 'k0') IN (spec(m, 'k1'), spec(s, 'k2'))"],
    )
    def test_only_the_call_every_row_reaches_is_hoisted(self, sql):
        expr = parse_expression(sql)
        by_row_counters = CostCounters()
        by_row_family = RecordingFamily()
        fn = compile_expr(
            expr, SchemaResolver(SCHEMA, registry(by_row_counters, by_row_family))
        )
        by_row = [fn(row) for row in ROWS]
        out = compile_batch((expr,), self.resolver).bind(self.counters)(ROWS)
        assert [value for (value,) in out] == by_row
        # the k0 call is one batch pass; a call in a later arm costs what
        # it cost row by row, running only where the question was still open
        later = by_row_family.one_calls - len(ROWS)
        assert 0 < later < (len(self.family.binds) - 1) * len(ROWS)
        assert self.family.binds[-1] == [("spec", ("k0",))]
        assert (self.family.column_calls, self.family.one_calls) == (1, later)
        assert self.counters.udf_calls == by_row_counters.udf_calls == len(ROWS) + later

    def test_row_form_calls_per_row(self):
        fn = compile_expr(parse_expression("spec(s, 'k')"), self.resolver)
        assert [fn(row) for row in ROWS[:2]] == ["spec:k:'ab'", "spec:k:'a%'"]
        assert (self.family.column_calls, self.family.one_calls) == (0, 2)

    def test_non_literal_argument_takes_the_plain_call(self):
        expr = FunctionCall("spec", (ColumnRef(None, "s"), ColumnRef(None, "m")))
        fn = compile_expr(expr, self.resolver)
        assert fn(ROWS[1]) == "spec:5:'a%'"
        assert self.family.binds == []

    def test_binding_is_per_execution(self):
        program = compile_batch((parse_expression("spec(s, 'k')"),), self.resolver)
        first, second = CostCounters(), CostCounters()
        program.bind(first)(ROWS)
        program.bind(second)(ROWS[:3])
        assert len(self.family.binds) == 2
        assert (first.udf_calls, second.udf_calls, self.counters.udf_calls) == (8, 3, 0)


class TestSharedCode:
    """Literals are parameters: one code object per statement shape."""

    def compiled(self, sql):
        resolver = SchemaResolver(SCHEMA, registry(CostCounters(), RecordingFamily()))
        before = len(_FACTORIES)
        fn = compile_expr(parse_expression(sql), resolver)
        return fn, len(_FACTORIES) - before

    def test_fresh_literals_reuse_the_code(self):
        first, _ = self.compiled("s = 'one' AND a BETWEEN 1 AND 3")
        second, added = self.compiled("s = 'two' AND a BETWEEN 7 AND 9")
        assert added == 0
        assert first.__code__ is second.__code__
        assert first(("x", 0, "one", 0, 0, 0)) is None  # 'x' is no number
        assert second((8, 0, "two", 0, 0, 0)) is True

    def test_a_literal_of_another_type_is_another_shape(self):
        self.compiled("a = 1")
        _, added = self.compiled("a = 'one'")
        assert added <= 1
        fn, _ = self.compiled("a = 'one'")
        assert fn(("one", 0, 0, 0, 0, 0)) is True and fn((1, 0, 0, 0, 0, 0)) is False

    def test_batch_program_compiles_once_and_binds_per_run(self):
        resolver = SchemaResolver(SCHEMA, registry(CostCounters(), RecordingFamily()))
        program = BatchProgram(
            resolver,
            [parse_expression("a IS NOT NULL"), parse_expression("ident(b) = 2")],
            [parse_expression("s"), Literal(1)],
        )
        for _ in range(2):
            counters = CostCounters()
            chunks = [list(ROWS[:5]), [], list(ROWS[5:])]
            flow = rebatch(chunks, lambda: 3)
            for stage in program.bind(counters):
                flow = staged(stage, flow)
            batches = list(flow)
            assert [row for batch in batches for row in batch] == [("ab", 1), ("a%", 1)]
            # ident ran on the survivors of the first predicate only
            assert counters.udf_calls == sum(1 for row in ROWS if row[0] is not None)
