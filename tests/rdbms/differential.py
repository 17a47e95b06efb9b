"""Shared harness: row form == batch form == the reference evaluator.

``check(expr, rows)`` evaluates one expression three ways -- the compiled
row closure, the compiled batch stages (map and filter), and
:func:`tests.rdbms.reference_eval.evaluate` -- and requires the same
values *of the same types*, the same errors, and the same number of
counted UDF calls.  The registry holds one plain counted UDF (``ident``),
the built-ins, and ``spec(value, 'literal')``: a function with the
``ScalarFunction.specializer`` hook, backed by :class:`RecordingFamily`,
so the compiler's hoisting of specialised calls is exercised without any
Sinew code.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.rdbms.cost import CostCounters
from repro.rdbms.expressions import Expr, SchemaResolver, compile_expr
from repro.rdbms.functions import FunctionRegistry
from repro.rdbms.types import SqlType
from repro.rdbms.vectorized import compile_batch

from .reference_eval import Calls, evaluate

COLUMNS = ["a", "b", "s", "arr", "flag", "m"]
SCHEMA = [(None, name) for name in COLUMNS]


def spec_value(tag: str, literal: Any, value: Any) -> Any:
    return None if value is None else f"{tag}:{literal}:{value!r}"


class RecordingFamily:
    """A specializer family that records how it was used."""

    def __init__(self) -> None:
        self.binds: list[list] = []
        self.one_calls = 0
        self.column_calls = 0

    def bind(self, requests: Sequence[tuple[str, tuple]]) -> "_Bound":
        self.binds.append(list(requests))
        return _Bound(self, list(requests))


class _Bound:
    def __init__(self, family: RecordingFamily, requests: list):
        self.family = family
        self.requests = requests

    def one(self, value: Any) -> Any:
        self.family.one_calls += 1
        ((tag, (literal,)),) = self.requests
        return spec_value(tag, literal, value)

    def columns(self, values: Sequence[Any]) -> list[list[Any]]:
        self.family.column_calls += 1
        return [
            [spec_value(tag, literal, value) for value in values]
            for tag, (literal,) in self.requests
        ]


def registry(counters: CostCounters, family: RecordingFamily) -> FunctionRegistry:
    functions = FunctionRegistry(counters)
    functions.register_scalar("ident", lambda value: value, SqlType.TEXT)
    functions.register_scalar(
        "spec",
        lambda value, literal: spec_value("spec", literal, value),
        SqlType.TEXT,
        specializer=(family, "spec"),
    )
    return functions


def outcome(thunk) -> tuple[str, Any]:
    try:
        return "ok", thunk()
    except Exception as error:  # noqa: BLE001 - the error type is the outcome
        return "error", type(error)


def same(left: Any, right: Any) -> bool:
    """Equal values of equal types (``1``, ``1.0`` and ``True`` differ)."""
    if type(left) is not type(right):
        return False
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(same, left, right))
    return left == right


def check(expr: Expr, rows: list[tuple]) -> None:
    counters = CostCounters()
    family = RecordingFamily()
    resolver = SchemaResolver(SCHEMA, registry(counters, family))

    calls = Calls()
    expected = [outcome(lambda row=row: evaluate(expr, row, resolver, calls)) for row in rows]
    failed = [result for result in expected if result[0] == "error"]

    # row form: row by row, same value or same error; counted calls agree
    # whenever nothing raised (an error leaves counters unspecified)
    row_fn = compile_expr(expr, resolver)
    for row, wanted in zip(rows, expected):
        got = outcome(lambda: row_fn(row))
        assert got[0] == wanted[0], (str(expr), row, got, wanted)
        if got[0] == "ok":
            assert same(got[1], wanted[1]), (str(expr), row, got, wanted)
        else:
            assert got[1] is wanted[1], (str(expr), row, got, wanted)
    if not failed:
        assert counters.udf_calls == calls.udf, str(expr)

    # batch form: the whole batch, or the first failing row's error
    for keep in (False, True):
        private = CostCounters()
        stage = compile_batch((expr,), resolver, keep=keep).bind(private)
        got = outcome(lambda: stage(list(rows)))
        if failed:
            assert got == failed[0], (str(expr), keep, got, failed[0])
            continue
        assert got[0] == "ok", (str(expr), keep, got)
        if keep:
            assert got[1] == [
                row for row, result in zip(rows, expected) if result[1] is True
            ], (str(expr), got)
        else:
            assert len(got[1]) == len(rows)
            for (value,), wanted in zip(got[1], expected):
                assert same(value, wanted[1]), (str(expr), value, wanted)
        # charged to the bundle the stage was bound to, and only to it
        assert private.udf_calls == calls.udf, (str(expr), keep)
        assert counters.udf_calls == calls.udf, (str(expr), keep)
