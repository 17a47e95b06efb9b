"""A tree-walking reference evaluator for the expression AST.

What the compiler in :mod:`repro.rdbms.expressions` is tested against: no
code generation, no specialisation, one recursive ``evaluate`` that spells
every node's SQL semantics out over the helpers the engine documents them
with (``_compare``, ``_arith``, ``_kleene_and``, ``_kleene_or``).  Kept
deliberately naive -- it is the specification, not an implementation.
"""

from __future__ import annotations

from typing import Any

from repro.rdbms.errors import ExecutionError
from repro.rdbms.expressions import (
    AnyPredicate,
    Between,
    BinaryOp,
    Cast,
    Coalesce,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Resolver,
    UnaryOp,
    _arith,
    _compare,
    _kleene_and,
    _kleene_or,
    like_to_regex,
)
from repro.rdbms.types import cast_value

COMPARISONS = ("=", "<>", "!=", "<", "<=", ">", ">=")


class Calls:
    """Counts the calls of counted (UDF) functions an evaluation makes."""

    def __init__(self) -> None:
        self.udf = 0


def evaluate(expr: Expr, row: tuple, resolver: Resolver, calls: Calls) -> Any:
    """The value of ``expr`` for ``row`` (columns through ``resolver``)."""

    def go(node: Expr) -> Any:
        return evaluate(node, row, resolver, calls)

    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[resolver.resolve(expr)]
    if isinstance(expr, BinaryOp):
        # both operands always run: AND/OR are not short-circuit here
        left, right = go(expr.left), go(expr.right)
        if expr.op == "AND":
            return _kleene_and(left, right)
        if expr.op == "OR":
            return _kleene_or(left, right)
        if expr.op in COMPARISONS:
            return _compare(expr.op, left, right)
        return _arith(expr.op, left, right)
    if isinstance(expr, UnaryOp):
        value = go(expr.operand)
        if expr.op == "+":
            return value
        if value is None:
            return None
        if expr.op == "NOT":
            return not value
        if expr.op == "-":
            return -value
        raise ExecutionError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, IsNull):
        return (go(expr.operand) is None) != expr.negated
    if isinstance(expr, Between):
        value, low, high = go(expr.operand), go(expr.low), go(expr.high)
        result = _kleene_and(_compare(">=", value, low), _compare("<=", value, high))
        return result if result is None or not expr.negated else not result
    if isinstance(expr, InList):
        value = go(expr.operand)
        if value is None:
            return None
        saw_null = False
        for item in expr.items:  # lazily: stop at the first match
            candidate = go(item)
            if candidate is None:
                saw_null = True
            elif _compare("=", value, candidate) is True:
                return not expr.negated
        return None if saw_null else expr.negated
    if isinstance(expr, Like):
        value, pattern = go(expr.operand), go(expr.pattern)
        if value is None or pattern is None:
            return None
        matched = like_to_regex(str(pattern)).match(str(value)) is not None
        return matched != expr.negated
    if isinstance(expr, Coalesce):
        for argument in expr.args:  # lazily: stop at the first non-NULL
            value = go(argument)
            if value is not None:
                return value
        return None
    if isinstance(expr, Cast):
        return cast_value(go(expr.operand), expr.target)
    if isinstance(expr, AnyPredicate):
        value, array = go(expr.needle), go(expr.haystack)
        if value is None or not isinstance(array, (list, tuple)):
            return None
        return any(_compare("=", value, element) is True for element in array)
    if isinstance(expr, FunctionCall):
        implementation = resolver.resolve_function(expr.name)
        if implementation.counts_as_udf:
            calls.udf += 1
        return implementation.fn(*[go(argument) for argument in expr.args])
    raise ExecutionError(f"cannot evaluate expression node {type(expr).__name__}")
