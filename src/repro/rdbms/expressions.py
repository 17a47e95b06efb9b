"""Expression AST, three-valued-logic evaluation, and compilation.

Expressions appear in SELECT lists, WHERE/HAVING predicates, join
conditions, GROUP BY and ORDER BY keys, and UPDATE assignments.  The
evaluator implements SQL semantics:

* NULL propagates through arithmetic, comparison, LIKE and BETWEEN;
* AND/OR use Kleene three-valued logic;
* ``COALESCE`` evaluates arguments lazily (this matters for Sinew's dirty
  columns, where the second argument is a reservoir-extraction UDF that
  would be wasted work when the physical column already has the value);
* casts raise :class:`~repro.rdbms.errors.TypeCastError` exactly like
  PostgreSQL, aborting the query.

For execution, expressions are *compiled*: one compiler
(:func:`compile_program`) turns a tree into Python source specialised on
what the statement makes known, with two entry points -- ``compile_expr``
for a closure over one row tuple, ``repro.rdbms.vectorized.compile_batch``
for one loop over a batch of them.  Comparisons decide "equal" and "in
order" by the engine's one collation (:func:`repro.rdbms.types.collation_key`);
values of different type brackets are never equal and have no order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional, Sequence

from .cost import CostCounters
from .errors import ExecutionError
from .types import (
    ARRAY,
    BRACKET_TYPES,
    BRACKETS,
    BYTES,
    OTHER,
    TEXT,
    SqlType,
    bracket,
    cast_value,
    collation_key,
)

Row = tuple
CompiledExpr = Callable[[Row], Any]


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression AST nodes.

    Every concrete node carries an optional ``span`` -- the ``(start, end)``
    character range it covers in the original SQL text -- populated by the
    parser and consumed by diagnostics.  Spans are excluded from equality
    and repr so that structurally identical expressions from different
    source locations still compare equal (the planner's subtree-replacement
    machinery depends on that).
    """

    span: tuple[int, int] | None = None

    def children(self) -> Iterator["Expr"]:
        return iter(())

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (string, number, boolean, or NULL)."""

    value: Any
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A (possibly qualified) column reference.

    ``table`` is the alias qualifier (``t1`` in ``t1."user.id"``) or None.
    ``name`` may contain dots when the logical attribute is a flattened
    nested key (``user.id``) -- Sinew's universal relation exposes those as
    ordinary quoted identifiers.
    """

    table: str | None
    name: str
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        quoted = f'"{self.name}"' if _needs_quotes(self.name) else self.name
        return f"{self.table}.{quoted}" if self.table else quoted


@dataclass(frozen=True)
class Star(Expr):
    """``*`` or ``alias.*`` in a SELECT list."""

    table: str | None = None
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic, comparison, logical, or concatenation operator."""

    op: str
    left: Expr
    right: Expr
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.left
        yield self.right

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """``NOT expr`` or unary minus."""

    op: str
    operand: Expr
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __str__(self) -> str:
        return f"({self.op} {self.operand})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __str__(self) -> str:
        return f"({self.operand} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``.

    Kept as a dedicated node (rather than desugared to two comparisons) so
    the operand is evaluated once per row.  The paper notes MongoDB
    precomputes the tested value while Postgres re-evaluates it for each
    bound; our Sinew build follows the single-evaluation behaviour.
    """

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield self.low
        yield self.high

    def __str__(self) -> str:
        not_part = "NOT " if self.negated else ""
        return f"({self.operand} {not_part}BETWEEN {self.low} AND {self.high})"


@dataclass(frozen=True)
class InList(Expr):
    """``expr [NOT] IN (item, ...)``."""

    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield from self.items

    def __str__(self) -> str:
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {'NOT ' if self.negated else ''}IN ({inner}))"


@dataclass(frozen=True)
class Like(Expr):
    """``expr [NOT] LIKE pattern`` with %/_ wildcards."""

    operand: Expr
    pattern: Expr
    negated: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield self.pattern

    def __str__(self) -> str:
        return f"({self.operand} {'NOT ' if self.negated else ''}LIKE {self.pattern})"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Scalar or aggregate function invocation.

    Whether the name denotes an aggregate is decided by the function
    registry at planning time, not here.
    """

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield from self.args

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.name}({distinct}{inner})"


@dataclass(frozen=True)
class Coalesce(Expr):
    """``COALESCE(a, b, ...)`` with lazy argument evaluation."""

    args: tuple[Expr, ...]
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield from self.args

    def __str__(self) -> str:
        return f"COALESCE({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Cast(Expr):
    """``CAST(expr AS type)`` / ``expr::type``; raises on malformed input."""

    operand: Expr
    target: SqlType
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __str__(self) -> str:
        return f"CAST({self.operand} AS {self.target})"


@dataclass(frozen=True)
class AnyPredicate(Expr):
    """``scalar = ANY (array_expr)`` -- NoBench Q8's array containment."""

    needle: Expr
    haystack: Expr
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def children(self) -> Iterator[Expr]:
        yield self.needle
        yield self.haystack

    def __str__(self) -> str:
        return f"({self.needle} = ANY ({self.haystack}))"


_IDENTIFIER_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def _needs_quotes(name: str) -> bool:
    return not _IDENTIFIER_RE.match(name)


def replace_children(expr: Expr, children: Sequence[Expr]) -> Expr:
    """``expr`` with new children, given in :meth:`Expr.children` order."""
    if type(expr) is BinaryOp:
        return BinaryOp(expr.op, children[0], children[1], expr.span)
    if type(expr) is FunctionCall:
        return FunctionCall(expr.name, tuple(children), expr.distinct, expr.span)
    if type(expr) is Between:
        return Between(children[0], children[1], children[2], expr.negated, expr.span)
    if type(expr) is InList:
        return InList(children[0], tuple(children[1:]), expr.negated, expr.span)
    if type(expr) is Like:
        return Like(children[0], children[1], expr.negated, expr.span)
    if type(expr) is IsNull:
        return IsNull(children[0], expr.negated, expr.span)
    if type(expr) is UnaryOp:
        return UnaryOp(expr.op, children[0], expr.span)
    if type(expr) is AnyPredicate:
        return AnyPredicate(children[0], children[1], expr.span)
    if type(expr) is Coalesce:
        return Coalesce(tuple(children), expr.span)
    if type(expr) is Cast:
        return Cast(children[0], expr.target, expr.span)
    return expr


# ---------------------------------------------------------------------------
# Runtime helpers of generated code
# ---------------------------------------------------------------------------


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
        raise ExecutionError(
            f"operator {op!r} requires numeric operands, got "
            f"{type(left).__name__} and {type(right).__name__}"
        )
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            raise ExecutionError("division by zero")
        if isinstance(left, int) and isinstance(right, int):
            return left // right if (left % right == 0) else left / right
        return left / right
    if op == "%":
        if right == 0:
            raise ExecutionError("division by zero")
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern into an anchored regular expression."""
    out: list[str] = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class Resolver:
    """Maps column references to positions in the runtime row tuple."""

    def resolve(self, ref: ColumnRef) -> int:
        raise NotImplementedError

    def resolve_function(self, name: str):
        """Return the scalar-function implementation for ``name``."""
        raise NotImplementedError


class SchemaResolver(Resolver):
    """Resolver over a flat list of (qualifier, name) output columns.

    Used by operators whose input row layout is a concatenation of base
    table columns (scans, joins).  Raises on genuinely ambiguous unqualified
    references, as a SQL engine must.
    """

    def __init__(self, columns: Sequence[tuple[str | None, str]], functions=None):
        self.columns = list(columns)
        self._functions = functions
        self._by_name: dict[str, list[int]] = {}
        self._by_qualified: dict[tuple[str, str], int] = {}
        for position, (qualifier, name) in enumerate(self.columns):
            self._by_name.setdefault(name, []).append(position)
            if qualifier is not None:
                self._by_qualified[(qualifier, name)] = position

    def resolve(self, ref: ColumnRef) -> int:
        if ref.table is not None:
            key = (ref.table, ref.name)
            if key in self._by_qualified:
                return self._by_qualified[key]
            raise ExecutionError(f"no such column: {ref.table}.{ref.name}")
        positions = self._by_name.get(ref.name, [])
        if len(positions) == 1:
            return positions[0]
        if not positions:
            raise ExecutionError(f"no such column: {ref.name!r}")
        raise ExecutionError(f"ambiguous column reference: {ref.name!r}")

    def resolve_function(self, name: str):
        if self._functions is None:
            raise ExecutionError(f"no function registry available for {name!r}")
        return self._functions.scalar(name)


# One compiler turns an expression tree into Python source, once per node
# type, and the source into a function.  What is known when a statement is
# compiled is decided then: which comparison operator, the type class of a
# literal operand (so ``col = 'lit'`` is one guarded native comparison),
# whether a LIKE pattern is constant, whether a function offers a
# specialised form.  Literal *values* stay parameters of the generated
# code, so every statement of the same shape shares one code object.

#: factories built from generated source, keyed by the source text
_FACTORIES: dict[str, Callable[..., Callable]] = {}
_MAX_FACTORIES = 512

#: what generated code may name besides its parameters and the builtins
_NAMESPACE = {
    "BRACKET": BRACKETS.get,
    "KEY": collation_key,
    **{f"B{rank}": kinds for rank, kinds in BRACKET_TYPES.items()},
    "SEQ": (list, tuple),
    "ONCE": (None,),
    "arith": _arith,
    "cast": cast_value,
    "like": like_to_regex,
}

_PYTHON_OPERATOR = {
    "=": "==", "<>": "!=", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}
_MIRRORED = {"==": "==", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
#: the result of comparing across type brackets
_MISMATCH = {"==": "False", "!=": "True"}
#: scalar bracket -> test that a runtime value is in it; two values of one
#: scalar bracket compare natively as their collation keys do
_GUARD = {
    rank: (f"type({{0}}) is {kinds[0].__name__}" if len(kinds) == 1 else f"type({{0}}) in B{rank}")
    for rank, kinds in BRACKET_TYPES.items()
}

#: what emitting a node yields: the source of its value, and for a literal
#: the class the generated comparisons specialise on
Operand = tuple[str, Optional[Any]]


def _literal_class(value: Any) -> int | str | None:
    """The bracket of a literal when it is a scalar one the generated code
    tests with a guard, ``"null"`` for NULL; None leaves it to the general
    comparison."""
    if value is None:
        return "null"
    rank = bracket(value)
    return rank if rank in _GUARD else None


class _Emitter:
    """Writes the statements that evaluate expressions for one row, the
    tuple ``row``.

    Emitting a node appends what it needs computed first and returns the
    source of its value: an expression to use once, or -- after
    :meth:`atom` -- a name that is cheap to repeat.
    """

    def __init__(self, resolver: Resolver, batch: bool):
        self.resolver = resolver
        #: a batch stage: calls with a specialised form whose value
        #: argument is a column are hoisted out of the row loop
        self.batch = batch
        self.lines: list[str] = []
        self.depth = 3 if batch else 2
        #: values of the factory's parameters ``a0, a1, ...``
        self.args: list[Any] = []
        self.temps = 0
        #: > 0 while emitting code that does not run for every row
        self.lazy = 0
        #: specialised calls evaluated per row: ``s<i>`` = one call
        self.sites: list[tuple[Any, list]] = []
        #: specialised calls evaluated per batch: (family, column position)
        #: -> (family, position, requests); ``g<i>`` = all calls of group i
        self.groups: dict[tuple[int, int], tuple[Any, int, list]] = {}
        self.counters: CostCounters | None = None

    # -- writing ------------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)

    def param(self, value: Any) -> str:
        self.args.append(value)
        return f"a{len(self.args) - 1}"

    def temp(self, source: str) -> str:
        self.temps += 1
        name = f"t{self.temps}"
        self.line(f"{name} = {source}")
        return name

    def atom(self, source: str) -> str:
        return source if source.isidentifier() else self.temp(source)

    # -- nodes --------------------------------------------------------------

    def emit(self, node: Expr) -> Operand:
        method = _EMITTERS.get(type(node))
        if method is None:
            raise ExecutionError(f"cannot compile expression node {type(node).__name__}")
        return method(self, node)

    def value(self, node: Expr) -> str:
        return self.atom(self.emit(node)[0])

    def literal(self, node: Literal) -> Operand:
        kind = _literal_class(node.value)
        return ("None" if kind == "null" else self.param(node.value)), kind

    def column(self, node: ColumnRef) -> Operand:
        return f"row[{self.resolver.resolve(node)}]", None

    def binary(self, node: BinaryOp) -> Operand:
        op = node.op
        left_source, left_class = self.emit(node.left)
        left = self.atom(left_source), left_class
        right_source, right_class = self.emit(node.right)
        right = self.atom(right_source), right_class
        if op == "AND":
            return self.kleene_and(left[0], right[0]), None
        if op == "OR":
            a, b = left[0], right[0]
            return self.temp(
                f"True if ({a} is True or {b} is True) "
                f"else (None if ({a} is None or {b} is None) else False)"
            ), None
        if op in _PYTHON_OPERATOR:
            return self.compare(_PYTHON_OPERATOR[op], left, right)
        return self.temp(f"arith({op!r}, {left[0]}, {right[0]})"), None

    def kleene_and(self, a: str, b: str) -> str:
        return self.temp(
            f"False if ({a} is False or {b} is False) "
            f"else (None if ({a} is None or {b} is None) else True)"
        )

    def compare(self, op: str, left: Operand, right: Operand) -> Operand:
        """SQL comparison of two atoms (``op`` already a Python operator):
        NULL propagates, values of two brackets are unequal and unordered,
        scalars of one bracket compare natively, arrays by their
        collation keys."""
        (a, a_class), (b, b_class) = left, right
        if a_class == "null" or b_class == "null":
            return "None", "null"
        if a_class in _GUARD and b_class not in _GUARD:
            a, b, b_class, op = b, a, a_class, _MIRRORED[op]
        miss = _MISMATCH.get(op, "None")
        if b_class in _GUARD:
            # one operand's bracket is known: a single guarded comparison
            guard = _GUARD[b_class].format(a)
            other = "None" if miss == "None" else f"(None if {a} is None else {miss})"
            return self.temp(f"({a} {op} {b}) if {guard} else {other}"), None
        self.temps += 1
        name, rank = f"t{self.temps}", f"r{self.temps}"
        self.line(f"if {a} is None or {b} is None: {name} = None")
        self.line(
            f"elif ({rank} := BRACKET(type({a}), {OTHER})) != BRACKET(type({b}), {OTHER}): "
            f"{name} = {miss}"
        )
        self.line(f"elif {rank} < {ARRAY}: {name} = {a} {op} {b}")
        self.line(f"else: {name} = KEY({a}) {op} KEY({b})")
        return name, None

    def negate(self, source: str, negated: bool) -> str:
        return self.temp(f"None if {source} is None else not {source}") if negated else source

    def unary(self, node: UnaryOp) -> Operand:
        if node.op == "+":
            return self.emit(node.operand)
        operand = self.value(node.operand)
        if node.op == "NOT":
            return self.negate(operand, True), None
        if node.op == "-":
            return self.temp(f"None if {operand} is None else -{operand}"), None
        raise ExecutionError(f"unknown unary operator {node.op!r}")

    def is_null(self, node: IsNull) -> Operand:
        operand = self.emit(node.operand)[0]
        return self.temp(f"{operand} is {'not ' if node.negated else ''}None"), None

    def between(self, node: Between) -> Operand:
        operand = self.value(node.operand), None
        low_source, low_class = self.emit(node.low)
        low = self.atom(low_source), low_class
        high_source, high_class = self.emit(node.high)
        high = self.atom(high_source), high_class
        if low_class == high_class and low_class in _GUARD:
            guard = _GUARD[low_class].format(operand[0])
            result = self.temp(f"({low[0]} <= {operand[0]} <= {high[0]}) if {guard} else None")
        else:
            result = self.kleene_and(
                self.compare(">=", operand, low)[0], self.compare("<=", operand, high)[0]
            )
        return self.negate(result, node.negated), None

    def in_list(self, node: InList) -> Operand:
        operand = self.value(node.operand), None
        if not node.items:
            return self.temp(f"None if {operand[0]} is None else {node.negated}"), None
        self.temps += 1
        name, saw_null = f"t{self.temps}", f"n{self.temps}"
        self.line(f"{name} = None")
        self.line(f"if {operand[0]} is not None:")
        self.depth += 1
        self.lazy += 1
        self.line(f"{saw_null} = False")
        # items are evaluated in order, and only until one matches
        self.line("for _ in ONCE:")
        self.depth += 1
        for item in node.items:
            candidate_source, candidate_class = self.emit(item)
            if candidate_class == "null":
                self.line(f"{saw_null} = True")
                continue
            candidate = self.atom(candidate_source)
            if candidate_class is None:
                self.line(f"if {candidate} is None: {saw_null} = True")
                self.line("else:")
                self.depth += 1
            matched = self.compare("==", operand, (candidate, candidate_class))[0]
            self.line(f"if {matched} is True:")
            self.line(f"    {name} = {not node.negated}")
            self.line("    break")
            if candidate_class is None:
                self.depth -= 1
        self.depth -= 1
        self.line("else:")
        self.line(f"    {name} = None if {saw_null} else {node.negated}")
        self.lazy -= 1
        self.depth -= 1
        return name, None

    def like_node(self, node: Like) -> Operand:
        operand = self.value(node.operand)
        verdict = "is None" if node.negated else "is not None"
        if isinstance(node.pattern, Literal) and isinstance(node.pattern.value, str):
            regex = self.param(like_to_regex(node.pattern.value))
            return self.temp(
                f"None if {operand} is None else {regex}.match(str({operand})) {verdict}"
            ), None
        pattern = self.value(node.pattern)
        return self.temp(
            f"None if ({operand} is None or {pattern} is None) "
            f"else like(str({pattern})).match(str({operand})) {verdict}"
        ), None

    def coalesce(self, node: Coalesce) -> Operand:
        # arguments after the first run only where all before them are NULL
        # (the dirty-column contract: the extraction bridge must not run
        # for rows whose physical column already has the value)
        self.temps += 1
        name = f"t{self.temps}"
        opened = 0
        for index, argument in enumerate(node.args):
            self.line(f"{name} = {self.emit(argument)[0]}")
            if index + 1 < len(node.args):
                self.line(f"if {name} is None:")
                self.depth += 1
                self.lazy += 1
                opened += 1
        self.depth -= opened
        self.lazy -= opened
        if not node.args:
            self.line(f"{name} = None")
        return name, None

    def cast_node(self, node: Cast) -> Operand:
        operand = self.emit(node.operand)[0]
        return self.temp(f"cast({operand}, {self.param(node.target)})"), None

    def any_node(self, node: AnyPredicate) -> Operand:
        needle_source, needle_class = self.emit(node.needle)
        needle = self.atom(needle_source), needle_class
        array = self.value(node.haystack)
        if needle_class == "null":
            return "None", "null"
        if needle_class in (TEXT, BYTES):
            # an element of another type never equals a string
            return self.temp(
                f"({needle[0]} in {array}) if isinstance({array}, SEQ) else None"
            ), None
        self.temps += 1
        name = f"t{self.temps}"
        self.line(f"if {needle[0]} is None or not isinstance({array}, SEQ): {name} = None")
        self.line("else:")
        self.depth += 1
        self.line(f"{name} = False")
        element = f"e{self.temps}"
        self.line(f"for {element} in {array}:")
        self.depth += 1
        matched = self.compare("==", needle, (element, None))[0]
        self.line(f"if {matched} is True:")
        self.line(f"    {name} = True")
        self.line("    break")
        self.depth -= 2
        return name, None

    def call(self, node: FunctionCall) -> Operand:
        implementation = self.resolver.resolve_function(node.name)
        if implementation.counts_as_udf and implementation.counters is not None:
            self.counters = implementation.counters
            self.line("u += 1")
        hook = implementation.specializer
        if (
            hook is None
            or len(node.args) < 2
            or not all(isinstance(argument, Literal) for argument in node.args[1:])
        ):
            arguments = ", ".join([self.emit(argument)[0] for argument in node.args])
            return self.temp(f"{self.param(implementation.fn)}({arguments})"), None
        family, tag = hook
        request = (tag, tuple(argument.value for argument in node.args[1:]))
        subject = node.args[0]
        if self.batch and not self.lazy and isinstance(subject, ColumnRef):
            position = self.resolver.resolve(subject)
            key = (id(family), position)
            requests = self.groups.setdefault(key, (family, position, []))[2]
            requests.append(request)
            return f"x{list(self.groups).index(key)}_{len(requests) - 1}", None
        self.sites.append((family, [request]))
        return self.temp(f"s{len(self.sites) - 1}({self.emit(subject)[0]})"), None


_EMITTERS: dict[type, Callable[[_Emitter, Any], Operand]] = {
    Literal: _Emitter.literal,
    ColumnRef: _Emitter.column,
    BinaryOp: _Emitter.binary,
    UnaryOp: _Emitter.unary,
    IsNull: _Emitter.is_null,
    Between: _Emitter.between,
    InList: _Emitter.in_list,
    Like: _Emitter.like_node,
    Coalesce: _Emitter.coalesce,
    Cast: _Emitter.cast_node,
    AnyPredicate: _Emitter.any_node,
    FunctionCall: _Emitter.call,
}


class Program:
    """Compiled expressions, built once per statement.

    :meth:`bind` makes the callable for one execution -- a query on its
    calling thread: it charges UDF calls to that
    execution's counters and lets each specialised function family
    resolve its calls against the state of that moment.
    """

    __slots__ = ("_make", "_args", "_specialised", "_counters")

    def __init__(self, source: str, emitter: _Emitter):
        make = _FACTORIES.get(source)
        if make is None:
            namespace = dict(_NAMESPACE)
            try:
                exec(compile(source, "<compiled expression>", "exec"), namespace)
            except (SyntaxError, RecursionError, MemoryError) as error:
                if isinstance(error, SyntaxError) and "nested" not in str(error):
                    raise
                raise ExecutionError(f"expression is too deeply nested: {error}") from None
            make = namespace["make"]
            if len(_FACTORIES) >= _MAX_FACTORIES:
                _FACTORIES.clear()
            _FACTORIES[source] = make
        self._make = make
        self._args = emitter.args
        self._specialised = [(family, requests, "one") for family, requests in emitter.sites]
        self._specialised += [
            (family, requests, "columns")
            for family, _position, requests in emitter.groups.values()
        ]
        self._counters = emitter.counters

    def bind(self, counters: CostCounters | None = None) -> Callable:
        bound = [
            getattr(family.bind(requests), form)
            for family, requests, form in self._specialised
        ]
        if self._counters is not None:
            bound.append(self._counters if counters is None else counters)
        return self._make(*self._args, *bound)


def compile_program(exprs: Sequence[Expr], resolver: Resolver, shape: str) -> Program:
    """Compile ``exprs`` over one row layout into a :class:`Program`.

    ``shape`` says what the bound callable is:

    * ``"row"`` -- ``fn(row) -> value`` of the single expression;
    * ``"filter"`` -- ``stage(rows) -> rows`` keeping those for which the
      single expression is TRUE;
    * ``"map"`` -- ``stage(rows) -> [(value, ...), ...]``, one tuple of all
      expressions per row.

    The two batch shapes evaluate their expressions in one loop over the
    batch; exactly the rows given are evaluated, in order.
    """
    batch = shape != "row"
    emitter = _Emitter(resolver, batch)
    results = [emitter.emit(expr)[0] for expr in exprs]
    counted = emitter.counters is not None
    names = [f"a{index}" for index in range(len(emitter.args))]
    names += [f"s{index}" for index in range(len(emitter.sites))]
    names += [f"g{index}" for index in range(len(emitter.groups))]
    if counted:
        names.append("C")
    head = [f"def make({', '.join(names)}):"]
    if not batch:
        head.append("    def run(row):")
        if counted:
            head.append("        u = 0")
            emitter.line("C.udf_calls += u")
        emitter.line(f"return {results[0]}")
        tail = ["    return run"]
    else:
        if shape == "filter":
            emitter.line(f"if {results[0]} is True: append(row)")
        else:
            emitter.line(f"append(({''.join(result + ', ' for result in results)}))")
        head += ["    def run(rows):", "        out = []", "        append = out.append"]
        # each group's calls, evaluated for the whole batch before the loop
        # and zipped into it: ``x<group>_<call>`` is the row's value
        feeds, targets = ["rows"], ["row"]
        for index, (_family, position, requests) in enumerate(emitter.groups.values()):
            calls = range(len(requests))
            columns = [f"c{index}_{call}" for call in calls]
            head.append(
                f"        {', '.join(columns)}, = g{index}([row[{position}] for row in rows])"
            )
            feeds += columns
            targets += [f"x{index}_{call}" for call in calls]
        if counted:
            head.append("        u = 0")
        if len(feeds) > 1:
            head.append(f"        for {', '.join(targets)} in zip({', '.join(feeds)}):")
        else:
            head.append("        for row in rows:")
        tail = ["        C.udf_calls += u"] if counted else []
        tail += ["        return out", "    return run"]
    return Program("\n".join(head + emitter.lines + tail) + "\n", emitter)


def compile_expr(expr: Expr, resolver: Resolver) -> CompiledExpr:
    """Compile an expression tree into a closure ``row -> value``.

    The row form of the compiler, bound at once: UDF calls are charged
    to the registry's counters.
    """
    return compile_program((expr,), resolver, "row").bind()


def contains_function_call(expr: Expr) -> bool:
    """True when any node in the tree is a function call.

    The planner uses this to fall back to the fixed default selectivity for
    predicates the statistics subsystem cannot see through -- the exact
    behaviour the paper exploits in Table 2 (virtual columns are invisible
    to the optimizer because they hide behind ``extract_key`` UDF calls).
    The cost model asks it once more per ``Filter``, so it recurses
    directly instead of through the generator of :meth:`Expr.walk`.
    """
    if isinstance(expr, FunctionCall):
        return True
    for child in expr.children():
        if contains_function_call(child):
            return True
    return False


def referenced_columns(expr: Expr) -> list[ColumnRef]:
    """All column references in the tree, in pre-order."""
    return [node for node in expr.walk() if isinstance(node, ColumnRef)]
