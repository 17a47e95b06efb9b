"""The binder: one walk from a parsed statement to a bound one.

Sinew's query path is parse -> **bind** -> rewrite -> plan (paper section
3.2.2; DESIGN.md section 6).  The binder walks a SELECT, UPDATE or DELETE
once.  It binds each FROM table -- a Sinew collection or a plain RDBMS
table -- and resolves every column reference to a :class:`BoundColumn`
carrying its binding and the catalog state behind the name: each
attribute of that key in the table (virtual, dirty or physical) with its
type and occurrence count.  A reference costs dictionary lookups, never a
walk over the table's column states.  The same walk yields:

* **errors** (SNW1xx) that block execution: unknown tables, columns and
  functions, ambiguous references, aggregate misuse, arity and
  arithmetic-type faults;
* **warnings** (SNW2xx) that ride along with the result: unknown keys,
  extractions the occurrence counts prove NULL, multi-typed downcasts;
* **provably-NULL pruning**: a WHERE/HAVING predicate whose extraction is
  NULL on every row becomes ``NULL`` in the bound statement, so it costs
  no extraction UDF calls.

The proof obligation for pruning is strict: the expected extraction type
is the one the rewrite reads (derived here, once, from literal context),
and the catalog must show **zero** occurrences of any compatible type.
The rewrite reads a key in that type alone, from whichever side of a
materializer move holds each value, so the proof holds in every layout.
Counts never under-count (deletes leave them stale-high), so
``count == 0`` proves extraction yields NULL on every row, which makes
``NULL`` an *exact* replacement under SQL's three-valued logic -- in
WHERE, under NOT, under AND/OR alike.

The rewrite (:class:`repro.core.rewriter.QueryRewriter`) is a function
of the bound statement; ``SinewDB.lint`` and :func:`analyze` read only
its diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection

from ..rdbms.expressions import (
    AnyPredicate,
    Between,
    BinaryOp,
    Cast,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    replace_children,
)
from ..rdbms.functions import FunctionRegistry
from ..rdbms.sql.ast import (
    DeleteStatement,
    OrderItem,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from ..rdbms.sql.parser import parse
from ..rdbms.types import SqlType, infer_type
from . import diagnostics as d
from .diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.catalog import Attribute, ColumnState, SinewCatalog, TableCatalog
    from ..rdbms.database import Database
    from ..rdbms.storage import Schema

#: Column names present on every Sinew table regardless of the catalog.
ID_COLUMN = "_id"
RESERVOIR_COLUMN = "data"

_COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
_ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%"})
_NUMERIC_TYPES = frozenset({SqlType.INTEGER, SqlType.REAL})
_NUMERIC_AGGREGATES = frozenset({"sum", "avg"})
_TYPE_BY_NAME = {sql_type.value: sql_type for sql_type in SqlType}
_NULL = Literal(None)

#: Which stored attribute types a typed extraction can return non-NULL for
#: (numeric extraction reads INTEGER and REAL attributes, every other
#: extraction reads exactly its own type); the keys are the types that
#: have a typed extraction function.  The rewrite reads a reference in
#: context T from exactly the attributes of T's row, in every layout.
COMPATIBLE_TYPES = {
    SqlType.INTEGER: _NUMERIC_TYPES,
    SqlType.REAL: _NUMERIC_TYPES,
    SqlType.TEXT: frozenset({SqlType.TEXT}),
    SqlType.BOOLEAN: frozenset({SqlType.BOOLEAN}),
    SqlType.ARRAY: frozenset({SqlType.ARRAY}),
    SqlType.BYTEA: frozenset({SqlType.BYTEA}),
}

#: (min, max) argument counts for functions with fixed arity; ``None`` max
#: means variadic.  Names absent here are not arity-checked.
_ARITY: dict[str, tuple[int, int | None]] = {
    "length": (1, 1),
    "abs": (1, 1),
    "lower": (1, 1),
    "upper": (1, 1),
    "sqrt": (1, 1),
    "round": (1, 2),
    "array_length": (1, 1),
    "matches": (2, 2),
    "sinew_matches": (3, None),
    "sinew_exists": (2, 2),
    "sinew_to_json": (1, 1),
    "sinew_check": (1, 1),
    "count": (1, 1),
    "sum": (1, 1),
    "min": (1, 1),
    "max": (1, 1),
    "avg": (1, 1),
}

#: Functions that are not in the default registry but are resolvable once a
#: SinewDB wires its UDFs (or, for ``matches``, rewritten away entirely).
_SINEW_FUNCTIONS = frozenset(
    {
        "matches",
        "sinew_matches",
        "sinew_exists",
        "sinew_to_json",
        "sinew_check",
        "extract_key_text",
        "extract_key_int",
        "extract_key_real",
        "extract_key_num",
        "extract_key_bool",
        "extract_key_array",
        "extract_key_doc",
        "extract_key_any",
    }
)


def literal_type(expr: Expr) -> SqlType | None:
    """SQL type of a non-NULL literal: the one rule for literal context."""
    if type(expr) is Literal and expr.value is not None:
        return infer_type(expr.value)
    return None


@dataclass
class Binding:
    """One table instance in a FROM clause."""

    #: the name other clauses use (alias, else table name)
    name: str
    table_name: str
    #: a Sinew collection (else a plain RDBMS table)
    sinew: bool
    #: the collection's per-table catalog (None without a catalog)
    table_catalog: "TableCatalog | None" = None
    #: a plain table's schema
    schema: "Schema | None" = None


class BoundColumn(Expr):
    """A column reference resolved to its binding and catalog state.

    ``states`` holds the ``(attribute, state)`` pairs behind the name in
    the bound collection: one per type of a multi-typed key, or the one
    attribute a mangled physical column name (``k__text``) stores.  It is
    empty for ``_id``/``data``, plain-table columns and unknown keys.
    ``binding`` is None when the reference does not resolve; ``problem``
    is the diagnostic the reference earns, if any.  ``expected`` is the
    extraction type its context asks for (None: unconstrained).
    """

    def __init__(self, ref, binding, states=(), expected=None, problem=None):
        self.ref: ColumnRef = ref
        self.binding: Binding | None = binding
        self.states: tuple[tuple[Attribute, ColumnState], ...] = states
        self.expected: SqlType | None = expected
        self.problem: Diagnostic | None = problem
        self.span = ref.span

    @property
    def key_name(self) -> str:
        """The reservoir key behind the reference."""
        return self.states[0][0].key_name if self.states else self.ref.name

    def primary(self) -> "ColumnState | None":
        """The state storing the key: materialized first, then the most
        frequent type."""
        if not self.states:
            return None
        return min(self.states, key=lambda s: (not s[1].materialized, -s[1].count))[1]

    def observed_types(self) -> set[SqlType]:
        """Types of the key with at least one stored occurrence."""
        return {a.key_type for a, state in self.states if state.count > 0}


@dataclass(frozen=True)
class BoundStatement:
    """A statement bound against the hybrid logical schema.

    ``bound`` has the parsed statement's shape with every column
    reference a :class:`BoundColumn` and every provably-NULL predicate
    replaced by ``NULL``; the rewrite reads it.  ``null_predicates`` are
    the replaced subtrees of ``statement``.  For an UPDATE, ``targets``
    resolves each assignment's column the same way.
    """

    statement: Statement
    diagnostics: tuple[Diagnostic, ...]
    null_predicates: tuple[Expr, ...] = ()
    bound: Statement | None = None
    bindings: dict[str, Binding] = field(default_factory=dict)
    targets: tuple[BoundColumn, ...] = ()

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(diag for diag in self.diagnostics if diag.is_error)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(diag for diag in self.diagnostics if not diag.is_error)

    @property
    def ok(self) -> bool:
        return not self.errors


class Binder:
    """Binds statements against the catalog and the RDBMS tables.

    ``collections`` names the Sinew tables; ``db`` (optional) supplies the
    plain tables and the function registry.  Without a catalog and a db
    nothing resolves, and only the function checks report.

    Diagnostics are collected per clause expression by kind -- function
    checks, column resolution, catalog lint -- and emitted in that order
    when the clause ends, each ``(code, span)`` at most once.
    """

    def __init__(
        self,
        catalog: "SinewCatalog | None" = None,
        collections: Collection[str] = (),
        db: "Database | None" = None,
        functions: FunctionRegistry | None = None,
    ):
        self.catalog = catalog
        self.collections = collections
        self.db = db
        if functions is None:
            functions = db.functions if db is not None else FunctionRegistry()
        self.functions = functions

    def bind(self, statement: str | Statement) -> BoundStatement:
        if isinstance(statement, str):
            statement = parse(statement)
        self.bindings: dict[str, Binding] = {}
        #: every FROM table bound: column checks, lint and pruning apply
        self.resolvable = False
        #: id(ColumnRef) -> its bound column: each reference resolves once
        self.columns: dict[int, BoundColumn] = {}
        self.diagnostics: list[Diagnostic] = []
        self.null_predicates: list[Expr] = []
        self._seen: set[tuple[str, tuple[int, int] | None]] = set()
        self._checks: list[Diagnostic] = []
        self._resolution: list[Diagnostic] = []
        self._lint: list[Diagnostic] = []
        self._in_aggregate = self._item_aggregate = False
        targets: list[BoundColumn] = []
        bound: Statement = statement
        if isinstance(statement, SelectStatement):
            bound = self._select(statement)
        elif isinstance(statement, UpdateStatement):
            self._bind_from([(statement.table, statement.table, None)])
            binding = self.bindings.get(statement.table)
            assignments = []
            for column_name, value in statement.assignments:
                assignments.append((column_name, self._clause(value, "update")))
                states = self._lookup(binding, column_name) if binding else None
                targets.append(BoundColumn(ColumnRef(None, column_name), binding, states or ()))
                # Assigning to an unseen key on a Sinew table *creates* the
                # attribute (evolving schema), so only plain tables get an
                # unknown-column error here.
                if binding is not None and not binding.sinew and states is None:
                    self._emit(d.error(d.UNKNOWN_COLUMN, f"no such column: {column_name!r}"))
            where = self._optional_clause(statement.where, "where")
            bound = UpdateStatement(statement.table, tuple(assignments), where)
        elif isinstance(statement, DeleteStatement):
            self._bind_from([(statement.table, statement.table, None)])
            bound = DeleteStatement(
                statement.table, self._optional_clause(statement.where, "where")
            )
        return BoundStatement(
            statement,
            tuple(self.diagnostics),
            tuple(self.null_predicates),
            bound,
            self.bindings,
            tuple(targets),
        )

    #: the entry point :mod:`repro.analysis` has always exported
    analyze = bind

    # ------------------------------------------------------------------
    # statements and clauses
    # ------------------------------------------------------------------

    def _select(self, statement: SelectStatement) -> SelectStatement:
        self._bind_from(
            [(ref.name, ref.alias or ref.name, ref.span) for ref in statement.from_tables]
        )
        aliases = frozenset(item.alias for item in statement.items if item.alias)
        items = tuple(
            [SelectItem(self._clause(item.expr, "select"), item.alias) for item in statement.items]
        )
        where = self._optional_clause(statement.where, "where", aliases)
        having = self._optional_clause(statement.having, "having", aliases)
        group_by = tuple([self._clause(e, "group_by", aliases) for e in statement.group_by])
        order_by = tuple(
            [
                OrderItem(self._clause(item.expr, "order_by", aliases), item.ascending)
                for item in statement.order_by
            ]
        )
        if self.resolvable and (statement.group_by or self._item_aggregate):
            self._check_grouping(statement)
        return SelectStatement(
            items, statement.from_tables, where, group_by, having, order_by,
            statement.limit, statement.distinct,
        )

    def _optional_clause(
        self, expr: Expr | None, clause: str, aliases: frozenset[str] = frozenset()
    ) -> Expr | None:
        """A WHERE or HAVING clause, if any: its predicates may be pruned."""
        return None if expr is None else self._clause(expr, clause, aliases, prune=True)

    def _clause(
        self,
        expr: Expr,
        clause: str,
        aliases: frozenset[str] = frozenset(),
        prune: bool = False,
    ) -> Expr:
        """Bind one clause expression and emit its diagnostics."""
        self._clause_name = clause
        #: SELECT-list aliases: unqualified references to them are not columns
        self._aliases = aliases
        self._prune = prune and self.resolvable
        bound = self._expr(expr, None)
        if clause == "select" and type(bound) is BoundColumn and self.resolvable:
            self._lint_projection(bound)
        for diagnostic in self._checks + self._resolution + self._lint:
            self._emit(diagnostic)
        self._checks, self._resolution, self._lint = [], [], []
        return bound

    def _bind_from(self, refs: list[tuple[str, str, tuple[int, int] | None]]) -> None:
        resolvable = True
        for table_name, name, span in refs:
            if table_name in self.collections:
                table_catalog = self.catalog.tables.get(table_name) if self.catalog else None
                self.bindings[name] = Binding(name, table_name, True, table_catalog)
            elif self.db is not None and self.db.has_table(table_name):
                schema = self.db.table(table_name).schema
                self.bindings[name] = Binding(name, table_name, False, schema=schema)
            else:
                resolvable = False
                if self.catalog is not None or self.db is not None:
                    message = f"no such table or collection: {table_name!r}"
                    self._emit(d.error(d.UNKNOWN_TABLE, message, span))
        self.resolvable = resolvable and bool(self.bindings)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _expr(self, expr: Expr, expected: SqlType | None) -> Expr:
        """Bind ``expr`` in a context expecting ``expected``; each child's
        expected type follows the rewrite's extraction-type rules."""
        if type(expr) is ColumnRef:
            return self._reference(expr, expected)
        if type(expr) is Literal or type(expr) is Star:
            return expr
        children = list(expr.children())
        types = [expected] * len(children)  # UnaryOp, Coalesce: passed through
        null = False
        outer = self._in_aggregate
        if type(expr) is BinaryOp:
            types, null = self._binary(expr)
        elif type(expr) is FunctionCall:
            types = [self._check_function(expr)] * len(children)
        elif type(expr) is Between:
            operand_type = literal_type(expr.low) or literal_type(expr.high)
            pure = type(expr.low) is Literal and type(expr.high) is Literal
            null = self._provably_null(expr, expr.operand, operand_type, pure)
            types = [operand_type, None, None]
        elif type(expr) is InList:
            operand_type = None
            for item in expr.items:
                operand_type = literal_type(item)
                if operand_type is not None:
                    break
            pure = all([type(item) is Literal for item in expr.items])
            null = self._provably_null(expr, expr.operand, operand_type, pure)
            types = [operand_type] + [None] * len(expr.items)
        elif type(expr) is Like:
            pure = type(expr.pattern) is Literal
            null = self._provably_null(expr, expr.operand, SqlType.TEXT, pure)
            types = [SqlType.TEXT, SqlType.TEXT]
        elif type(expr) is AnyPredicate:
            types = [literal_type(expr.needle), SqlType.ARRAY]
        elif type(expr) is IsNull:
            types = [None]
        elif type(expr) is Cast:
            types = [expr.target if expr.target in COMPATIBLE_TYPES else expected]
        bound = replace_children(
            expr, [self._expr(child, t) for child, t in zip(children, types)]
        )
        self._in_aggregate = outer
        return _NULL if null else bound

    def _binary(self, expr: BinaryOp) -> tuple[list, bool]:
        """SNW108/204 checks, the operands' expected types, and whether a
        comparison is provably NULL."""
        op, left, right = expr.op, expr.left, expr.right
        if op == "AND" or op == "OR":
            return [None, None], False
        if op == "||":
            return [SqlType.TEXT, SqlType.TEXT], False
        if op not in _COMPARISON_OPS:
            for side in (left, right) if op in _ARITHMETIC_OPS else ():
                side_type = literal_type(side)
                if side_type is not None and side_type not in _NUMERIC_TYPES:
                    self._checks.append(
                        d.error(
                            d.NON_NUMERIC_ARITHMETIC,
                            f"operator {op!r} requires numeric operands, "
                            f"got a {side_type.value} literal",
                            side.span or expr.span,
                        )
                    )
            return [SqlType.REAL, SqlType.REAL], False
        # each operand is extracted as the type of the literal it meets
        left_type, right_type = literal_type(right), literal_type(left)
        if (
            left_type is not None
            and right_type is not None
            and not _types_comparable(left_type, right_type)
        ):
            self._checks.append(
                d.warning(
                    d.INCOMPATIBLE_COMPARISON,
                    f"comparison between {right_type.value} and "
                    f"{left_type.value} is never true",
                    expr.span,
                )
            )
        pure = type(left) is Literal or type(right) is Literal
        null = self._provably_null(expr, left, left_type, pure)
        null = self._provably_null(expr, right, right_type, pure) or null
        return [left_type, right_type], null

    def _check_function(self, expr: FunctionCall) -> SqlType | None:
        """SNW104/105/106/109; returns the arguments' expected type
        (numeric under SUM/AVG).  The caller restores the aggregate
        nesting flag once the arguments are bound."""
        name = expr.name.lower()
        is_aggregate = self.functions.is_aggregate(name)
        if not (
            is_aggregate or self.functions.has_scalar(name) or name in _SINEW_FUNCTIONS
        ):
            message = f"no such function: {expr.name}()"
            self._checks.append(d.error(d.UNKNOWN_FUNCTION, message, expr.span))
        elif name in _ARITY:
            low, high = _ARITY[name]
            n_args = len(expr.args)
            if n_args < low or (high is not None and n_args > high):
                wanted = f"{low}" if high == low else f"{low}..{high or 'n'}"
                message = f"{expr.name}() takes {wanted} argument(s), got {n_args}"
                self._checks.append(d.error(d.WRONG_ARG_COUNT, message, expr.span))
        if is_aggregate:
            if self._clause_name == "where":
                self._checks.append(
                    d.error(
                        d.AGGREGATE_IN_WHERE,
                        f"aggregate {expr.name}() is not allowed in WHERE",
                        expr.span,
                        hint="use HAVING",
                    )
                )
            if self._in_aggregate:
                self._checks.append(
                    d.error(
                        d.NESTED_AGGREGATE,
                        f"aggregate {expr.name}() cannot be nested inside "
                        "another aggregate",
                        expr.span,
                    )
                )
            if self._clause_name == "select":
                self._item_aggregate = True
            self._in_aggregate = True
        return SqlType.REAL if name in _NUMERIC_AGGREGATES else None

    # ------------------------------------------------------------------
    # column resolution (SNW101/102/103/201)
    # ------------------------------------------------------------------

    def _reference(self, ref: ColumnRef, expected: SqlType | None) -> BoundColumn:
        column = self._column(ref, expected)
        if (
            column.problem is not None
            and self.resolvable
            and (ref.table is not None or ref.name not in self._aliases)
        ):
            self._resolution.append(column.problem)
        return column

    def _column(self, ref: ColumnRef, expected: SqlType | None) -> BoundColumn:
        column = self.columns.get(id(ref))
        if column is None:
            column = self.columns[id(ref)] = self._resolve(ref, expected)
        return column

    def _resolve(self, ref: ColumnRef, expected: SqlType | None) -> BoundColumn:
        name = ref.name
        if ref.table is not None:
            binding = self.bindings.get(ref.table)
            if binding is None:
                message = f"unknown table alias: {ref.table!r}"
                problem = d.error(d.UNKNOWN_TABLE, message, ref.span)
                return BoundColumn(ref, None, (), expected, problem)
            states = self._lookup(binding, name)
            if states is None:
                return BoundColumn(ref, binding, (), expected, _missing(ref, binding))
            return BoundColumn(ref, binding, states, expected)
        owners = [
            (binding, states)
            for binding in self.bindings.values()
            if (states := self._lookup(binding, name)) is not None
        ]
        if len(owners) > 1:
            problem = d.error(
                d.AMBIGUOUS_COLUMN,
                f"ambiguous column reference: {name!r}",
                ref.span,
                hint="qualify with a table alias",
            )
            return BoundColumn(ref, None, (), expected, problem)
        if owners:
            return BoundColumn(ref, owners[0][0], owners[0][1], expected)
        if len(self.bindings) == 1:
            (binding,) = self.bindings.values()
            if binding.sinew:
                # Unknown key on the only Sinew table: legal (extraction
                # yields NULL for every row), but worth a warning.
                return BoundColumn(ref, binding, (), expected, _missing(ref, binding))
        problem = None
        if self.bindings:
            problem = d.error(d.UNKNOWN_COLUMN, f"no such column: {name!r}", ref.span)
        return BoundColumn(ref, None, (), expected, problem)

    def _lookup(self, binding: Binding, name: str):
        """The ``(attribute, state)`` pairs behind ``name`` in ``binding``
        (empty for ``_id``/``data`` and plain columns), or None when the
        name is not one of its columns."""
        if binding.schema is not None:  # a plain table
            return () if name in binding.schema else None
        if name == ID_COLUMN or name == RESERVOIR_COLUMN:
            return ()
        table_catalog = binding.table_catalog
        if table_catalog is None or self.catalog is None:
            return None
        columns = table_catalog.columns
        states = tuple(
            [
                (attribute, columns[attribute.attr_id])
                for attribute in self.catalog.attributes_named(name)
                if attribute.attr_id in columns
            ]
        )
        if states:
            return states
        # a mangled physical column name (``k__text``) spells the one
        # attribute whose values it stores
        key_name, _sep, type_name = name.rpartition("__")
        key_type = _TYPE_BY_NAME.get(type_name) if key_name else None
        attr_id = self.catalog.lookup_id(key_name, key_type) if key_type else None
        state = columns.get(attr_id) if attr_id is not None else None
        if state is not None and state.physical_name == name:
            return ((self.catalog.attribute(state.attr_id), state),)
        return None

    # ------------------------------------------------------------------
    # grouping validation (SNW107)
    # ------------------------------------------------------------------

    def _check_grouping(self, statement: SelectStatement) -> None:
        alias_exprs = {item.alias: item.expr for item in statement.items if item.alias}
        groups = [
            alias_exprs.get(expr.name, expr)
            if type(expr) is ColumnRef and expr.table is None
            else expr
            for expr in statement.group_by
        ]
        for item in statement.items:
            ungrouped: list[ColumnRef] = []
            self._ungrouped_refs(item.expr, groups, ungrouped)
            for ref in ungrouped:
                message = f"column {ref} must appear in GROUP BY or an aggregate"
                self._emit(d.error(d.UNGROUPED_COLUMN, message, ref.span))

    def _ungrouped_refs(self, expr: Expr, groups: list[Expr], out: list) -> None:
        """ColumnRefs not covered by a group key or an aggregate call.

        Mirrors the planner's subtree-substitution semantics: descend
        top-down, stopping at any node that equals a grouping expression
        (or resolves to the same column) or is an aggregate invocation.
        """
        for group in groups:
            if expr == group or (
                type(expr) is ColumnRef
                and type(group) is ColumnRef
                and expr.name == group.name
                and self.columns[id(expr)].binding is self.columns[id(group)].binding
            ):
                return
        if type(expr) is FunctionCall and self.functions.is_aggregate(expr.name):
            return
        if type(expr) is ColumnRef:
            out.append(expr)
            return
        for child in expr.children():
            self._ungrouped_refs(child, groups, out)

    # ------------------------------------------------------------------
    # catalog lint (SNW202/203) and provably-NULL pruning
    # ------------------------------------------------------------------

    def _lint_projection(self, column: BoundColumn) -> None:
        """Warn on bare projections of multi-typed keys (downcast to text)."""
        binding = column.binding
        if binding is None or not binding.sinew:
            return
        observed = column.observed_types()
        if len(observed) > 1:
            spelled = ", ".join(sorted(t.value for t in observed))
            self._lint.append(
                d.warning(
                    d.MULTI_TYPED_DOWNCAST,
                    f"key {column.ref.name!r} is multi-typed ({spelled}); bare "
                    "projection downcasts every value to text (extract_key_any)",
                    column.span,
                )
            )

    def _provably_null(
        self, node: Expr, operand: Expr, expected: SqlType | None, pure: bool
    ) -> bool:
        """Whether WHERE/HAVING predicate ``node`` is NULL on every row
        because its column ``operand`` extracts NULL everywhere; True only
        when it is also *pure* (compared with literals), i.e. prunable."""
        if not self._prune or type(operand) is not ColumnRef:
            return False
        column = self._column(operand, expected)
        binding = column.binding
        if (
            binding is None
            or not binding.sinew
            or binding.table_catalog is None
            or operand.name == ID_COLUMN
            or operand.name == RESERVOIR_COLUMN
        ):
            return False
        if column.states:
            if expected is None or expected not in COMPATIBLE_TYPES:
                return False
            compatible = COMPATIBLE_TYPES[expected]
            live = sum([s.count for a, s in column.states if a.key_type in compatible])
            if live > 0:
                return False
            stored = ", ".join(sorted(t.value for t in column.observed_types()))
            wanted = "numeric" if expected in _NUMERIC_TYPES else expected.value
            self._lint.append(
                d.warning(
                    d.PROVABLY_NULL_EXTRACTION,
                    f"{wanted} comparison on key {operand.name!r} is provably NULL: "
                    f"the catalog has only {stored or 'nothing'} values for it",
                    operand.span or node.span,
                    hint="predicate can never be true; it will be pruned"
                    if pure
                    else "predicate can never be true",
                )
            )
        # else an unknown key: SNW201 comes from resolution, and the
        # comparison is just as provably NULL
        if pure:
            self.null_predicates.append(node)
        return pure

    def _emit(self, diagnostic: Diagnostic) -> None:
        key = (diagnostic.code, diagnostic.span)
        if key not in self._seen:
            self._seen.add(key)
            self.diagnostics.append(diagnostic)


#: The names :mod:`repro.analysis` has always exported: the binder read
#: for its diagnostics (``\\lint``), and what it returns.
SemanticAnalyzer = Binder
AnalysisResult = BoundStatement


def analyze(
    sql_or_statement: str | Statement,
    catalog: "SinewCatalog | None" = None,
    collections: Collection[str] = (),
    db: "Database | None" = None,
    functions: FunctionRegistry | None = None,
) -> BoundStatement:
    """Bind one SQL statement (or parsed AST) and report its diagnostics."""
    return Binder(catalog, collections, db, functions).bind(sql_or_statement)


def _missing(ref: ColumnRef, binding: Binding) -> Diagnostic:
    if not binding.sinew:
        return d.error(d.UNKNOWN_COLUMN, f"no such column: {ref.name!r}", ref.span)
    return d.warning(
        d.UNKNOWN_KEY_NULL,
        f"key {ref.name!r} has never been seen in collection "
        f"{binding.table_name!r}; extraction yields NULL on every row",
        ref.span,
    )


def _types_comparable(left: SqlType, right: SqlType) -> bool:
    if left in _NUMERIC_TYPES and right in _NUMERIC_TYPES:
        return True
    return left is right


__all__ = [
    "AnalysisResult",
    "Binder",
    "Binding",
    "BoundColumn",
    "BoundStatement",
    "SemanticAnalyzer",
    "analyze",
    "literal_type",
]
