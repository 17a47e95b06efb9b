"""Sinew's query rewriter (paper section 3.2.2).

Queries arrive written against the *logical* universal relation.  The
binder (:mod:`repro.analysis.binder`) resolves each column reference to
its catalog state and the type its context expects; the rewriter maps the
bound statement onto the *physical* hybrid schema before it reaches the
RDBMS:

* a reference to a clean **physical** column passes through (renamed if the
  physical column name was mangled on a collision);
* a reference to a **dirty** column becomes
  ``COALESCE(physical, extract_key_*(data, 'key'))`` so both locations are
  consulted while the materializer is mid-move;
* a reference to a **virtual** column becomes a typed extraction UDF call
  over the column reservoir.

The extraction *type* comes from the semantics of the query: comparing
against a numeric literal selects numeric extraction (values of other types
yield NULL rather than an error -- the multi-typed-key behaviour that the
Postgres JSON baseline cannot express), string contexts select text
extraction, and a bare projection with no constraint extracts the
attribute's dominant type, falling back to the paper's
downcast-to-string behaviour for multi-typed keys.

``matches(keys, query)`` predicates (section 4.3) are rewritten into a text
index probe keyed by the table's ``_id`` column.
"""

from __future__ import annotations

from typing import Any

from ..analysis.binder import Binder, Binding, BoundColumn, BoundStatement
from ..analysis.diagnostics import AMBIGUOUS_COLUMN
from ..rdbms.errors import PlanningError
from ..rdbms.expressions import (
    BinaryOp,
    Cast,
    Coalesce,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    Star,
    replace_children,
)
from ..rdbms.sql.ast import OrderItem, SelectItem, SelectStatement, Statement
from ..rdbms.storage import HeapTable
from ..rdbms.types import NUMERIC_TYPES, SqlType
from .catalog import SinewCatalog
from .extractors import EXTRACT_FUNCTION_FOR_TYPE
from .loader import ID_COLUMN, RESERVOIR_COLUMN


def _read_states(column: BoundColumn) -> list:
    """The column states a reference reads: the primary one, or -- for a
    key stored under several types, in a context that asks for one -- each
    type that context's extraction would return (INTEGER and REAL for a
    number, TEXT for text), wherever those values are stored.  A row holds
    the key once, so at most one of them has a value in it."""
    primary = column.primary()
    expected = column.expected
    if primary is None or expected is None or len(column.states) == 1:
        return [] if primary is None else [primary]
    numeric = expected in NUMERIC_TYPES
    states = [
        state
        for attribute, state in column.states
        if attribute.key_type is expected or (numeric and attribute.key_type in NUMERIC_TYPES)
    ]
    return states or [primary]


class QueryRewriter:
    """Rewrites bound statements onto the physical schema.

    ``rewrite_select`` and ``rewrite_where`` take a :class:`BoundStatement`,
    or a parsed statement that they first bind against ``sinew_tables``.
    Apart from the per-attribute access counts it bumps for the schema
    analyzer (section 3.1.3), the rewrite reads only the bound statement.

    With ``use_text_index=True`` (requires the instance's inverted index),
    equality predicates on *virtual* text columns are additionally
    prefiltered through the index -- "rewriting predicates over virtual
    columns into queries of the text index" (section 4.3) -- with the
    original extraction kept as an exactness recheck on the candidates,
    the way an RDBMS rechecks lossy index results.
    """

    def __init__(
        self,
        catalog: SinewCatalog,
        sinew_tables: dict[str, HeapTable],
        use_text_index: bool = False,
    ):
        self.catalog = catalog
        self.sinew_tables = sinew_tables
        self.use_text_index = use_text_index
        #: binding -> distinct keys the rewritten statement extracts per
        #: row of that binding; tags multi-key queries so the executor can
        #: size its decoded-header cache expectations (EXPLAIN ANALYZE
        #: reports the hint alongside the decode counters)
        self.extraction_keys: dict[str, set[str]] = {}
        self._sinew_bindings: list[Binding] = []

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def rewrite_select(
        self, statement: SelectStatement | BoundStatement
    ) -> SelectStatement:
        select = self._bound(statement)
        items = []
        for item in select.items:
            expr = item.expr
            if type(expr) is Star:
                items.append(item)
                continue
            rewritten = self._rewrite(expr)
            alias = item.alias
            if alias is None and type(expr) is BoundColumn and rewritten is not expr.ref:
                # Preserve the logical column name on the output even though
                # the expression became an extraction call.
                alias = expr.ref.name
            items.append(SelectItem(rewritten, alias))

        # ORDER BY / GROUP BY may reference a SELECT-list alias; such a
        # reference means "the aliased output expression", so substitute
        # the already-rewritten item expression rather than treating the
        # alias as a logical column.
        alias_exprs = {item.alias: item.expr for item in items if item.alias is not None}

        def rewrite_unless_alias(expr: Expr) -> Expr:
            if (
                type(expr) is BoundColumn
                and expr.ref.table is None
                and expr.ref.name in alias_exprs
            ):
                return alias_exprs[expr.ref.name]
            return self._rewrite(expr)

        return SelectStatement(
            items=tuple(items),
            from_tables=select.from_tables,
            where=self._rewrite(select.where) if select.where is not None else None,
            group_by=tuple([rewrite_unless_alias(e) for e in select.group_by]),
            having=self._rewrite(select.having) if select.having is not None else None,
            order_by=tuple(
                [
                    OrderItem(rewrite_unless_alias(item.expr), item.ascending)
                    for item in select.order_by
                ]
            ),
            limit=select.limit,
            distinct=select.distinct,
        )

    def rewrite_where(self, statement: Statement | BoundStatement) -> Expr | None:
        """Rewrite the WHERE clause of an UPDATE/DELETE on a Sinew table."""
        where = self._bound(statement).where
        return self._rewrite(where) if where is not None else None

    def _bound(self, statement: Statement | BoundStatement) -> Any:
        """The bound form of ``statement`` (binding it first if parsed)."""
        if not isinstance(statement, BoundStatement):
            statement = Binder(self.catalog, self.sinew_tables).bind(statement)
        self._sinew_bindings = [b for b in statement.bindings.values() if b.sinew]
        return statement.bound

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _rewrite(self, expr: Expr) -> Expr:
        if type(expr) is BoundColumn:
            return self._rewrite_column(expr)
        if type(expr) is Literal or type(expr) is Star:
            return expr
        if type(expr) is FunctionCall and expr.name == "matches":
            return self._rewrite_matches(expr)
        rewritten = replace_children(expr, [self._rewrite(c) for c in expr.children()])
        if type(expr) is BinaryOp and expr.op == "=" and self.use_text_index:
            prefilter = self._index_prefilter(expr)
            if prefilter is not None:
                # index probe first (cheap set membership), exact
                # extraction recheck only on the candidates
                return BinaryOp("AND", prefilter, rewritten)
        return rewritten

    def _index_prefilter(self, expr: BinaryOp) -> Expr | None:
        """Index probe for ``virtual_text_column = 'literal'`` predicates.

        Applies only when one side is a single-token text literal and the
        other resolves to a *virtual* column of a Sinew table (physical
        columns already have statistics and fast access).
        """
        from .text_index import tokenize

        if type(expr.left) is BoundColumn and type(expr.right) is Literal:
            column, literal = expr.left, expr.right
        elif type(expr.right) is BoundColumn and type(expr.left) is Literal:
            column, literal = expr.right, expr.left
        else:
            return None
        if not isinstance(literal.value, str):
            return None
        terms = tokenize(literal.value)
        if len(terms) != 1:
            return None  # multi-token equality is not a term lookup
        binding, name = column.binding, column.ref.name
        if binding is None or not binding.sinew or name in (ID_COLUMN, RESERVOIR_COLUMN):
            return None
        state = column.primary()
        if state is not None and state.materialized:
            return None  # physical columns don't need the index
        return FunctionCall(
            "sinew_matches",
            (ColumnRef(binding.name, ID_COLUMN), Literal(name), Literal(terms[0])),
        )

    def _rewrite_matches(self, expr: FunctionCall) -> Expr:
        """``matches(keys, query)`` -> text-index probe on ``_id``."""
        if len(expr.args) != 2:
            raise PlanningError("matches() takes exactly two arguments")
        if len(self._sinew_bindings) != 1:
            raise PlanningError("matches() requires exactly one Sinew table in FROM")
        keys, query = [self._rewrite(arg) for arg in expr.args]
        probe_id = ColumnRef(self._sinew_bindings[0].name, ID_COLUMN)
        return FunctionCall("sinew_matches", (probe_id, keys, query))

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------

    def _rewrite_column(self, column: BoundColumn) -> Expr:
        binding = column.binding
        if binding is None:
            problem = column.problem
            if problem is not None and problem.code == AMBIGUOUS_COLUMN:
                raise PlanningError(problem.message)
            return column.ref  # unresolved; the RDBMS reports it
        if not binding.sinew:
            return column.ref  # a plain table's column; the RDBMS resolves it

        state = column.primary()
        if state is not None:
            # query-pattern statistics for the schema analyzer (§3.1.3)
            state.access_count += 1
        name = column.ref.name
        if name == ID_COLUMN or name == RESERVOIR_COLUMN:
            return ColumnRef(binding.name, name)
        if column.expected is None and len(column.observed_types()) > 1:
            as_text = self._any_text(binding, column)
            if as_text is not None:
                return as_text
        schema = self._schema(binding)
        states = _read_states(column)
        moved = [s for s in states if s.physical_name and s.physical_name in schema]
        physical = [ColumnRef(binding.name, s.physical_name) for s in moved]
        if not physical:
            return self._extraction(binding, column)
        if len(moved) == len(states) and all(s.materialized and not s.dirty for s in moved):
            return physical[0] if len(physical) == 1 else Coalesce(tuple(physical))
        # dirty in either direction (materializing *or* dematerializing),
        # or a type still virtual: each row's value lives on exactly one
        # side of the move, so the bridge must consult both
        return Coalesce((*physical, self._extraction(binding, column)))

    def _any_text(self, binding: Binding, column: BoundColumn) -> Expr | None:
        """A bare reference to a key stored under several types, as
        ``extract_key_any`` reads it in every layout: each type's physical
        column as text, then the reservoir's downcast.  A row holds the
        key once, so at most one argument is not NULL.  None where no type
        has a physical column (the extraction alone is that), or where one
        holds documents or arrays, whose cast is not their downcast."""
        schema = self._schema(binding)
        physical = [
            (attribute.key_type, ColumnRef(binding.name, state.physical_name))
            for attribute, state in column.states
            if state.physical_name and state.physical_name in schema
        ]
        if not physical or any(t in (SqlType.BYTEA, SqlType.ARRAY) for t, _ref in physical):
            return None
        texts = [ref if t is SqlType.TEXT else Cast(ref, SqlType.TEXT) for t, ref in physical]
        return Coalesce((*texts, self._extraction(binding, column)))

    def max_extraction_keys(self) -> int:
        """Max distinct extracted keys over any one binding (0 when none)."""
        if not self.extraction_keys:
            return 0
        return max(len(keys) for keys in self.extraction_keys.values())

    def _schema(self, binding: Binding):
        return self.sinew_tables[binding.table_name].schema

    def _extraction(self, binding: Binding, column: BoundColumn) -> Expr:
        """Build the typed extraction UDF call for a virtual column.

        An unconstrained context extracts the key's single observed type,
        or ``extract_key_any`` (downcast to text) for a multi-typed key.
        When an *ancestor* of a dotted key is materialized (section 4.2:
        a nested object stored as its own serialized physical column), the
        extraction reads from that physical column instead of the
        reservoir -- with the usual COALESCE bridge while the ancestor is
        dirty.
        """
        expected, key_name = column.expected, column.key_name
        if expected is None:
            observed = column.observed_types()
            if len(observed) == 1:
                (expected,) = observed
        self.extraction_keys.setdefault(binding.name, set()).add(key_name)
        function = EXTRACT_FUNCTION_FOR_TYPE.get(expected, "extract_key_any")
        reservoir_call = FunctionCall(
            function, (ColumnRef(binding.name, RESERVOIR_COLUMN), Literal(key_name))
        )
        columns = self.catalog.table(binding.table_name).columns
        parts = key_name.split(".")
        for split in range(len(parts) - 1, 0, -1):
            parent_id = self.catalog.lookup_id(".".join(parts[:split]), SqlType.BYTEA)
            state = columns.get(parent_id) if parent_id is not None else None
            if (
                state is None
                or not state.physical_name
                or state.physical_name not in self._schema(binding)
            ):
                continue
            physical_call = FunctionCall(
                function, (ColumnRef(binding.name, state.physical_name), Literal(key_name))
            )
            if state.dirty:
                # mid-move either way: the parent document may sit on
                # either side for any given row
                return Coalesce((physical_call, reservoir_call))
            if state.materialized:
                return physical_call
        return reservoir_call
