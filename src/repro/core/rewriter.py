"""Sinew's query rewriter (paper section 3.2.2).

Queries arrive written against the *logical* universal relation.  The
binder (:mod:`repro.analysis.binder`) resolves each column reference to
its catalog state and the type its context expects; the rewriter maps the
bound statement onto the *physical* hybrid schema before it reaches the
RDBMS.

Every reference to a key is read through one table.  Its context gives
the type T it is read as: the type of the literal it meets, text under
``||`` and LIKE, a number under arithmetic and SUM/AVG, a CAST's target.
An unconstrained reference (a projection, ORDER BY, GROUP BY, IS NULL,
MIN/MAX) reads the key's one observed type -- or, for a key stored under
several types, every type downcast to text, the paper's
``extract_key_any``.  Each attribute of the key whose type T's extraction
returns (INTEGER and REAL both, for a number) contributes by where its
values live (:meth:`~repro.core.catalog.ColumnState.placement`):

=============  ==============================================
placement      contributes
=============  ==============================================
settled        its physical column
moving         its physical column, then the reservoir
reservoir      the reservoir
=============  ==============================================

The read is the COALESCE of the contributions, with the reservoir's
``extract_key_T(data, 'k')`` last and once (alone when nothing else
contributes).  An attribute of another type contributes nothing: its
physical column is never cast nor read raw, so values of other types
read as NULL -- "rather than throwing an exception for type mismatches"
-- in every layout, exactly as the all-virtual extraction reads them.
Under the downcast a number or boolean column is read through the text
cast and a document or array column through ``sinew_downcast``.  A dotted
key's reservoir read goes through the same table once more, for its
nearest ancestor object with a physical column
(:meth:`~repro.core.catalog.SinewCatalog.host`).  A row holds a key once,
so at most one argument of the COALESCE is not NULL; the planner derives
index targets (the union over a COALESCE among them) from the read.

``matches(keys, query)`` predicates (section 4.3) are rewritten into a text
index probe keyed by the table's ``_id`` column.
"""

from __future__ import annotations

from typing import Any

from ..analysis.binder import COMPATIBLE_TYPES, Binder, Binding, BoundColumn, BoundStatement
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
from ..rdbms.types import SqlType
from .catalog import Attribute, SinewCatalog
from .extractors import EXTRACT_FUNCTION_FOR_TYPE
from .loader import ID_COLUMN, RESERVOIR_COLUMN


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
            prefilter = self._index_prefilter(expr, rewritten)
            if prefilter is not None:
                # index probe first (cheap set membership), exact
                # extraction recheck only on the candidates
                return BinaryOp("AND", prefilter, rewritten)
        return rewritten

    def _index_prefilter(self, expr: BinaryOp, rewritten: BinaryOp) -> Expr | None:
        """Index probe for ``virtual_text_column = 'literal'`` predicates.

        Applies only when one side is a single-token text literal and the
        other is read as the reservoir extraction alone (a physical
        column, settled or moving, already has statistics and indexes).
        """
        from .text_index import tokenize

        if type(expr.left) is BoundColumn and type(expr.right) is Literal:
            column, read, literal = expr.left, rewritten.left, expr.right
        elif type(expr.right) is BoundColumn and type(expr.left) is Literal:
            column, read, literal = expr.right, rewritten.right, expr.left
        else:
            return None
        if not isinstance(literal.value, str):
            return None
        terms = tokenize(literal.value)
        if len(terms) != 1:
            return None  # multi-token equality is not a term lookup
        binding = column.binding
        if type(read) is not FunctionCall or read.args[0] != ColumnRef(
            binding.name, RESERVOIR_COLUMN
        ):
            return None
        return FunctionCall(
            "sinew_matches",
            (ColumnRef(binding.name, ID_COLUMN), Literal(column.key_name), Literal(terms[0])),
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
        return self._read(binding, column)

    def _read(self, binding: Binding, column: BoundColumn) -> Expr:
        """The read of a key: the (placement, context) table of the
        module docstring."""
        expected = column.expected
        if expected is None:
            observed = column.observed_types()
            if len(observed) == 1:
                (expected,) = observed
        reads = COMPATIBLE_TYPES.get(expected)  # None: every type, as text
        schema = self.sinew_tables[binding.table_name].schema
        parts: list[Expr] = []
        reservoir = False
        for attribute, state in column.states:
            if reads is not None and attribute.key_type not in reads:
                continue  # another type's column: never cast, never read raw
            placement = state.placement(schema)
            if placement is not None:
                ref = ColumnRef(binding.name, placement.name)
                parts.append(ref if reads is not None else _as_text(ref, attribute))
            reservoir = reservoir or placement is None or not placement.settled
        if reservoir or not parts:
            function = EXTRACT_FUNCTION_FOR_TYPE.get(expected, "extract_key_any")
            parts.append(self._extraction(binding, function, column.key_name, schema))
        return parts[0] if len(parts) == 1 else Coalesce(tuple(parts))

    def _extraction(self, binding: Binding, function: str, key_name: str, schema) -> Expr:
        """``function(data, 'key')`` -- or, for a dotted key whose ancestor
        object has a physical column, the same table's read of that host."""
        self.extraction_keys.setdefault(binding.name, set()).add(key_name)
        reservoir = FunctionCall(
            function, (ColumnRef(binding.name, RESERVOIR_COLUMN), Literal(key_name))
        )
        host = self.catalog.host(binding.table_name, key_name, schema)
        if host is None:
            return reservoir
        hosted = FunctionCall(function, (ColumnRef(binding.name, host.name), Literal(key_name)))
        return hosted if host.settled else Coalesce((hosted, reservoir))

    def max_extraction_keys(self) -> int:
        """Max distinct extracted keys over any one binding (0 when none)."""
        if not self.extraction_keys:
            return 0
        return max(len(keys) for keys in self.extraction_keys.values())


def _as_text(ref: ColumnRef, attribute: Attribute) -> Expr:
    """A physical column read as ``extract_key_any`` renders its values."""
    key_type = attribute.key_type
    if key_type is SqlType.TEXT:
        return ref
    if key_type is SqlType.BYTEA or key_type is SqlType.ARRAY:
        # a container's text cast is not its JSON downcast
        return FunctionCall("sinew_downcast", (ref, Literal(attribute.key_name)))
    return Cast(ref, SqlType.TEXT)
