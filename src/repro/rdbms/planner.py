"""Cost-based query planner.

The planner turns a bound :class:`~repro.rdbms.sql.ast.SelectStatement` into
a physical operator tree.  Its decisions are deliberately PostgreSQL-shaped,
because the paper's Table 2 experiment is about *how those decisions change*
once Sinew materializes a virtual column into a physical one:

* **Predicate estimates** come from per-column statistics when the predicate
  references physical columns, and fall back to the fixed
  :data:`~repro.rdbms.statistics.DEFAULT_UDF_PREDICATE_ROWS` estimate when
  the predicate goes through a UDF (i.e. a Sinew virtual column).
* **Aggregate strategy** (HashAggregate vs. Sort+GroupAggregate/Unique)
  depends on whether the estimated grouped state fits ``work_mem`` -- a
  200-row estimate always hashes; a realistic multi-thousand-distinct
  estimate switches to the sort-based strategy.
* **Access path**: a conjunct comparing a plain physical column -- or a
  call ``f(column, 'literal', ...)`` of a function with a specializer
  hook, Sinew's ``extract_key_*(data, 'k')`` for a virtual column -- with
  literals can be answered from an ordered index on it
  (:class:`~repro.rdbms.plan_nodes.IndexScan`); it is taken when its cost
  is below the sequential scan's.  A built index counts its rows exactly;
  an unbuilt one gets the statistics' estimate, which for a UDF predicate
  is the fixed 200-row default.  A ``COALESCE`` of such subjects -- the
  bridge Sinew reads a dirty column through,
  ``COALESCE(num, extract_key_num(data, 'num'))`` -- is read from the
  union of their indexes (``using num | extract_key_num(data, 'num')``),
  costed with the members' exact counts once all are built and, until
  then, with the statistics of its plain column.  A call whose family
  offers a ``shapes`` hook (Sinew's extraction of a top-level key) may
  also be answered from the shape index on its column: it lists the rows
  whose shape holds the key, and is costed by the same rule, with the
  catalog's count of those rows until the index is built and the index's
  exact count after.  A call of a function with a ``search`` hook
  (Sinew's ``matches()``) may be answered from the text index its hook
  names (``using text(data)``), costed by the same rule.
* **Join order** is chosen by exhaustive left-deep enumeration with
  cardinality estimates, so a mis-estimated virtual-column filter reorders
  the join tree exactly as the paper shows.
* **Join algorithm**: hash join when the inner fits ``work_mem``, otherwise
  merge join; nested loop only without an equi-key.

The finished tree goes through :func:`~repro.rdbms.plan_nodes.fuse`, which
makes every scan-side chain one batch fragment; every node of the result,
fragment or operator above one, runs batch-at-a-time through one method,
``batches(context, need)``.  EXPLAIN still prints the tree as planned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from .errors import CatalogError, PlanningError
from .expressions import (
    Between,
    BinaryOp,
    Coalesce,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    Literal,
    Star,
    UnaryOp,
    contains_function_call,
    referenced_columns,
    replace_children,
)
from .functions import FunctionRegistry
from .plan_nodes import (
    AggSpec,
    Filter,
    GroupAggregate,
    HashAggregate,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    PlanNode,
    Project,
    SeqScan,
    Sort,
    Unique,
    fuse,
)
from .sql.ast import OrderItem, SelectItem, SelectStatement, TableRef
from .statistics import (
    ColumnStats,
    SelectivityEstimator,
    TableStats,
)
from .storage import (
    HeapTable,
    IndexExpression,
    IndexTarget,
    KeyRange,
    ShapeTarget,
    UnionTarget,
    index_key_test,
)

#: PostgreSQL's default n_distinct guess when a column has no statistics.
DEFAULT_N_DISTINCT = 200

#: Modelled hash-table entry overhead (bucket pointers, entry header).
HASH_ENTRY_OVERHEAD_BYTES = 64


@dataclass
class _Relation:
    """One FROM-clause table instance during planning."""

    binding: str
    table: HeapTable
    stats: TableStats | None
    filters: list[Expr] = field(default_factory=list)
    plan: PlanNode | None = None


@dataclass
class _JoinEdge:
    """An equi-join conjunct between two relations."""

    left_binding: str
    right_binding: str
    left_expr: Expr
    right_expr: Expr


class Planner:
    """Plans SELECT statements against a set of heap tables."""

    def __init__(
        self,
        tables: dict[str, HeapTable],
        stats: dict[str, TableStats],
        functions: FunctionRegistry,
        work_mem_bytes: int,
    ):
        self.tables = tables
        self.stats = stats
        self.functions = functions
        self.work_mem_bytes = work_mem_bytes

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def plan_select(self, statement: SelectStatement) -> PlanNode:
        relations = self._bind_from(statement.from_tables)
        conjuncts = _split_conjuncts(statement.where)
        edges, residuals = self._classify_conjuncts(conjuncts, relations)

        for relation in relations.values():
            relation.plan = self._scan_plan(relation)

        plan = self._join_plan(list(relations.values()), edges, relations)

        for residual in residuals:
            selectivity = self._estimator_for(relations, plan).estimate(residual)
            plan = Filter(plan, residual, selectivity)

        plan = self._aggregate_and_project(statement, plan, relations)

        if statement.limit is not None:
            plan = Limit(plan, statement.limit)
        return fuse(plan)

    # ------------------------------------------------------------------
    # FROM binding and predicate classification
    # ------------------------------------------------------------------

    def _bind_from(self, from_tables: tuple[TableRef, ...]) -> dict[str, _Relation]:
        if not from_tables:
            raise PlanningError("SELECT without FROM is not supported")
        relations: dict[str, _Relation] = {}
        for ref in from_tables:
            if ref.name not in self.tables:
                raise CatalogError(
                    f"no such table: {ref.name!r}",
                    position=ref.span[0] if ref.span else None,
                )
            if ref.binding in relations:
                raise PlanningError(f"duplicate table binding: {ref.binding!r}")
            relations[ref.binding] = _Relation(
                binding=ref.binding,
                table=self.tables[ref.name],
                stats=self.stats.get(ref.name),
            )
        return relations

    def _bindings_of(self, expr: Expr, relations: dict[str, _Relation]) -> set[str]:
        """The set of relations an expression touches (validates references)."""
        bindings: set[str] = set()
        for ref in referenced_columns(expr):
            position = ref.span[0] if ref.span else None
            if ref.table is not None:
                if ref.table not in relations:
                    raise CatalogError(
                        f"unknown table alias: {ref.table!r}", position=position
                    )
                if ref.name not in relations[ref.table].table.schema:
                    raise CatalogError(
                        f"no such column: {ref.table}.{ref.name}",
                        position=position,
                    )
                bindings.add(ref.table)
                continue
            owners = [
                binding
                for binding, relation in relations.items()
                if ref.name in relation.table.schema
            ]
            if not owners:
                raise CatalogError(f"no such column: {ref.name!r}", position=position)
            if len(owners) > 1:
                raise PlanningError(
                    f"ambiguous column reference: {ref.name!r}", position=position
                )
            bindings.add(owners[0])
        return bindings

    def _classify_conjuncts(
        self, conjuncts: list[Expr], relations: dict[str, _Relation]
    ) -> tuple[list[_JoinEdge], list[Expr]]:
        edges: list[_JoinEdge] = []
        residuals: list[Expr] = []
        for conjunct in conjuncts:
            bindings = self._bindings_of(conjunct, relations)
            if len(bindings) <= 1:
                if bindings:
                    relations[next(iter(bindings))].filters.append(conjunct)
                else:
                    residuals.append(conjunct)  # constant predicate
                continue
            edge = self._as_equi_edge(conjunct, relations)
            if edge is not None and len(bindings) == 2:
                edges.append(edge)
            else:
                residuals.append(conjunct)
        return edges, residuals

    def _as_equi_edge(
        self, conjunct: Expr, relations: dict[str, _Relation]
    ) -> _JoinEdge | None:
        if not (isinstance(conjunct, BinaryOp) and conjunct.op == "="):
            return None
        left_bindings = self._bindings_of(conjunct.left, relations)
        right_bindings = self._bindings_of(conjunct.right, relations)
        if len(left_bindings) != 1 or len(right_bindings) != 1:
            return None
        left_binding = next(iter(left_bindings))
        right_binding = next(iter(right_bindings))
        if left_binding == right_binding:
            return None
        return _JoinEdge(left_binding, right_binding, conjunct.left, conjunct.right)

    # ------------------------------------------------------------------
    # scans and filters
    # ------------------------------------------------------------------

    def _column_stats_for(
        self, relations: dict[str, _Relation]
    ) -> Callable[[ColumnRef], ColumnStats | None]:
        def lookup(ref: ColumnRef) -> ColumnStats | None:
            candidates: Iterable[_Relation]
            if ref.table is not None:
                relation = relations.get(ref.table)
                candidates = (relation,) if relation else ()
            else:
                candidates = relations.values()
            for relation in candidates:
                if relation is None or relation.stats is None:
                    continue
                if ref.name in relation.stats.columns:
                    return relation.stats.columns[ref.name]
            return None

        return lookup

    def _estimator_for(
        self, relations: dict[str, _Relation], plan: PlanNode
    ) -> SelectivityEstimator:
        return SelectivityEstimator(
            self._column_stats_for(relations), total_rows=max(1, int(plan.est_rows))
        )

    def _scan_plan(self, relation: _Relation) -> PlanNode:
        """The cheapest access path for one relation and its conjuncts:
        a sequential scan filtered by all of them, or an index scan for
        one of them filtered by the rest."""
        table, binding = relation.table, relation.binding
        if not relation.filters:
            return SeqScan(table, binding)
        estimator = SelectivityEstimator(
            self._column_stats_for({binding: relation}),
            total_rows=max(1, len(table)),
        )
        filters = [(p, estimator.estimate(p)) for p in relation.filters]

        def filtered(plan: PlanNode, remaining) -> PlanNode:
            for predicate, selectivity in remaining:
                plan = Filter(plan, predicate, selectivity)
            return plan

        best = filtered(SeqScan(table, binding), filters)
        for position, (predicate, selectivity) in enumerate(filters):
            sargable = _index_condition(predicate, table, binding, self.functions)
            if sargable is not None:
                if isinstance(sargable[0], UnionTarget):
                    selectivity = _bridge_selectivity(predicate, sargable[0], binding, estimator)
                scans = [IndexScan(table, binding, *sargable, predicate, selectivity)]
                shapes = _shape_access(sargable[0], table)
                if shapes is not None:
                    target, keys, listed = shapes
                    scans.append(IndexScan(table, binding, target, keys, predicate, listed))
            else:
                searched = _search_access(predicate, table, binding, self.functions)
                if searched is None:
                    continue
                target, probe, listed = searched
                scans = [IndexScan(table, binding, target, probe, predicate, listed)]
            rest = filters[:position] + filters[position + 1 :]
            for scan in scans:
                plan = filtered(scan, rest)
                if plan.est_cost < best.est_cost:
                    best = plan
        return best

    def index_access(
        self, table: HeapTable, where: Expr | None
    ) -> tuple[IndexTarget, Any] | None:
        """The index probe :meth:`_scan_plan` would read ``table`` with
        under ``where``, or None where it would scan -- for statements
        that need row ids, not a plan (UPDATE, DELETE)."""
        relation = _Relation(
            table.name, table, self.stats.get(table.name), _split_conjuncts(where)
        )
        plan = self._scan_plan(relation)
        while isinstance(plan, Filter):
            plan = plan.child
        if isinstance(plan, IndexScan):
            return plan.target, plan.ranges
        return None

    # ------------------------------------------------------------------
    # join ordering
    # ------------------------------------------------------------------

    def _join_plan(
        self,
        relations: list[_Relation],
        edges: list[_JoinEdge],
        relation_map: dict[str, _Relation],
    ) -> PlanNode:
        if len(relations) == 1:
            assert relations[0].plan is not None
            return relations[0].plan

        if len(relations) > 6:
            raise PlanningError("too many tables in FROM (max 6)")

        best_plan: PlanNode | None = None
        for order in itertools.permutations(relations):
            plan = self._left_deep_plan(order, edges, relation_map)
            if plan is None:
                continue
            if best_plan is None or plan.est_cost < best_plan.est_cost:
                best_plan = plan
        if best_plan is None:
            raise PlanningError("could not find a join plan")
        return best_plan

    def _left_deep_plan(
        self,
        order: tuple[_Relation, ...],
        edges: list[_JoinEdge],
        relation_map: dict[str, _Relation],
    ) -> PlanNode | None:
        joined = {order[0].binding}
        plan = order[0].plan
        assert plan is not None
        used_edges: set[int] = set()
        for relation in order[1:]:
            applicable: list[tuple[int, _JoinEdge, bool]] = []
            for index, edge in enumerate(edges):
                if index in used_edges:
                    continue
                if edge.left_binding in joined and edge.right_binding == relation.binding:
                    applicable.append((index, edge, False))
                elif edge.right_binding in joined and edge.left_binding == relation.binding:
                    applicable.append((index, edge, True))
            inner = relation.plan
            assert inner is not None
            if applicable:
                outer_keys = []
                inner_keys = []
                for index, edge, flipped in applicable:
                    used_edges.add(index)
                    if flipped:
                        outer_keys.append(edge.right_expr)
                        inner_keys.append(edge.left_expr)
                    else:
                        outer_keys.append(edge.left_expr)
                        inner_keys.append(edge.right_expr)
                est_rows = self._join_cardinality(
                    plan, inner, outer_keys, inner_keys, relation_map
                )
                plan = self._choose_join(plan, inner, outer_keys, inner_keys, est_rows)
            else:
                # no applicable edge: avoid cartesian products unless forced
                # (when this is the only remaining relation ordering).
                est_rows = plan.est_rows * inner.est_rows
                plan = NestedLoopJoin(plan, inner, None, est_rows)
            joined.add(relation.binding)
        return plan

    def _choose_join(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_keys: list[Expr],
        inner_keys: list[Expr],
        est_rows: float,
    ) -> PlanNode:
        inner_bytes = inner.est_rows * (inner.est_row_bytes + HASH_ENTRY_OVERHEAD_BYTES)
        if inner_bytes <= self.work_mem_bytes:
            return HashJoin(outer, inner, outer_keys, inner_keys, est_rows)
        return MergeJoin(outer, inner, outer_keys, inner_keys, est_rows)

    def _join_cardinality(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_keys: list[Expr],
        inner_keys: list[Expr],
        relation_map: dict[str, _Relation],
    ) -> float:
        stats_lookup = self._column_stats_for(relation_map)
        selectivity = 1.0
        for outer_key, inner_key in zip(outer_keys, inner_keys):
            ndv_outer = self._key_ndv(outer_key, stats_lookup)
            ndv_inner = self._key_ndv(inner_key, stats_lookup)
            selectivity *= 1.0 / max(ndv_outer, ndv_inner, 1)
        return max(1.0, outer.est_rows * inner.est_rows * selectivity)

    def _key_ndv(self, key: Expr, stats_lookup) -> int:
        if isinstance(key, ColumnRef):
            stats = stats_lookup(key)
            if stats is not None and stats.n_distinct > 0:
                return stats.n_distinct
        return DEFAULT_N_DISTINCT

    # ------------------------------------------------------------------
    # aggregation, distinct, projection, order by
    # ------------------------------------------------------------------

    def _aggregate_and_project(
        self,
        statement: SelectStatement,
        plan: PlanNode,
        relations: dict[str, _Relation],
    ) -> PlanNode:
        select_items = self._expand_stars(statement.items, plan)
        statement = replace(
            statement,
            order_by=tuple(
                _resolve_ordinal(item, select_items) for item in statement.order_by
            ),
        )
        output_names = [
            self._output_name(item, index) for index, item in enumerate(select_items)
        ]
        aggregate_calls = self._collect_aggregates(
            [item.expr for item in select_items]
            + ([statement.having] if statement.having is not None else [])
            + [item.expr for item in statement.order_by]
        )

        order_items = list(statement.order_by)
        if statement.group_by or aggregate_calls:
            plan, select_items, having, order_items = self._plan_aggregation(
                statement, plan, select_items, aggregate_calls, relations
            )
            if having is not None:
                estimator = self._estimator_for(relations, plan)
                plan = Filter(plan, having, estimator.estimate(having))
        else:
            having = None

        # ORDER BY keys that reference scan columns must sort before the
        # projection discards them; alias references sort after.
        pre_projection_sort = order_items and self._resolvable(
            [item.expr for item in order_items], plan
        )
        if pre_projection_sort:
            plan = Sort(plan, [(item.expr, item.ascending) for item in order_items])

        names = output_names
        pre_projection = plan
        plan = Project(plan, [item.expr for item in select_items], names)

        if statement.distinct:
            plan = self._plan_distinct(
                plan, relations, [item.expr for item in select_items], pre_projection
            )

        if order_items and not pre_projection_sort:
            keys = []
            for item in order_items:
                rewritten = self._rewrite_for_output(item.expr, select_items, names)
                keys.append((rewritten, item.ascending))
            plan = Sort(plan, keys)
        return plan

    def _expand_stars(
        self, items: tuple[SelectItem, ...], plan: PlanNode
    ) -> list[SelectItem]:
        expanded: list[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star):
                for qualifier, name in plan.output_columns:
                    if item.expr.table is None or item.expr.table == qualifier:
                        expanded.append(SelectItem(ColumnRef(qualifier, name), name))
                if item.expr.table is not None and not any(
                    qualifier == item.expr.table
                    for qualifier, _name in plan.output_columns
                ):
                    raise CatalogError(f"unknown table alias: {item.expr.table!r}")
            else:
                expanded.append(item)
        return expanded

    def _collect_aggregates(self, expressions: list[Expr]) -> list[FunctionCall]:
        calls: list[FunctionCall] = []
        for expr in expressions:
            if expr is None:
                continue
            for node in expr.walk():
                if isinstance(node, FunctionCall) and self.functions.is_aggregate(
                    node.name
                ):
                    if node not in calls:
                        calls.append(node)
        return calls

    def _plan_aggregation(
        self,
        statement: SelectStatement,
        plan: PlanNode,
        select_items: list[SelectItem],
        aggregate_calls: list[FunctionCall],
        relations: dict[str, _Relation],
    ):
        group_exprs = list(statement.group_by)
        specs: list[AggSpec] = []
        for index, call in enumerate(aggregate_calls):
            argument: Expr | None
            if not call.args or isinstance(call.args[0], Star):
                argument = None
            else:
                argument = call.args[0]
            specs.append(
                AggSpec(
                    function=self.functions.aggregate(call.name),
                    argument=argument,
                    distinct=call.distinct,
                    output_name=f"__agg{index}",
                )
            )

        est_groups = self._estimate_groups(group_exprs, plan, relations)
        agg_row_bytes = 16.0 * (len(group_exprs) + len(specs)) + HASH_ENTRY_OVERHEAD_BYTES
        if est_groups * agg_row_bytes <= self.work_mem_bytes:
            agg: PlanNode = HashAggregate(plan, group_exprs, specs, est_groups)
        else:
            sorted_input = Sort(plan, [(e, True) for e in group_exprs])
            agg = GroupAggregate(sorted_input, group_exprs, specs, est_groups)

        # Rewrite outer expressions onto the aggregate's output layout.
        mapping: list[tuple[Expr, Expr]] = []
        for index, group_expr in enumerate(group_exprs):
            mapping.append((group_expr, ColumnRef(None, f"__key{index}")))
        for call, spec in zip(aggregate_calls, specs):
            mapping.append((call, ColumnRef(None, spec.output_name)))

        new_items = [
            SelectItem(_replace_subtrees(item.expr, mapping), item.alias)
            for item in select_items
        ]
        self._validate_aggregated(new_items, agg)
        having = (
            _replace_subtrees(statement.having, mapping)
            if statement.having is not None
            else None
        )
        order_items = [
            OrderItem(_replace_subtrees(item.expr, mapping), item.ascending)
            for item in statement.order_by
        ]
        return agg, new_items, having, order_items

    def _validate_aggregated(self, items: list[SelectItem], agg: PlanNode) -> None:
        valid_names = {name for _qualifier, name in agg.output_columns}
        for item in items:
            for ref in referenced_columns(item.expr):
                if ref.table is None and ref.name in valid_names:
                    continue
                raise PlanningError(
                    f"column {ref} must appear in GROUP BY or an aggregate"
                )

    def _estimate_groups(
        self,
        group_exprs: list[Expr],
        plan: PlanNode,
        relations: dict[str, _Relation],
    ) -> float:
        if not group_exprs:
            return 1.0
        stats_lookup = self._column_stats_for(relations)
        estimate = 1.0
        for expr in group_exprs:
            if contains_function_call(expr) or not isinstance(expr, ColumnRef):
                # Opaque key (UDF over the reservoir): default guess, exactly
                # like PostgreSQL's DEFAULT_NUM_DISTINCT.
                estimate *= DEFAULT_N_DISTINCT
                continue
            stats = stats_lookup(expr)
            if stats is not None and stats.n_distinct > 0:
                estimate *= stats.n_distinct
            else:
                estimate *= DEFAULT_N_DISTINCT
        return min(estimate, max(1.0, plan.est_rows))

    def _plan_distinct(
        self,
        plan: PlanNode,
        relations: dict[str, _Relation],
        select_exprs: list[Expr],
        pre_projection: PlanNode,
    ) -> PlanNode:
        """DISTINCT over the projection: hash when the estimated distinct set
        fits work_mem, otherwise sort + unique.

        The distinct-set estimate uses column statistics for physical
        columns and the DEFAULT_N_DISTINCT guess for anything hidden
        behind a UDF -- so DISTINCT over a Sinew virtual column hashes (the
        200-group guess always fits) while the same query over the
        materialized physical column switches to Sort+Unique once the true
        distinct count outgrows work_mem.  That is the first row of the
        paper's Table 2.
        """
        group_exprs = [ColumnRef(None, name) for _qualifier, name in plan.output_columns]
        est_groups = self._estimate_groups(select_exprs, pre_projection, relations)
        row_bytes = plan.est_row_bytes + HASH_ENTRY_OVERHEAD_BYTES
        if est_groups * row_bytes <= self.work_mem_bytes:
            return HashAggregate(plan, group_exprs, [], est_groups)
        ordered = Sort(plan, [(e, True) for e in group_exprs])
        return Unique(ordered)

    def _resolvable(self, expressions: list[Expr], plan: PlanNode) -> bool:
        available_unqualified = {name for _qualifier, name in plan.output_columns}
        available_qualified = {
            (qualifier, name)
            for qualifier, name in plan.output_columns
            if qualifier is not None
        }
        for expr in expressions:
            for ref in referenced_columns(expr):
                if ref.table is None:
                    if ref.name not in available_unqualified:
                        return False
                elif (ref.table, ref.name) not in available_qualified:
                    return False
        return True

    def _rewrite_for_output(
        self, expr: Expr, select_items: list[SelectItem], names: list[str]
    ) -> Expr:
        mapping: list[tuple[Expr, Expr]] = []
        for item, name in zip(select_items, names):
            mapping.append((item.expr, ColumnRef(None, name)))
            if item.alias is not None and isinstance(expr, ColumnRef):
                if expr.table is None and expr.name == item.alias:
                    return ColumnRef(None, name)
        rewritten = _replace_subtrees(expr, mapping)
        for ref in referenced_columns(rewritten):
            if ref.table is None and ref.name in names:
                continue
            raise PlanningError(
                "ORDER BY expression must appear in the SELECT list: " f"{expr}"
            )
        return rewritten

    @staticmethod
    def _output_name(item: SelectItem, index: int) -> str:
        if item.alias is not None:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.name
        if isinstance(item.expr, FunctionCall):
            return item.expr.name
        return f"column{index + 1}"


# ---------------------------------------------------------------------------
# expression utilities
# ---------------------------------------------------------------------------


def _resolve_ordinal(item: OrderItem, select_items: list[SelectItem]) -> OrderItem:
    """``ORDER BY n`` sorts on the n-th select item, as in PostgreSQL."""
    value = item.expr.value if isinstance(item.expr, Literal) else None
    if not isinstance(value, int) or isinstance(value, bool):
        return item
    if not 1 <= value <= len(select_items):
        raise PlanningError(f"ORDER BY position {value} is not in select list")
    return OrderItem(select_items[value - 1].expr, item.ascending)


def _split_conjuncts(predicate: Expr | None) -> list[Expr]:
    """Flatten a WHERE clause into top-level AND conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BinaryOp) and predicate.op == "AND":
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


_MIRRORED_COMPARISON = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _constant(expr: Expr) -> Any:
    """The value of a literal, signed or not; None for anything else
    (and for NULL, which no index condition can hold)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, UnaryOp) and expr.op in ("+", "-"):
        value = _constant(expr.operand)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return -value if expr.op == "-" else value
    return None


def _index_target(
    subject: Expr, table: HeapTable, binding: str, functions: FunctionRegistry | None
) -> tuple[IndexTarget, Callable[[Any], bool] | None] | None:
    """The index ``subject`` can be read from and its key test, or None.

    A plain column of ``table``, or a call of a non-volatile function
    with a specializer hook on such a column and literals -- the shape the
    compiler hands that hook, ``extract_key_num(data, 'dyn1')``.  A
    ``COALESCE`` of such subjects (Sinew's bridge over a dirty column) is
    read from the union of their indexes, for a literal every one of them
    accepts: its value is its first non-NULL argument's, and that
    argument's index lists the row.
    """
    if isinstance(subject, Coalesce):
        found = [_index_target(arg, table, binding, functions) for arg in subject.args]
        if any(f is None or f[1] is None or isinstance(f[0], UnionTarget) for f in found):
            return None
        tests = [holds for _target, holds in found]
        union = UnionTarget(tuple(target for target, _holds in found))
        return union, lambda value: all(holds(value) for holds in tests)

    def own_column(expr: Expr) -> bool:
        return (
            isinstance(expr, ColumnRef)
            and expr.table in (None, binding)
            and expr.name in table.schema
        )

    if own_column(subject):
        return subject.name, index_key_test(table.schema.column(subject.name).sql_type)
    if not (
        isinstance(subject, FunctionCall)
        and functions is not None
        and functions.has_scalar(subject.name)
        and len(subject.args) >= 2
        and own_column(subject.args[0])
        and all(isinstance(arg, Literal) for arg in subject.args[1:])
    ):
        return None
    function = functions.scalar(subject.name)
    if function.volatile or function.specializer is None:
        return None
    args = tuple(arg.value for arg in subject.args[1:])
    target = IndexExpression(function, subject.args[0].name, args)
    return target, index_key_test(function.return_type)


def _shape_access(target: IndexTarget, table: HeapTable) -> tuple[ShapeTarget, Any, float] | None:
    """The shape index an expression index's call can also be read from:
    its target, the call to probe it for, and the catalog's estimate of
    the rows it lists as a selectivity; None where the call's family has
    no ``shapes`` hook or the hook declines."""
    if not isinstance(target, IndexExpression):
        return None
    family, tag = target.function.specializer
    hook = getattr(family, "shapes", None)
    keys = None if hook is None else hook(tag, target.args, target.column)
    rows = None if keys is None else keys.occurrences(table.name)
    if rows is None:
        return None
    return ShapeTarget(keys.group, target.column), keys, min(1.0, rows / max(1, len(table)))


def _search_access(
    predicate: Expr, table: HeapTable, binding: str, functions: FunctionRegistry
) -> tuple[IndexTarget, Any, float] | None:
    """The index a call of a function with a ``search`` hook (Sinew's
    ``sinew_matches``) can be read from: its target, the probe, and the
    hook's estimate of the rows it lists as a selectivity; None where the
    predicate is no such call or the hook declines."""
    if not isinstance(predicate, FunctionCall) or not functions.has_scalar(predicate.name):
        return None
    search = functions.scalar(predicate.name).search
    found = search and search(predicate.args, table, binding)
    if not found:
        return None
    target, probe, rows = found
    return target, probe, min(1.0, rows / max(1, len(table)))


def _bridge_selectivity(
    predicate: Expr, target: UnionTarget, binding: str, estimator: SelectivityEstimator
) -> float:
    """What ``predicate`` on a union's COALESCE selects, estimated as on
    the union's plain column: the logical column holds the same values
    wherever a row keeps its own, and that column has statistics where
    the extraction has only the fixed UDF default."""
    column = next((member for member in target.members if isinstance(member, str)), None)
    if column is None:
        return estimator.estimate(predicate)
    physical = ColumnRef(binding, column)

    def read(expr: Expr) -> Expr:
        if isinstance(expr, Coalesce):
            return physical
        return replace_children(expr, [read(child) for child in expr.children()])

    return estimator.estimate(read(predicate))


def _index_condition(
    predicate: Expr,
    table: HeapTable,
    binding: str,
    functions: FunctionRegistry | None = None,
) -> tuple[IndexTarget, list[KeyRange]] | None:
    """Read ``predicate`` as key ranges of an ordered index of ``table``.

    Recognised: an indexable subject (:func:`_index_target`) with an
    ordered type compared with literals by ``=``, ``<``, ``<=``, ``>``,
    ``>=`` (either operand order), ``BETWEEN`` or ``IN``, none negated.
    Every literal must sit in the subject's own comparison bracket -- a
    number for a numeric one, text for text -- because only then does the
    index order agree with what the expression evaluates to; ``str1 = 5``,
    a NULL or NaN literal, and a second column as operand are left to the
    scan.
    """
    if isinstance(predicate, BinaryOp) and predicate.op in _MIRRORED_COMPARISON:
        subject, op, operands = predicate.left, predicate.op, [predicate.right]
        if _constant(subject) is not None:
            subject, op, operands = predicate.right, _MIRRORED_COMPARISON[op], [predicate.left]
    elif isinstance(predicate, Between) and not predicate.negated:
        subject, op, operands = predicate.operand, "between", [predicate.low, predicate.high]
    elif isinstance(predicate, InList) and not predicate.negated and predicate.items:
        subject, op, operands = predicate.operand, "in", list(predicate.items)
    else:
        return None
    found = _index_target(subject, table, binding, functions)
    if found is None:
        return None
    target, holds = found
    values = [_constant(operand) for operand in operands]
    if holds is None or not all(map(holds, values)):
        return None
    if op == "between":
        ranges = [(values[0], True, values[1], True)]
    elif op in ("=", "in"):
        ranges = [(value, True, value, True) for value in values]
    elif op in ("<", "<="):
        ranges = [(None, True, values[0], op == "<=")]
    else:
        ranges = [(values[0], op == ">=", None, True)]
    return target, ranges


def _replace_subtrees(expr: Expr, mapping: list[tuple[Expr, Expr]]) -> Expr:
    """Structurally replace subtrees of ``expr`` (used for aggregate and
    group-key substitution)."""
    for original, replacement in mapping:
        if expr == original:
            return replacement
    children = [_replace_subtrees(child, mapping) for child in expr.children()]
    return replace_children(expr, children)
