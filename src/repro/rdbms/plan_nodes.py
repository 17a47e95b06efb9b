"""Physical plan operators: cost estimates, execution, and EXPLAIN text.

Each node carries

* ``output_columns`` -- the ``(qualifier, name)`` layout of its output rows,
* ``est_rows`` / ``est_row_bytes`` / ``est_cost`` -- the planner's estimates,
* ``rows(context)`` -- a generator executing the operator, and
* ``explain_lines()`` -- PostgreSQL-flavoured EXPLAIN output.

The operator inventory mirrors what the paper's Table 2 plans mention:
Seq Scan, Index Scan, Filter, Project, Nested Loop / Hash Join / Merge
Join, Sort, Unique, HashAggregate, GroupAggregate, and Limit.

The scan side has one body.  :func:`fuse` turns every maximal
``Filter* -> Project? -> (Sort | HashAggregate)?`` chain of a planned tree
into a :class:`BatchFragment`, which runs the chain batch-at-a-time
(:mod:`repro.rdbms.vectorized`) on the calling thread; Seq Scan, Index
Scan, Filter, Project, Sort and HashAggregate describe a fragment's source
and stages and have no row body of their own.  Joins, Limit, Unique and
GroupAggregate iterate rows.

Memory-overflow behaviour matters for the reproduction: Sort and the two
hash operators charge scratch space against the database's
:class:`~repro.rdbms.cost.DiskBudget` whenever their input exceeds
``work_mem`` -- this is the mechanism by which the EAV baseline dies with
"out of disk" on NoBench Q8/Q9/Q11 and MongoDB's client-side join dies on
Q11, exactly as reported in paper sections 6.4-6.5.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from .cost import CostCounters, DiskBudget, ExtractionStats
from .errors import ExecutionError
from .expressions import (
    Expr,
    SchemaResolver,
    Star,
    compile_expr,
    contains_function_call,
)
from .functions import AggregateFunction, FunctionRegistry
from .storage import HeapTable, IndexTarget, KeyRange
from .vectorized import BATCH_ROWS, BatchProgram, Stage, compile_batch, rebatch, staged

Row = tuple
OutputColumns = list[tuple[str | None, str]]

#: Abstract cost units, PostgreSQL-style.
SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 4.0
CPU_TUPLE_COST = 0.01
CPU_OPERATOR_COST = 0.0025
UDF_CALL_COST = 0.1
SORT_COST_FACTOR = 0.02


class ExecutionContext:
    """Runtime services handed to every operator."""

    def __init__(
        self,
        counters: CostCounters,
        functions: FunctionRegistry,
        disk: DiskBudget,
        work_mem_bytes: int,
        *,
        analyze: bool = False,
        use_extraction_cache: bool = True,
        extraction_hint: int | None = None,
    ):
        self.counters = counters
        self.functions = functions
        self.disk = disk
        self.work_mem_bytes = work_mem_bytes
        #: EXPLAIN ANALYZE mode: operators record per-node row counts and
        #: inclusive wall time into :attr:`node_stats` (keyed by ``id(node)``)
        self.analyze = analyze
        self.node_stats: dict[int, NodeStats] = {}
        #: per-query extraction counters, shared with the reservoir
        #: extractor's decode cache for the lifetime of this query
        self.extract_stats = ExtractionStats()
        #: whether the extractor may cache decoded headers for this query
        self.use_extraction_cache = use_extraction_cache
        #: rewriter hint: max distinct keys extracted per row (multi-key
        #: queries are the ones the decode cache pays off on)
        self.extraction_hint = extraction_hint
        #: header memo size the reservoir extractor gives this query: a
        #: stage runs over a whole batch before the next stage, and the
        #: sort-key or grouping stage, read the same documents
        self.extraction_cache_capacity = BATCH_ROWS


@dataclass
class NodeStats:
    """EXPLAIN ANALYZE measurements for one plan node."""

    rows: int = 0
    seconds: float = 0.0
    loops: int = 0


class PlanNode:
    """Base physical operator."""

    output_columns: OutputColumns
    est_rows: float = 0.0
    est_row_bytes: float = 48.0
    est_cost: float = 0.0

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        raise NotImplementedError

    def run(self, context: ExecutionContext) -> Iterator[Row]:
        """Execute this node, recording EXPLAIN ANALYZE stats when asked.

        Internal plan edges call ``child.run(context)`` rather than
        ``child.rows(context)`` so instrumentation wraps every operator.
        Outside ANALYZE mode this is the raw row iterator -- no wrapper
        generator frame sits between operators on the normal path.
        """
        if not context.analyze:
            return self.rows(context)
        return self._run_instrumented(context)

    def _run_instrumented(self, context: ExecutionContext) -> Iterator[Row]:
        """ANALYZE-mode execution: per-node row counts and inclusive wall
        time (a parent's clock keeps running while it pulls from its
        children, matching PostgreSQL's actual-time semantics)."""
        stats = context.node_stats.get(id(self))
        if stats is None:
            stats = context.node_stats[id(self)] = NodeStats()
        stats.loops += 1
        iterator = self.rows(context)
        while True:
            started = time.perf_counter()
            try:
                row = next(iterator)
            except StopIteration:
                stats.seconds += time.perf_counter() - started
                return
            stats.seconds += time.perf_counter() - started
            stats.rows += 1
            yield row

    def node_label(self) -> str:
        raise NotImplementedError

    def _annotation_lines(self, depth: int) -> list[str]:
        """What EXPLAIN prints under this node's own line (an index
        condition)."""
        return []

    def explain_lines(self, depth: int = 0) -> list[str]:
        prefix = "" if depth == 0 else "  " * depth + "->  "
        line = f"{prefix}{self.node_label()}  (rows={int(self.est_rows)})"
        lines = [line, *self._annotation_lines(depth)]
        for child in self.children():
            lines.extend(child.explain_lines(depth + 1))
        return lines

    def explain(self) -> str:
        return "\n".join(self.explain_lines())

    def explain_analyze_lines(
        self, context: ExecutionContext, depth: int = 0
    ) -> list[str]:
        """EXPLAIN ANALYZE rendering: estimates plus measured actuals."""
        prefix = "" if depth == 0 else "  " * depth + "->  "
        stats = context.node_stats.get(id(self))
        if stats is None:
            actual = "(never executed)"
        else:
            actual = (
                f"(actual rows={stats.rows} loops={stats.loops} "
                f"time={stats.seconds * 1000:.3f} ms)"
            )
        lines = [
            f"{prefix}{self.node_label()}  (rows={int(self.est_rows)})  {actual}",
            *self._annotation_lines(depth),
        ]
        for child in self.children():
            lines.extend(child.explain_analyze_lines(context, depth + 1))
        return lines

    def resolver(self, functions: FunctionRegistry) -> SchemaResolver:
        return SchemaResolver(self.output_columns, functions)

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


class SeqScan(PlanNode):
    """Full scan of a heap table through the buffer pool: a fragment's
    page walk."""

    def __init__(self, table: HeapTable, qualifier: str, est_rows: float | None = None):
        self.table = table
        self.qualifier = qualifier
        self.output_columns = [(qualifier, c.name) for c in table.schema]
        self.est_rows = float(len(table)) if est_rows is None else est_rows
        self.est_row_bytes = (
            table.total_bytes / max(1, len(table)) if len(table) else 48.0
        )
        self.est_cost = table.n_pages * SEQ_PAGE_COST + len(table) * CPU_TUPLE_COST

    def node_label(self) -> str:
        name = self.table.name
        if self.qualifier != name:
            return f"Seq Scan on {name} {self.qualifier}"
        return f"Seq Scan on {name}"


class IndexScan(PlanNode):
    """Fetch of the rows one ordered index lists for a condition.

    ``condition`` is the WHERE conjunct the planner read ``target`` (a
    column or an expression over one) and ``ranges`` from.  The index
    names candidates; every fetched row is tested against ``condition``
    itself, as a fragment's first stage (reads run beside writers, and a
    listed row can have changed by the time it is fetched).  Rows come
    out in heap order, like a Seq Scan's.  The row estimate is the built
    index's exact count in ``ranges``, else the ``selectivity`` estimate.
    """

    def __init__(
        self,
        table: HeapTable,
        qualifier: str,
        target: IndexTarget,
        ranges: Sequence[KeyRange],
        condition: Expr,
        selectivity: float,
    ):
        self.table = table
        self.qualifier = qualifier
        self.target = target
        self.ranges = list(ranges)
        self.condition = condition
        self.output_columns = [(qualifier, c.name) for c in table.schema]
        count = table.index_count(target, self.ranges)
        self.est_rows = max(1.0, len(table) * selectivity if count is None else count)
        self.est_row_bytes = table.total_bytes / len(table) if len(table) else 48.0
        # fetched in heap order, so no page is visited twice
        self.est_cost = min(self.est_rows, table.n_pages) * RANDOM_PAGE_COST + (
            self.est_rows * (CPU_TUPLE_COST + predicate_cost(condition))
        )

    def node_label(self) -> str:
        name = self.table.name
        alias = "" if self.qualifier == name else f" {self.qualifier}"
        return f"Index Scan on {name}{alias} using {self.target}"

    def _annotation_lines(self, depth: int) -> list[str]:
        return [f"{'  ' * (depth + 2)}Index Cond: {self.condition}"]


def predicate_cost(predicate: Expr) -> float:
    """Cost of evaluating ``predicate`` on one row.  One that calls a
    function is charged a ``UDF_CALL_COST`` on top of the operator cost:
    that is what evaluating ``extract_key_*(data, 'k')`` over every row of
    a scan costs, and what an index on the expression saves."""
    if contains_function_call(predicate):
        return CPU_OPERATOR_COST + UDF_CALL_COST
    return CPU_OPERATOR_COST


class Filter(PlanNode):
    """Row filter; keeps rows whose predicate evaluates to TRUE."""

    def __init__(self, child: PlanNode, predicate: Expr, selectivity: float):
        self.child = child
        self.predicate = predicate
        self.output_columns = list(child.output_columns)
        self.est_rows = max(1.0, child.est_rows * selectivity)
        self.est_row_bytes = child.est_row_bytes
        self.est_cost = child.est_cost + child.est_rows * predicate_cost(predicate)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def node_label(self) -> str:
        return f"Filter: {self.predicate}"

    def explain_lines(self, depth: int = 0) -> list[str]:
        # Postgres renders filters as an annotation of the child node; we
        # keep the filter visible but inline its child at the same depth.
        prefix = "" if depth == 0 else "  " * depth + "->  "
        lines = [f"{prefix}{self.node_label()}  (rows={int(self.est_rows)})"]
        lines.extend(self.child.explain_lines(depth + 1))
        return lines


class Project(PlanNode):
    """Computes the SELECT list."""

    def __init__(
        self,
        child: PlanNode,
        expressions: Sequence[Expr],
        names: Sequence[str],
    ):
        if len(expressions) != len(names):
            raise ExecutionError("projection arity mismatch")
        self.child = child
        self.expressions = list(expressions)
        self.output_columns = [(None, name) for name in names]
        self.est_rows = child.est_rows
        self.est_row_bytes = max(16.0, 16.0 * len(expressions))
        self.est_cost = child.est_cost + child.est_rows * CPU_OPERATOR_COST * max(
            1, len(expressions)
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def node_label(self) -> str:
        rendered = ", ".join(str(e) for e in self.expressions)
        if len(rendered) > 160:
            rendered = rendered[:157] + "..."
        return f"Project: {rendered}"


class Limit(PlanNode):
    def __init__(self, child: PlanNode, limit: int):
        self.child = child
        self.limit = limit
        self.output_columns = list(child.output_columns)
        self.est_rows = min(child.est_rows, float(limit))
        self.est_row_bytes = child.est_row_bytes
        self.est_cost = child.est_cost

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        produced = 0
        child = self.child
        if isinstance(child, BatchFragment):
            # a fragment evaluates no row this loop would not pull: the
            # rows still to pass, plus the one that ends the loop
            batches = child.batches(context, lambda: self.limit - produced + 1)
            source: Iterable[Row] = (row for batch in batches for row in batch)
        else:
            source = child.run(context)
        for row in source:
            if produced >= self.limit:
                return
            produced += 1
            yield row

    def node_label(self) -> str:
        return f"Limit {self.limit}"


def _encode_sort_value(value: Any) -> tuple:
    """Total-order encoding of one sort-key value.

    Values of mixed types are bucketed by a type rank first so ``sorted``
    never raises (a type-bracketed collation); containers are encoded
    recursively so arrays holding NULLs or mixed types compare safely too.
    """
    if isinstance(value, bool):
        return (1, "bool", int(value))
    if isinstance(value, (int, float)):
        return (0, "num", float(value))
    if isinstance(value, str):
        return (2, "str", value)
    if isinstance(value, bytes):
        return (3, "bytes", value)
    if isinstance(value, (list, tuple)):
        return (
            4,
            "array",
            tuple(
                (5, "null", 0) if element is None else _encode_sort_value(element)
                for element in value
            ),
        )
    return (6, type(value).__name__, repr(value))


def sort_rows(decorated: list[tuple[tuple, Row]], ascending: Sequence[bool]) -> None:
    """In-place multi-key sort of ``(key values, row)`` pairs with explicit
    NULL placement.

    NULLs sort *last* ascending and *first* descending (PostgreSQL's
    defaults).  One stable pass per key, applied last-key-first, gives
    per-key direction without any comparison-inverting wrapper -- the NULL
    flag leads the key tuple, so ``reverse=True`` flips it along with the
    value.
    """
    for index in reversed(range(len(ascending))):

        def key(pair: tuple[tuple, Row], index=index) -> tuple:
            value = pair[0][index]
            if value is None:
                return (1, ())
            return (0, _encode_sort_value(value))

        decorated.sort(key=key, reverse=not ascending[index])


class Sort(PlanNode):
    """Full in-memory sort; charges scratch space when over work_mem."""

    def __init__(self, child: PlanNode, keys: Sequence[tuple[Expr, bool]]):
        self.child = child
        self.keys = list(keys)
        self.output_columns = list(child.output_columns)
        self.est_rows = child.est_rows
        self.est_row_bytes = child.est_row_bytes
        n = max(2.0, child.est_rows)
        self.est_cost = child.est_cost + SORT_COST_FACTOR * n * math.log2(n)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def fold_exprs(self) -> list[Expr]:
        """What the fragment's last stage evaluates per row: the keys."""
        return [expr for expr, _asc in self.keys]

    def fold(
        self, context: ExecutionContext, batches: Iterable[list[Row]], stage: Stage
    ) -> Iterator[list[Row]]:
        """Sort the fragment's output; ``stage`` maps a batch to its keys."""
        decorated: list[tuple[tuple, Row]] = []
        for batch in batches:
            decorated.extend(zip(stage(batch), batch))
        spilled = charge_spill(context, len(decorated), self.child.est_row_bytes)
        sort_rows(decorated, [asc for _expr, asc in self.keys])
        release_spill(context, spilled)
        if decorated:
            yield [row for _values, row in decorated]

    def node_label(self) -> str:
        rendered = ", ".join(
            f"{expr}{'' if asc else ' DESC'}" for expr, asc in self.keys
        )
        return f"Sort  Key: {rendered}"


def charge_spill(context: ExecutionContext, n_rows: int, row_bytes: float) -> int:
    """Charge scratch space for a buffered input exceeding work_mem.

    Returns the number of bytes charged (0 when the input fit in memory) so
    the caller can release them when the operator finishes.
    """
    total = int(n_rows * max(row_bytes, 16.0))
    if total <= context.work_mem_bytes:
        return 0
    spill = total - context.work_mem_bytes
    context.counters.spill_bytes += spill
    context.disk.charge(spill)
    return spill


def release_spill(context: ExecutionContext, spilled: int) -> None:
    if spilled:
        context.disk.release(spilled)


class Unique(PlanNode):
    """Removes duplicates from *sorted* input (pairs with Sort)."""

    def __init__(self, child: PlanNode):
        self.child = child
        self.output_columns = list(child.output_columns)
        self.est_rows = max(1.0, child.est_rows * 0.9)
        self.est_row_bytes = child.est_row_bytes
        self.est_cost = child.est_cost + child.est_rows * CPU_OPERATOR_COST

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        previous: Row | None = None
        first = True
        for row in self.child.run(context):
            if first or row != previous:
                yield row
            previous = row
            first = False

    def node_label(self) -> str:
        return "Unique"


@dataclass
class AggSpec:
    """One aggregate in the SELECT/HAVING list."""

    function: AggregateFunction
    argument: Expr | None  # None for count(*)
    distinct: bool
    output_name: str


class _AggregateBase(PlanNode):
    """Shared machinery for hash and sorted grouping.

    A row is folded from one tuple of values: its group key, then the
    argument of every aggregate that has one (``count(*)`` has none).  A
    group is its aggregate states plus, for each DISTINCT aggregate, the
    set of values it has seen.
    """

    def __init__(
        self,
        child: PlanNode,
        group_exprs: Sequence[Expr],
        aggregates: Sequence[AggSpec],
        est_groups: float,
    ):
        self.child = child
        self.group_exprs = list(group_exprs)
        self.aggregates = list(aggregates)
        self.output_columns = [
            (None, f"__key{i}") for i in range(len(self.group_exprs))
        ] + [(None, spec.output_name) for spec in self.aggregates]
        self.est_rows = max(1.0, est_groups)
        self.est_row_bytes = 16.0 * max(1, len(self.output_columns))
        self.est_cost = child.est_cost + child.est_rows * CPU_OPERATOR_COST * (
            len(self.group_exprs) + len(self.aggregates) + 1
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def fold_exprs(self) -> list[Expr]:
        """What one row is folded from, in value-tuple order."""
        arguments = [spec.argument for spec in self.aggregates if not _counts_rows(spec)]
        return [*self.group_exprs, *arguments]

    def _new_group(self) -> tuple[list, list]:
        return (
            [spec.function.init() for spec in self.aggregates],
            [set() if spec.distinct else None for spec in self.aggregates],
        )

    def _stepper(self) -> Callable[[tuple[list, list], tuple], None]:
        """``step(group, values)``: fold one row's values into a group."""
        aggregates = self.aggregates
        slots: list[int | None] = []  # where each argument sits in values
        position = len(self.group_exprs)
        for spec in aggregates:
            if _counts_rows(spec):
                slots.append(None)
            else:
                slots.append(position)
                position += 1

        def step(group: tuple[list, list], values: tuple) -> None:
            states, seen = group
            for index, spec in enumerate(aggregates):
                slot = slots[index]
                if slot is None:
                    value: Any = 1  # count(*) counts every row
                else:
                    value = values[slot]
                    if value is None and spec.function.skip_nulls:
                        continue
                if spec.distinct:
                    if value in seen[index]:
                        continue
                    seen[index].add(value)
                states[index] = spec.function.step(states[index], value)

        return step

    def _finalise(self, key: tuple, group: tuple[list, list]) -> Row:
        return key + tuple(
            spec.function.final(state)
            for spec, state in zip(self.aggregates, group[0])
        )


def _counts_rows(spec: AggSpec) -> bool:
    return spec.argument is None or isinstance(spec.argument, Star)


class HashAggregate(_AggregateBase):
    """Hash-based grouping; also implements hash DISTINCT when it has no
    aggregate specs (each group key is the full distinct row).  Groups
    come out in the order their first row arrived."""

    def fold(
        self, context: ExecutionContext, batches: Iterable[list[Row]], stage: Stage
    ) -> Iterator[list[Row]]:
        """Aggregate the fragment's output; ``stage`` maps a batch to the
        rows' :meth:`fold_exprs` values."""
        step = self._stepper()
        n_keys = len(self.group_exprs)
        groups: dict[tuple, tuple[list, list]] = {}
        for batch in batches:
            for values in stage(batch):
                key = values[:n_keys]
                group = groups.get(key)
                if group is None:
                    group = groups[key] = self._new_group()
                step(group, values)
        if not groups and not self.group_exprs:
            # SQL: a global aggregate always yields exactly one row.
            yield [self._finalise((), self._new_group())]
            return
        spilled = charge_spill(context, len(groups), self.est_row_bytes)
        try:
            yield [self._finalise(key, group) for key, group in groups.items()]
        finally:
            release_spill(context, spilled)

    def node_label(self) -> str:
        return "HashAggregate"


class GroupAggregate(_AggregateBase):
    """Sort-based grouping over input already sorted on the group keys."""

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        resolver = self.child.resolver(context.functions)
        fns = [compile_expr(expr, resolver) for expr in self.fold_exprs()]
        step = self._stepper()
        n_keys = len(self.group_exprs)
        current_key: tuple = ()
        group: tuple[list, list] | None = None
        for row in self.child.run(context):
            values = tuple(fn(row) for fn in fns)
            key = values[:n_keys]
            if group is None or key != current_key:
                if group is not None:
                    yield self._finalise(current_key, group)
                current_key, group = key, self._new_group()
            step(group, values)
        if group is not None:
            yield self._finalise(current_key, group)
        elif not self.group_exprs:
            yield self._finalise((), self._new_group())

    def node_label(self) -> str:
        return "GroupAggregate"


class NestedLoopJoin(PlanNode):
    """Materialised-inner nested loop with optional join condition."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        condition: Expr | None,
        est_rows: float,
    ):
        self.outer = outer
        self.inner = inner
        self.condition = condition
        self.output_columns = list(outer.output_columns) + list(inner.output_columns)
        self.est_rows = max(1.0, est_rows)
        self.est_row_bytes = outer.est_row_bytes + inner.est_row_bytes
        self.est_cost = (
            outer.est_cost
            + inner.est_cost
            + outer.est_rows * inner.est_rows * CPU_OPERATOR_COST
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        inner_rows = list(self.inner.run(context))
        spilled = charge_spill(context, len(inner_rows), self.inner.est_row_bytes)
        try:
            compiled = (
                compile_expr(self.condition, self.resolver(context.functions))
                if self.condition is not None
                else None
            )
            for outer_row in self.outer.run(context):
                for inner_row in inner_rows:
                    combined = outer_row + inner_row
                    if compiled is None or compiled(combined) is True:
                        yield combined
        finally:
            release_spill(context, spilled)

    def node_label(self) -> str:
        return "Nested Loop"


class HashJoin(PlanNode):
    """Equi-join building a hash table on the inner input."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_keys: Sequence[Expr],
        inner_keys: Sequence[Expr],
        est_rows: float,
        residual: Expr | None = None,
    ):
        self.outer = outer
        self.inner = inner
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.residual = residual
        self.output_columns = list(outer.output_columns) + list(inner.output_columns)
        self.est_rows = max(1.0, est_rows)
        self.est_row_bytes = outer.est_row_bytes + inner.est_row_bytes
        self.est_cost = (
            outer.est_cost
            + inner.est_cost
            + (outer.est_rows + inner.est_rows) * CPU_OPERATOR_COST * 2
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        inner_resolver = self.inner.resolver(context.functions)
        inner_key_fns = [compile_expr(e, inner_resolver) for e in self.inner_keys]
        table: dict[tuple, list[Row]] = {}
        n_inner = 0
        for row in self.inner.run(context):
            key = tuple(fn(row) for fn in inner_key_fns)
            if None in key:
                continue
            table.setdefault(key, []).append(row)
            n_inner += 1
        spilled = charge_spill(context, n_inner, self.inner.est_row_bytes)
        try:
            outer_resolver = self.outer.resolver(context.functions)
            outer_key_fns = [compile_expr(e, outer_resolver) for e in self.outer_keys]
            residual_fn = (
                compile_expr(self.residual, self.resolver(context.functions))
                if self.residual is not None
                else None
            )
            for outer_row in self.outer.run(context):
                key = tuple(fn(outer_row) for fn in outer_key_fns)
                if None in key:
                    continue
                for inner_row in table.get(key, ()):
                    combined = outer_row + inner_row
                    if residual_fn is None or residual_fn(combined) is True:
                        yield combined
        finally:
            release_spill(context, spilled)

    def node_label(self) -> str:
        condition = " AND ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"Hash Join  Cond: {condition}"


class MergeJoin(PlanNode):
    """Sort-merge equi-join (sorts both inputs on the join keys)."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_keys: Sequence[Expr],
        inner_keys: Sequence[Expr],
        est_rows: float,
        residual: Expr | None = None,
    ):
        self.outer: PlanNode = Sort(outer, [(k, True) for k in outer_keys])
        self.inner: PlanNode = Sort(inner, [(k, True) for k in inner_keys])
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.residual = residual
        self.output_columns = list(outer.output_columns) + list(inner.output_columns)
        self.est_rows = max(1.0, est_rows)
        self.est_row_bytes = outer.est_row_bytes + inner.est_row_bytes
        self.est_cost = (
            self.outer.est_cost
            + self.inner.est_cost
            + (outer.est_rows + inner.est_rows) * CPU_OPERATOR_COST
        )

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        outer_resolver = self.outer.resolver(context.functions)
        inner_resolver = self.inner.resolver(context.functions)
        outer_key_fns = [compile_expr(e, outer_resolver) for e in self.outer_keys]
        inner_key_fns = [compile_expr(e, inner_resolver) for e in self.inner_keys]
        residual_fn = (
            compile_expr(self.residual, self.resolver(context.functions))
            if self.residual is not None
            else None
        )

        def key_of(row: Row, fns) -> tuple:
            return tuple(fn(row) for fn in fns)

        outer_rows = [
            r for r in self.outer.run(context)
            if not any(v is None for v in key_of(r, outer_key_fns))
        ]
        inner_rows = [
            r for r in self.inner.run(context)
            if not any(v is None for v in key_of(r, inner_key_fns))
        ]
        i = j = 0
        while i < len(outer_rows) and j < len(inner_rows):
            outer_key = key_of(outer_rows[i], outer_key_fns)
            inner_key = key_of(inner_rows[j], inner_key_fns)
            cmp = _compare_keys(outer_key, inner_key)
            if cmp < 0:
                i += 1
            elif cmp > 0:
                j += 1
            else:
                # gather the matching runs on both sides
                i_end = i
                while (
                    i_end < len(outer_rows)
                    and key_of(outer_rows[i_end], outer_key_fns) == outer_key
                ):
                    i_end += 1
                j_end = j
                while (
                    j_end < len(inner_rows)
                    and key_of(inner_rows[j_end], inner_key_fns) == inner_key
                ):
                    j_end += 1
                for oi in range(i, i_end):
                    for ji in range(j, j_end):
                        combined = outer_rows[oi] + inner_rows[ji]
                        if residual_fn is None or residual_fn(combined) is True:
                            yield combined
                i, j = i_end, j_end

    def node_label(self) -> str:
        condition = " AND ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"Merge Join  Cond: {condition}"


def _type_rank(value: Any) -> int:
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 0
    return 2


def _compare_keys(left: tuple, right: tuple) -> int:
    for lv, rv in zip(left, right):
        lr, rr = _type_rank(lv), _type_rank(rv)
        if lr != rr:
            return -1 if lr < rr else 1
        if lv == rv:
            continue
        try:
            return -1 if lv < rv else 1
        except TypeError:
            ls, rs = str(lv), str(rv)
            if ls == rs:
                continue
            return -1 if ls < rs else 1
    return 0




# ---------------------------------------------------------------------------
# the batch pipeline
# ---------------------------------------------------------------------------


#: ``need()``: how many more rows the consumer of a fragment may pull.
Need = Callable[[], int]

#: The planned nodes a fragment runs as stages.
Chained = Filter | Project | Sort | HashAggregate


class BatchFragment(PlanNode):
    """One ``Filter* -> Project? -> (Sort | HashAggregate)?`` chain, run
    batch-at-a-time on the calling thread.

    ``chain`` lists the planned nodes top-down, ``source`` is what the
    last of them reads: a Seq Scan (a page walk), an Index Scan (an index
    fetch, whose condition is then the first stage) or any other node.
    Each batch passes every filter, the projection and then the sort-key
    or grouping stage before the next batch is cut, so the extraction memo
    only has to span a batch.  EXPLAIN prints the chain as planned.  The
    node holds no per-execution state: a cached plan may run in several
    sessions at once.
    """

    def __init__(self, chain: list[Chained], source: PlanNode, streamed: bool):
        self.chain = chain
        self.source = source
        #: a consumer above may stop after any row, and cannot say how
        #: many it still needs (the outer side of a join under a LIMIT)
        self.streamed = streamed
        top = self.top
        self.output_columns = top.output_columns
        self.est_rows = top.est_rows
        self.est_row_bytes = top.est_row_bytes
        self.est_cost = top.est_cost

    @property
    def top(self) -> PlanNode:
        return self.chain[0] if self.chain else self.source

    def children(self) -> Sequence[PlanNode]:
        return (self.top,)

    def node_label(self) -> str:
        return self.top.node_label()

    def explain_lines(self, depth: int = 0) -> list[str]:
        return self.top.explain_lines(depth)

    def explain_analyze_lines(
        self, context: ExecutionContext, depth: int = 0
    ) -> list[str]:
        return self.top.explain_analyze_lines(context, depth)

    def run(self, context: ExecutionContext) -> Iterator[Row]:
        # ANALYZE figures are kept per planned node, by batches()
        return self.rows(context)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        for batch in self.batches(context):
            yield from batch

    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        """The output batches of one execution.

        Every stage is bound before the first row flows, so each knows
        whether another one reads what it reads.
        """
        source = self.source
        top = self.chain[0] if self.chain else None
        fold = top if isinstance(top, (Sort, HashAggregate)) else None
        size = _batch_size(None if fold else need, self.streamed and fold is None)
        functions, counters = context.functions, context.counters
        # the stages, source side first: the index condition, the filters
        # innermost first, the projection; all read the source's rows
        filters = [node for node in reversed(self.chain) if isinstance(node, Filter)]
        predicates = [node.predicate for node in filters]
        staged_nodes: list[PlanNode] = list(filters)
        if isinstance(source, IndexScan):
            predicates.insert(0, source.condition)
            staged_nodes.insert(0, source)
        project = next((node for node in self.chain if isinstance(node, Project)), None)
        if project is not None:
            staged_nodes.append(project)
        program = BatchProgram(
            SchemaResolver(source.output_columns, functions),
            predicates,
            None if project is None else project.expressions,
        )
        stages = program.bind(counters)

        flow = self._chunks(context, size)
        if isinstance(source, SeqScan):
            flow = _measured(context, source, flow)
        flow = rebatch(flow, size)
        for node, stage in zip(staged_nodes, stages):
            flow = _measured(context, node, staged(stage, flow))
        if fold is not None:
            resolver = SchemaResolver(fold.child.output_columns, functions)
            fold_stage = compile_batch(fold.fold_exprs(), resolver).bind(counters)
            flow = _measured(context, fold, fold.fold(context, flow, fold_stage))
        return flow

    def _chunks(self, context: ExecutionContext, size: Need) -> Iterator[list[Row]]:
        source = self.source
        if isinstance(source, SeqScan):
            return source.table.scan_batches(0, source.table.allocated_rids)
        if isinstance(source, BatchFragment):
            return source.batches(context, size)
        if isinstance(source, IndexScan):
            fetched = source.table.index_fetch(source.target, source.ranges)
            rows: Iterator[Row] = (row for _rid, row in fetched)
        else:
            rows = source.run(context)
        # exactly one batch's rows per pull: a row source is not read ahead
        return iter(lambda: list(islice(rows, size())), [])


def _batch_size(need: Need | None, streamed: bool) -> Need:
    """Rows per input batch: what the consumer still needs, capped at
    :data:`BATCH_ROWS`; one under a consumer that cannot say."""
    if need is not None:
        return lambda: max(1, min(BATCH_ROWS, need()))
    rows = 1 if streamed else BATCH_ROWS
    return lambda: rows


def _measured(
    context: ExecutionContext, node: PlanNode, batches: Iterator[list[Row]]
) -> Iterator[list[Row]]:
    """``batches``, counted and timed for EXPLAIN ANALYZE as ``node``'s
    output (inclusive of everything below it in the fragment)."""
    if not context.analyze:
        return batches
    stats = context.node_stats.setdefault(id(node), NodeStats())
    stats.loops += 1
    return _timed(stats, batches)


def _timed(stats: NodeStats, batches: Iterator[list[Row]]) -> Iterator[list[Row]]:
    while True:
        started = time.perf_counter()
        batch = next(batches, None)
        stats.seconds += time.perf_counter() - started
        if batch is None:
            return
        stats.rows += len(batch)
        yield batch


def fuse(node: PlanNode, streamed: bool = False) -> PlanNode:
    """The executable form of a planned tree: every maximal
    ``Filter* -> Project? -> (Sort | HashAggregate)?`` chain becomes one
    :class:`BatchFragment`, whatever its source.

    ``streamed`` says that a LIMIT above may stop pulling after any row
    without telling how many it still needs; a fragment without a sort or
    an aggregate then hands over one row per batch, so it evaluates no
    row the LIMIT would not have pulled.
    """
    if isinstance(node, BatchFragment):
        return node
    chain: list[Chained] = []
    bottom = node
    if isinstance(bottom, (Sort, HashAggregate)):
        chain.append(bottom)
        bottom = bottom.child
        streamed = False
    if isinstance(bottom, Project):
        chain.append(bottom)
        bottom = bottom.child
    while isinstance(bottom, Filter):
        chain.append(bottom)
        bottom = bottom.child
    if isinstance(bottom, (SeqScan, IndexScan)):
        return BatchFragment(chain, bottom, streamed)
    if chain:
        chain[-1].child = fuse(bottom, streamed)
        return BatchFragment(chain, chain[-1].child, streamed)
    # a row operator: joins, Limit, Unique, GroupAggregate
    if isinstance(node, Limit):
        node.child = fuse(node.child, True)
    elif isinstance(node, (Unique, GroupAggregate)):
        node.child = fuse(node.child, streamed)
    elif isinstance(node, (NestedLoopJoin, HashJoin, MergeJoin)):
        node.outer = fuse(node.outer, streamed)
        node.inner = fuse(node.inner)
    return node
