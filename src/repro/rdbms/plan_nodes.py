"""Physical plan operators: cost estimates, execution, and EXPLAIN text.

Each node carries

* ``output_columns`` -- the ``(qualifier, name)`` layout of its output rows,
* ``est_rows`` / ``est_row_bytes`` / ``est_cost`` -- the planner's estimates,
* ``rows(context)`` -- a generator executing the operator, and
* ``explain_lines()`` -- PostgreSQL-flavoured EXPLAIN output.

The operator inventory mirrors what the paper's Table 2 plans mention:
Seq Scan, Index Scan, Filter, Project, Nested Loop / Hash Join / Merge
Join, Sort, Unique, HashAggregate, GroupAggregate, and Limit.

Memory-overflow behaviour matters for the reproduction: Sort and the two
hash operators charge scratch space against the database's
:class:`~repro.rdbms.cost.DiskBudget` whenever their input exceeds
``work_mem`` -- this is the mechanism by which the EAV baseline dies with
"out of disk" on NoBench Q8/Q9/Q11 and MongoDB's client-side join dies on
Q11, exactly as reported in paper sections 6.4-6.5.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .cost import CostCounters, DiskBudget, ExtractionStats
from .errors import ExecutionError
from .executor import ExecutorPool, partition_morsels
from .expressions import (
    CompiledExpr,
    Expr,
    SchemaResolver,
    Star,
    compile_expr,
    contains_function_call,
)
from .functions import AggregateFunction, FunctionRegistry
from .storage import HeapTable, IndexTarget, KeyRange
from .vectorized import BATCH_ROWS, BatchProgram, compile_batch

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
        #: parallel-execution bookkeeping (populated by the morsel
        #: operators' gather phase; see :meth:`record_parallel`)
        self.parallel_workers = 0
        self.parallel_morsels = 0
        self._worker_stats: dict[int, dict[str, int]] = {}

    def record_parallel(self, workers: int, results: Sequence[Any]) -> None:
        """Fold per-morsel worker results into the query-wide totals.

        Runs single-threaded after the gather, so the shared counters and
        extraction stats stay exact without per-increment locking.  Also
        accumulates a per-OS-thread breakdown for EXPLAIN ANALYZE.
        ``workers`` is the configured width; what is recorded is the
        number of threads that ran, at most one per morsel (a single
        morsel runs inline on the calling thread).
        """
        self.parallel_workers = max(
            self.parallel_workers, min(workers, len(results))
        )
        self.parallel_morsels += len(results)
        for result in results:
            self.counters.accumulate(result.counters)
            self.extract_stats.merge(result.stats)
            bucket = self._worker_stats.setdefault(
                result.thread_ident,
                {
                    "rows": 0,
                    "morsels": 0,
                    "tuples_scanned": 0,
                    "udf_calls": 0,
                    "header_decodes": 0,
                    "header_cache_hits": 0,
                    "subdoc_decodes": 0,
                    "subdoc_cache_hits": 0,
                },
            )
            bucket["rows"] += result.rows
            bucket["morsels"] += 1
            bucket["tuples_scanned"] += result.counters.tuples_scanned
            bucket["udf_calls"] += result.counters.udf_calls
            bucket["header_decodes"] += result.stats.header_decodes
            bucket["header_cache_hits"] += result.stats.header_cache_hits
            bucket["subdoc_decodes"] += result.stats.subdoc_decodes
            bucket["subdoc_cache_hits"] += result.stats.subdoc_cache_hits

    def parallel_summary(self) -> dict[str, Any] | None:
        """Workers/morsels/per-worker counters, or None for serial plans."""
        if not self.parallel_workers:
            return None
        per_worker = [
            {"worker": index, **bucket}
            for index, bucket in enumerate(self._worker_stats.values())
        ]
        return {
            "workers": self.parallel_workers,
            "morsels": self.parallel_morsels,
            "per_worker": per_worker,
        }


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
        """What EXPLAIN prints under this node's own line (a condition or
        a stage folded into the node)."""
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
    """Full scan of a heap table through the buffer pool."""

    def __init__(self, table: HeapTable, qualifier: str, est_rows: float | None = None):
        self.table = table
        self.qualifier = qualifier
        self.output_columns = [(qualifier, c.name) for c in table.schema]
        self.est_rows = float(len(table)) if est_rows is None else est_rows
        self.est_row_bytes = (
            table.total_bytes / max(1, len(table)) if len(table) else 48.0
        )
        self.est_cost = table.n_pages * SEQ_PAGE_COST + len(table) * CPU_TUPLE_COST

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        for rows in self.table.scan_batches(0, self.table.allocated_rids):
            yield from rows

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
    itself (reads run beside writers, and a listed row can have changed
    by the time it is fetched).  Rows come out in heap order, like a Seq
    Scan's.  Never morsel-parallel: the planner takes this path only
    where few rows match.  The row estimate is the built index's exact
    count in ``ranges``, else the ``selectivity`` estimate.
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

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        recheck = compile_expr(self.condition, self.resolver(context.functions))
        for _rid, row in self.table.index_fetch(self.target, self.ranges):
            if recheck(row) is True:
                yield row

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

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        compiled = compile_expr(self.predicate, self.resolver(context.functions))
        for row in self.child.run(context):
            if compiled(row) is True:
                yield row

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

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        resolver = self.child.resolver(context.functions)
        compiled = [compile_expr(e, resolver) for e in self.expressions]
        for row in self.child.run(context):
            yield tuple(fn(row) for fn in compiled)

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
        for row in self.child.run(context):
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


def sort_rows(
    buffered: list[Row], compiled_keys: list[tuple[CompiledExpr, bool]]
) -> None:
    """In-place multi-key sort with explicit NULL placement.

    NULLs sort *last* ascending and *first* descending (PostgreSQL's
    defaults).  One stable pass per key, applied last-key-first, gives
    per-key direction without any comparison-inverting wrapper -- the NULL
    flag leads the key tuple, so ``reverse=True`` flips it along with the
    value.
    """
    for fn, ascending in reversed(compiled_keys):

        def key(row: Row, fn=fn) -> tuple:
            value = fn(row)
            if value is None:
                return (1, ())
            return (0, _encode_sort_value(value))

        buffered.sort(key=key, reverse=not ascending)


class Sort(PlanNode):
    """Full in-memory sort; charges scratch space when over work_mem."""

    def __init__(self, child: PlanNode, keys: Sequence[tuple[Expr, bool]]):
        self.child = child
        self.keys = list(keys)
        self.output_columns = list(child.output_columns)
        self.est_rows = child.est_rows
        self.est_row_bytes = child.est_row_bytes
        n = max(2.0, child.est_rows)
        import math

        self.est_cost = child.est_cost + SORT_COST_FACTOR * n * math.log2(n)

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        resolver = self.child.resolver(context.functions)
        compiled = [(compile_expr(e, resolver), asc) for e, asc in self.keys]
        buffered = list(self.child.run(context))
        spilled = charge_spill(
            context, len(buffered), self.child.est_row_bytes
        )
        sort_rows(buffered, compiled)
        release_spill(context, spilled)
        yield from buffered

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
    """Shared machinery for hash and sorted grouping."""

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

    def _compile(self, context: ExecutionContext):
        resolver = self.child.resolver(context.functions)
        group_fns = [compile_expr(e, resolver) for e in self.group_exprs]
        agg_fns: list[CompiledExpr | None] = []
        for spec in self.aggregates:
            if spec.argument is None or isinstance(spec.argument, Star):
                agg_fns.append(None)
            else:
                agg_fns.append(compile_expr(spec.argument, resolver))
        return group_fns, agg_fns

    def _finalise(self, key: tuple, states: list[Any]) -> Row:
        finals = [
            spec.function.final(state)
            for spec, state in zip(self.aggregates, states)
        ]
        return key + tuple(finals)

    def _step_all(self, specs_states, agg_fns, row, distinct_seen) -> None:
        for index, (spec, _state) in enumerate(specs_states):
            fn = agg_fns[index]
            if fn is None:
                value: Any = 1  # count(*) counts every row
            else:
                value = fn(row)
                if value is None and spec.function.skip_nulls:
                    continue
            if spec.distinct:
                seen = distinct_seen[index]
                if value in seen:
                    continue
                seen.add(value)
            specs_states[index] = (spec, spec.function.step(specs_states[index][1], value))


class HashAggregate(_AggregateBase):
    """Hash-based grouping; also implements hash DISTINCT when it has no
    aggregate specs (each group key is the full distinct row)."""

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        group_fns, agg_fns = self._compile(context)
        groups: dict[tuple, list] = {}
        distinct_sets: dict[tuple, list[set]] = {}
        n_buffered = 0
        for row in self.child.run(context):
            key = tuple(fn(row) for fn in group_fns)
            if key not in groups:
                groups[key] = [
                    (spec, spec.function.init()) for spec in self.aggregates
                ]
                distinct_sets[key] = [set() for _ in self.aggregates]
                n_buffered += 1
            self._step_all(groups[key], agg_fns, row, distinct_sets[key])
        if not groups and not self.group_exprs:
            # SQL: a global aggregate always yields exactly one row.
            states = [(spec, spec.function.init()) for spec in self.aggregates]
            yield self._finalise((), [state for _spec, state in states])
            return
        spilled = charge_spill(context, n_buffered, self.est_row_bytes)
        try:
            for key, specs_states in groups.items():
                yield self._finalise(key, [state for _spec, state in specs_states])
        finally:
            release_spill(context, spilled)

    def node_label(self) -> str:
        return "HashAggregate"


class GroupAggregate(_AggregateBase):
    """Sort-based grouping over input already sorted on the group keys."""

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        group_fns, agg_fns = self._compile(context)
        current_key: tuple | None = None
        states: list | None = None
        distinct_seen: list[set] = []
        for row in self.child.run(context):
            key = tuple(fn(row) for fn in group_fns)
            if key != current_key:
                if states is not None:
                    yield self._finalise(
                        current_key, [state for _spec, state in states]
                    )
                current_key = key
                states = [(spec, spec.function.init()) for spec in self.aggregates]
                distinct_seen = [set() for _ in self.aggregates]
            self._step_all(states, agg_fns, row, distinct_seen)
        if states is not None:
            yield self._finalise(current_key, [state for _spec, state in states])
        elif not self.group_exprs:
            empty = [(spec, spec.function.init()) for spec in self.aggregates]
            yield self._finalise((), [state for _spec, state in empty])

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
        self.outer = Sort(outer, [(k, True) for k in outer_keys])
        self.inner = Sort(inner, [(k, True) for k in inner_keys])
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
# morsel-driven parallel operators
# ---------------------------------------------------------------------------


class _WorkerQueryScope:
    """The minimal execution-context surface query listeners read.

    Each morsel task passes one of these to ``FunctionRegistry.begin_query``
    so the reservoir extractor installs a *per-worker* extraction context
    (its context stack is a ``threading.local``) whose decode counters land
    in the task's private :class:`ExtractionStats`.
    """

    def __init__(
        self,
        stats: ExtractionStats,
        use_extraction_cache: bool,
        extraction_hint: int | None,
    ):
        self.extract_stats = stats
        self.use_extraction_cache = use_extraction_cache
        self.extraction_hint = extraction_hint
        # A whole batch goes through one stage before the next, and the
        # sort-key / grouping stages run after a morsel's last batch, so
        # what a later stage is to find again must survive a few batches.
        self.extraction_cache_capacity = max(256, 4 * BATCH_ROWS)


@dataclass
class _MorselResult:
    """One morsel task's payload plus its private counter bundles."""

    index: int
    payload: Any
    rows: int  # rows surviving the scan + filter stage
    counters: CostCounters
    stats: ExtractionStats
    thread_ident: int


class ParallelScan(PlanNode):
    """Morsel-parallel Seq Scan with pushed-down filters and projection.

    Each worker installs its own extraction context, compiles the pushed
    predicates (and, when folded, the projection) against its private UDF
    counters, and scans one contiguous rid morsel.  The gather walks
    results in morsel order -- rids are allocated in append order, so the
    output row order is identical to the serial Filter/Project chain this
    node replaces.
    """

    def __init__(
        self,
        table: HeapTable,
        qualifier: str,
        predicates: Sequence[Expr],
        projection: tuple[Sequence[Expr], Sequence[str]] | None,
        workers: int,
        pool: ExecutorPool,
        template: PlanNode,
    ):
        self.table = table
        self.qualifier = qualifier
        self.predicates = list(predicates)
        self.projection = (
            (list(projection[0]), list(projection[1]))
            if projection is not None
            else None
        )
        self.workers = workers
        self.pool = pool
        self.scan_columns: OutputColumns = [
            (qualifier, c.name) for c in table.schema
        ]
        if self.projection is not None:
            self.output_columns = [(None, name) for name in self.projection[1]]
        else:
            self.output_columns = list(self.scan_columns)
        self.est_rows = template.est_rows
        self.est_row_bytes = template.est_row_bytes
        self.est_cost = template.est_cost

    # -- worker pipeline -----------------------------------------------------

    def _input_columns(self) -> OutputColumns:
        """Row layout seen by post-processing stages (sort keys, grouping)."""
        if self.projection is not None:
            return [(None, name) for name in self.projection[1]]
        return self.scan_columns

    def _make_task(self, context: ExecutionContext, post=None):
        table = self.table
        functions = context.functions
        use_cache = context.use_extraction_cache
        hint = context.extraction_hint
        # one program per query; each morsel binds it to its own counters
        program = BatchProgram(
            SchemaResolver(self.scan_columns, functions),
            self.predicates,
            self.projection[0] if self.projection is not None else None,
        )

        def run_morsel(morsel):
            counters = CostCounters()
            stats = ExtractionStats()
            scope = _WorkerQueryScope(stats, use_cache, hint)
            functions.begin_query(scope)
            try:
                chunks = table.scan_batches(
                    morsel.start_rid, morsel.end_rid, counters=counters
                )
                payload, n_rows = run_fragment(program, post, chunks, counters)
            finally:
                functions.end_query(scope)
            return _MorselResult(
                morsel.index,
                payload,
                n_rows,
                counters,
                stats,
                threading.get_ident(),
            )

        return run_morsel

    def _gather(self, context: ExecutionContext, post=None) -> list[_MorselResult]:
        morsels = partition_morsels(self.table.allocated_rids)
        results = self.pool.map_morsels(self._make_task(context, post), morsels)
        context.record_parallel(self.workers, results)
        return results

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        for result in self._gather(context):
            yield from result.payload

    # -- explain -------------------------------------------------------------

    def node_label(self) -> str:
        name = self.table.name
        scan = f"Parallel Seq Scan on {name}"
        if self.qualifier != name:
            scan = f"{scan} {self.qualifier}"
        return f"{scan}  (workers={self.workers})"

    def _annotation_lines(self, depth: int) -> list[str]:
        pad = "  " * (depth + 2)
        lines = [f"{pad}Filter: {predicate}" for predicate in self.predicates]
        if self.projection is not None:
            rendered = ", ".join(str(e) for e in self.projection[0])
            if len(rendered) > 160:
                rendered = rendered[:157] + "..."
            lines.append(f"{pad}Project: {rendered}")
        return lines


def _null_aware_encode(value: Any) -> tuple:
    """Sort-key encoding matching :func:`sort_rows` NULL placement."""
    return (1, ()) if value is None else (0, _encode_sort_value(value))


class _RunKey:
    """Comparison wrapper for k-way merging per-worker sorted runs.

    Encodes the multi-key NULL placement of :func:`sort_rows` (NULLs last
    ascending, first descending) as one total order, which is what
    ``heapq.merge`` and single-pass ``list.sort`` need to reproduce the
    serial multi-pass stable sort exactly.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        #: tuple of ``(encoded_value, ascending)`` pairs, one per sort key
        self.parts = parts

    def __lt__(self, other: "_RunKey") -> bool:
        for (left, ascending), (right, _asc) in zip(self.parts, other.parts):
            if left == right:
                continue
            return (left < right) if ascending else (right < left)
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RunKey) and self.parts == other.parts


#: What a fragment does with its output batches, as a two-step closure:
#: ``post(counters)`` binds the fold's expressions for one morsel and
#: returns ``fold(batches) -> payload``.
Post = Callable[[CostCounters], Callable[[Sequence[list[Row]]], Any]]


def run_fragment(
    program: BatchProgram,
    post: Post | None,
    chunks: Iterable[list[Row]],
    counters: CostCounters,
) -> tuple[Any, int]:
    """One morsel's work: ``(payload, rows surviving scan + filter)``.

    Every stage is bound before the first row flows, so each knows
    whether another one reads what it reads.
    """
    fold = post(counters) if post is not None else None
    batches = list(program.run(chunks, counters))
    n_rows = sum(map(len, batches))
    if fold is None:
        return [row for batch in batches for row in batch], n_rows
    return fold(batches), n_rows


def sort_post(
    functions: FunctionRegistry,
    input_columns: OutputColumns,
    keys: Sequence[tuple[Expr, bool]],
) -> Post:
    """Fold to one worker's sorted run, ``[(_RunKey, row), ...]``.

    All sort keys of a row are evaluated in one batch stage.
    """
    resolver = SchemaResolver(input_columns, functions)
    program = compile_batch([expr for expr, _asc in keys], resolver)
    directions = [asc for _expr, asc in keys]

    def post(counters: CostCounters):
        key_stage = program.bind(counters)

        def fold(batches: Sequence[list[Row]]) -> list[tuple[_RunKey, Row]]:
            decorated = [
                (
                    _RunKey(
                        tuple(
                            (_null_aware_encode(value), asc)
                            for value, asc in zip(values, directions)
                        )
                    ),
                    row,
                )
                for batch in batches
                for row, values in zip(batch, key_stage(batch))
            ]
            decorated.sort(key=lambda pair: pair[0])
            return decorated

        return fold

    return post


def aggregate_post(
    functions: FunctionRegistry,
    input_columns: OutputColumns,
    group_exprs: Sequence[Expr],
    aggregates: Sequence["AggSpec"],
) -> Post:
    """Fold to one worker's partial aggregation states, grouped in scan
    order: ``{group key: [state, ...]}``.

    One batch stage evaluates a row's group key and then the argument of
    every aggregate that has one (``count(*)`` has none); the per-row
    state transitions are the same init/step machinery the serial
    HashAggregate runs.
    """
    n_keys = len(group_exprs)
    arguments: list[Expr] = []
    # where each aggregate's argument sits in a stage tuple; None = count(*)
    slots: list[int | None] = []
    for spec in aggregates:
        if spec.argument is None or isinstance(spec.argument, Star):
            slots.append(None)
        else:
            slots.append(n_keys + len(arguments))
            arguments.append(spec.argument)
    resolver = SchemaResolver(input_columns, functions)
    program = compile_batch([*group_exprs, *arguments], resolver)

    def post(counters: CostCounters):
        stage = program.bind(counters)

        def fold(batches: Sequence[list[Row]]) -> dict[tuple, list]:
            groups: dict[tuple, list] = {}
            for batch in batches:
                for values in stage(batch):
                    key = values[:n_keys]
                    states = groups.get(key)
                    if states is None:
                        states = groups[key] = [
                            spec.function.init() for spec in aggregates
                        ]
                    for index, spec in enumerate(aggregates):
                        slot = slots[index]
                        if slot is None:
                            value: Any = 1  # count(*) counts every row
                        else:
                            value = values[slot]
                            if value is None and spec.function.skip_nulls:
                                continue
                        states[index] = spec.function.step(states[index], value)
            return groups

        return fold

    return post


class ParallelSort(ParallelScan):
    """Per-worker sorted runs over morsels + stable k-way merge.

    Workers evaluate the sort keys once per surviving row (inside their
    own extraction context), sort their run, and the gather merges runs in
    morsel order.  ``heapq.merge`` is stable across its inputs in argument
    order, so ties come out in scan order -- exactly the serial stable
    multi-pass sort's output.
    """

    def __init__(
        self,
        table: HeapTable,
        qualifier: str,
        predicates: Sequence[Expr],
        projection: tuple[Sequence[Expr], Sequence[str]] | None,
        workers: int,
        pool: ExecutorPool,
        keys: Sequence[tuple[Expr, bool]],
        template: PlanNode,
    ):
        super().__init__(
            table, qualifier, predicates, projection, workers, pool, template
        )
        self.keys = list(keys)
        self.output_columns = list(template.output_columns)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        keys = self.keys
        post = sort_post(context.functions, self._input_columns(), keys)
        results = self._gather(context, post)
        runs = [result.payload for result in results if result.payload]
        total_rows = sum(len(run) for run in runs)
        spilled = charge_spill(context, total_rows, self.est_row_bytes)
        try:
            for _key, row in heapq.merge(*runs, key=lambda pair: pair[0]):
                yield row
        finally:
            release_spill(context, spilled)

    def node_label(self) -> str:
        rendered = ", ".join(
            f"{expr}{'' if asc else ' DESC'}" for expr, asc in self.keys
        )
        return f"Parallel Sort  Key: {rendered}  (workers={self.workers})"


class ParallelHashAggregate(ParallelScan):
    """Per-worker partial aggregation over morsels, merged at gather.

    Output is serial-identical: group keys first appear in scan order (the
    gather walks morsels in rid order and dicts preserve insertion order),
    and partial states combine through each aggregate's ``merge``.  The
    planner only builds this node when every aggregate has a merge and none
    is DISTINCT.  With no aggregate specs this is hash DISTINCT, and the
    merge degenerates to ordered set union.
    """

    def __init__(
        self,
        table: HeapTable,
        qualifier: str,
        predicates: Sequence[Expr],
        projection: tuple[Sequence[Expr], Sequence[str]] | None,
        workers: int,
        pool: ExecutorPool,
        group_exprs: Sequence[Expr],
        aggregates: Sequence[AggSpec],
        template: PlanNode,
    ):
        super().__init__(
            table, qualifier, predicates, projection, workers, pool, template
        )
        self.group_exprs = list(group_exprs)
        self.aggregates = list(aggregates)
        self.output_columns = list(template.output_columns)

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        group_exprs = self.group_exprs
        aggregates = self.aggregates
        post = aggregate_post(
            context.functions, self._input_columns(), group_exprs, aggregates
        )
        results = self._gather(context, post)
        merged: dict[tuple, list] = {}
        for result in results:
            for key, states in result.payload.items():
                existing = merged.get(key)
                if existing is None:
                    merged[key] = states
                else:
                    merged[key] = [
                        spec.function.merge(left, right)
                        for spec, left, right in zip(aggregates, existing, states)
                    ]
        if not merged and not group_exprs:
            # SQL: a global aggregate always yields exactly one row.
            finals = [spec.function.final(spec.function.init()) for spec in aggregates]
            yield tuple(finals)
            return
        spilled = charge_spill(context, len(merged), self.est_row_bytes)
        try:
            for key, states in merged.items():
                yield key + tuple(
                    spec.function.final(state)
                    for spec, state in zip(aggregates, states)
                )
        finally:
            release_spill(context, spilled)

    def node_label(self) -> str:
        return f"Parallel HashAggregate  (workers={self.workers})"
