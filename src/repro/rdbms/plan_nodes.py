"""Physical plan operators: cost estimates, execution, and EXPLAIN text.

Each node carries

* ``output_columns`` -- the ``(qualifier, name)`` layout of its output rows,
* ``est_rows`` / ``est_row_bytes`` / ``est_cost`` -- the planner's estimates,
* ``batches(context, need)`` -- a generator executing the operator, one
  list of output rows at a time, and
* ``explain_lines()`` -- PostgreSQL-flavoured EXPLAIN output.

The operator inventory mirrors what the paper's Table 2 plans mention:
Seq Scan, Index Scan, Filter, Project, Nested Loop / Hash Join / Merge
Join, Sort, Unique, HashAggregate, GroupAggregate, and Limit.

Every operator runs batch-at-a-time.  :func:`fuse` turns every maximal
``Filter* -> Project? -> (Sort | HashAggregate)?`` chain of a planned tree
into a :class:`BatchFragment`, which runs the chain as compiled stages
(:mod:`repro.rdbms.vectorized`) on the calling thread; Seq Scan, Index
Scan, Filter, Project, Sort and HashAggregate describe a fragment's source
and stages and have no body of their own.  The joins, Limit, Unique and
GroupAggregate take their inputs' batches and evaluate join keys, join
conditions and group keys as stages of the same compiler.

``need`` is how a consumer that may stop early says so: ``need()`` is how
many more rows it may still take.  Limit passes one down; a fragment cuts
its batches to it, and a join or GroupAggregate given one takes its input
a row at a time, so no row past the last one taken is evaluated.

Memory-overflow behaviour matters for the reproduction: Sort and the two
hash operators charge scratch space against the database's
:class:`~repro.rdbms.cost.DiskBudget` whenever their input exceeds
``work_mem`` -- this is the mechanism by which the EAV baseline dies with
"out of disk" on NoBench Q8/Q9/Q11 and MongoDB's client-side join dies on
Q11, exactly as reported in paper sections 6.4-6.5.
"""

from __future__ import annotations

import functools
import math
import time
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

from .cost import CostCounters, DiskBudget, ExtractionStats
from .errors import ExecutionError
from .expressions import Expr, SchemaResolver, Star, contains_function_call
from .functions import AggregateFunction, FunctionRegistry
from .storage import HeapTable, IndexTarget, KeyRange
from .types import collation_key
from .vectorized import BATCH_ROWS, BatchProgram, Stage, compile_batch, rebatch, staged

Row = tuple
OutputColumns = list[tuple[str | None, str]]

#: ``need()``: how many more rows the consumer of an operator may take.
Need = Callable[[], int]

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


def _measured(
    context: ExecutionContext, node: PlanNode, batches: Iterator[list[Row]]
) -> Iterator[list[Row]]:
    """``batches``, counted and timed for EXPLAIN ANALYZE as ``node``'s
    output: inclusive of everything below it, since a node's clock runs
    while it pulls from its inputs (PostgreSQL's actual-time semantics)."""
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


def measured(batches: Callable) -> Callable:
    """Decorates an operator's ``batches`` so EXPLAIN ANALYZE counts and
    times its output (outside ANALYZE the generator is returned as is)."""

    @functools.wraps(batches)
    def timed_batches(self: PlanNode, context: ExecutionContext, need: Need | None = None):
        return _measured(context, self, batches(self, context, need))

    return timed_batches


def _stage(
    context: ExecutionContext, node: PlanNode, exprs: Sequence[Expr], keep: bool = False
) -> Stage:
    """``exprs`` as one batch stage over ``node``'s output rows, bound to
    this execution (a predicate's keep-stage with ``keep``)."""
    program = compile_batch(exprs, node.resolver(context.functions), keep)
    return program.bind(context.counters)


def _paced(node: PlanNode, context: ExecutionContext, need: Need | None) -> Iterator[list[Row]]:
    """``node``'s batches for a consumer that cannot tell how many of its
    input rows fill its ``need`` (a join's outer side, GroupAggregate's
    input): a row at a time under a need, whole batches otherwise."""
    if need is None:
        return node.batches(context)
    return rebatch(node.batches(context, _one_row), _one_row)


def _one_row() -> int:
    return 1


class PlanNode:
    """Base physical operator."""

    output_columns: OutputColumns
    est_rows: float = 0.0
    est_row_bytes: float = 48.0
    est_cost: float = 0.0

    def children(self) -> Sequence["PlanNode"]:
        return ()

    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        """Execute this node: its output rows, one non-empty list at a
        time.  ``need``, when given, says the consumer may stop after any
        row and how many it may still take."""
        raise NotImplementedError

    def node_label(self) -> str:
        raise NotImplementedError

    def _annotation_lines(self, depth: int) -> list[str]:
        """What EXPLAIN prints under this node's own line (an index
        condition)."""
        return []

    def explain_lines(
        self, depth: int = 0, context: ExecutionContext | None = None
    ) -> list[str]:
        """EXPLAIN rendering; with the ``context`` of an ANALYZE run, each
        node's estimate is followed by its measured actuals."""
        prefix = "" if depth == 0 else "  " * depth + "->  "
        line = f"{prefix}{self.node_label()}  (rows={int(self.est_rows)})"
        if context is not None:
            stats = context.node_stats.get(id(self))
            if stats is None:
                line += "  (never executed)"
            else:
                line += (
                    f"  (actual rows={stats.rows} loops={stats.loops} "
                    f"time={stats.seconds * 1000:.3f} ms)"
                )
        lines = [line, *self._annotation_lines(depth)]
        for child in self.children():
            lines.extend(child.explain_lines(depth + 1, context))
        return lines

    def explain(self) -> str:
        return "\n".join(self.explain_lines())

    def resolver(self, functions: FunctionRegistry) -> SchemaResolver:
        return SchemaResolver(self.output_columns, functions)

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


class _Unary(PlanNode):
    """A node over one input, whose rows and estimates are the input's
    unless the node says otherwise."""

    def __init__(self, child: PlanNode):
        self.child = child
        self.output_columns = list(child.output_columns)
        self.est_rows = child.est_rows
        self.est_row_bytes = child.est_row_bytes
        self.est_cost = child.est_cost

    def children(self) -> Sequence[PlanNode]:
        return (self.child,)


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
    """Fetch of the rows one index lists for a condition.

    ``condition`` is the WHERE conjunct the planner read ``target`` and
    ``ranges`` from: a column or an expression over one with its key
    ranges (or a COALESCE of those, read from the union of their indexes:
    :class:`~repro.rdbms.storage.UnionTarget`), the shapes of a column
    with the call whose key a row must hold
    (:class:`~repro.rdbms.storage.ShapeTarget`), or the terms of columns
    with a text query (:class:`~repro.rdbms.storage.TextTarget`).  The
    index names candidates; every fetched row is tested against
    ``condition`` itself, as a fragment's first stage (reads run beside
    writers, a listed row can have changed by the time it is fetched,
    and a shape lists every row holding the key, whatever its value).
    Rows come out in heap order, like a Seq Scan's.  The row estimate is
    the built index's exact count for ``ranges``, else the
    ``selectivity`` estimate.
    """

    def __init__(
        self,
        table: HeapTable,
        qualifier: str,
        target: IndexTarget,
        ranges: Sequence[KeyRange] | Any,
        condition: Expr,
        selectivity: float,
    ):
        self.table = table
        self.qualifier = qualifier
        self.target = target
        self.ranges = ranges
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


class Filter(_Unary):
    """Row filter; keeps rows whose predicate evaluates to TRUE."""

    def __init__(self, child: PlanNode, predicate: Expr, selectivity: float):
        super().__init__(child)
        self.predicate = predicate
        self.est_rows = max(1.0, child.est_rows * selectivity)
        self.est_cost = child.est_cost + child.est_rows * predicate_cost(predicate)

    def node_label(self) -> str:
        return f"Filter: {self.predicate}"


class Project(_Unary):
    """Computes the SELECT list."""

    def __init__(
        self,
        child: PlanNode,
        expressions: Sequence[Expr],
        names: Sequence[str],
    ):
        if len(expressions) != len(names):
            raise ExecutionError("projection arity mismatch")
        super().__init__(child)
        self.expressions = list(expressions)
        self.output_columns = [(None, name) for name in names]
        self.est_row_bytes = max(16.0, 16.0 * len(expressions))
        self.est_cost = child.est_cost + child.est_rows * CPU_OPERATOR_COST * max(
            1, len(expressions)
        )

    def node_label(self) -> str:
        rendered = ", ".join(str(e) for e in self.expressions)
        if len(rendered) > 160:
            rendered = rendered[:157] + "..."
        return f"Project: {rendered}"


class Limit(_Unary):
    def __init__(self, child: PlanNode, limit: int):
        super().__init__(child)
        self.limit = limit
        self.est_rows = min(child.est_rows, float(limit))

    @measured
    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        left = self.limit
        if left <= 0:
            return
        # the child is told how many rows are still taken, and is not
        # pulled again once they are
        for batch in self.child.batches(context, lambda: left):
            if len(batch) >= left:
                yield batch[:left]
                return
            left -= len(batch)
            yield batch

    def node_label(self) -> str:
        return f"Limit {self.limit}"


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
            return (0, collation_key(value))

        decorated.sort(key=key, reverse=not ascending[index])


class Sort(_Unary):
    """Full in-memory sort; charges scratch space when over work_mem."""

    def __init__(self, child: PlanNode, keys: Sequence[tuple[Expr, bool]]):
        super().__init__(child)
        self.keys = list(keys)
        n = max(2.0, child.est_rows)
        self.est_cost = child.est_cost + SORT_COST_FACTOR * n * math.log2(n)

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
        with spilled(context, len(decorated), self.child.est_row_bytes):
            sort_rows(decorated, [asc for _expr, asc in self.keys])
        if decorated:
            yield [row for _values, row in decorated]

    def node_label(self) -> str:
        rendered = ", ".join(
            f"{expr}{'' if asc else ' DESC'}" for expr, asc in self.keys
        )
        return f"Sort  Key: {rendered}"


@contextmanager
def spilled(context: ExecutionContext, n_rows: int, row_bytes: float) -> Iterator[None]:
    """Scratch space for a buffered input exceeding work_mem: charged on
    entry, released when the operator finishes with the input."""
    spill = int(n_rows * max(row_bytes, 16.0)) - context.work_mem_bytes
    if spill <= 0:
        yield
        return
    context.counters.spill_bytes += spill
    context.disk.charge(spill)
    try:
        yield
    finally:
        context.disk.release(spill)


class Unique(_Unary):
    """Removes duplicates from *sorted* input (pairs with Sort): a row is
    kept when its values' collation keys differ from the last kept row's."""

    def __init__(self, child: PlanNode):
        super().__init__(child)
        self.est_rows = max(1.0, child.est_rows * 0.9)
        self.est_cost = child.est_cost + child.est_rows * CPU_OPERATOR_COST

    @measured
    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        previous: tuple | None = None  # no row's key is None
        for batch in self.child.batches(context):
            kept = []
            for row in batch:
                key = tuple(map(collation_key, row))
                if key != previous:
                    kept.append(row)
                    previous = key
            if kept:
                yield kept

    def node_label(self) -> str:
        return "Unique"


@dataclass
class AggSpec:
    """One aggregate in the SELECT/HAVING list."""

    function: AggregateFunction
    argument: Expr | None  # None for count(*)
    distinct: bool
    output_name: str


class _AggregateBase(_Unary):
    """Shared machinery for hash and sorted grouping.

    A row is folded from one tuple of values: its group key, then the
    argument of every aggregate that has one (``count(*)`` has none).  A
    group is its aggregate states plus, for each DISTINCT aggregate, the
    set of the collation keys of the values it has seen.  Rows
    fall in one group when their group keys' collation keys are equal.
    """

    def __init__(
        self,
        child: PlanNode,
        group_exprs: Sequence[Expr],
        aggregates: Sequence[AggSpec],
        est_groups: float,
    ):
        super().__init__(child)
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
                    collated = collation_key(value)
                    if collated in seen[index]:
                        continue
                    seen[index].add(collated)
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
        # collation keys -> (the group key of its first row, the group)
        groups: dict[tuple, tuple[tuple, tuple[list, list]]] = {}
        for batch in batches:
            for values in stage(batch):
                key = values[:n_keys]
                collated = tuple(map(collation_key, key))
                entry = groups.get(collated)
                if entry is None:
                    entry = groups[collated] = (key, self._new_group())
                step(entry[1], values)
        if not groups and not self.group_exprs:
            # SQL: a global aggregate always yields exactly one row.
            yield [self._finalise((), self._new_group())]
            return
        with spilled(context, len(groups), self.est_row_bytes):
            yield [self._finalise(key, group) for key, group in groups.values()]

    def node_label(self) -> str:
        return "HashAggregate"


class GroupAggregate(_AggregateBase):
    """Sort-based grouping over input already sorted on the group keys."""

    @measured
    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        stage = _stage(context, self.child, self.fold_exprs())
        step = self._stepper()
        n_keys = len(self.group_exprs)
        current_key: tuple = ()
        current: tuple = ()  # the collation keys of ``current_key``
        group: tuple[list, list] | None = None
        for batch in _paced(self.child, context, need):
            finished = []
            for values in stage(batch):
                key = values[:n_keys]
                collated = tuple(map(collation_key, key))
                if group is None or collated != current:
                    if group is not None:
                        finished.append(self._finalise(current_key, group))
                    current_key, current, group = key, collated, self._new_group()
                step(group, values)
            if finished:
                yield finished
        if group is not None:
            yield [self._finalise(current_key, group)]
        elif not self.group_exprs:
            yield [self._finalise((), self._new_group())]

    def node_label(self) -> str:
        return "GroupAggregate"


class _Join(PlanNode):
    """What the joins share: an output row is an outer row followed by an
    inner row."""

    def __init__(self, outer: PlanNode, inner: PlanNode, est_rows: float):
        self.outer = outer
        self.inner = inner
        self.output_columns = list(outer.output_columns) + list(inner.output_columns)
        self.est_rows = max(1.0, est_rows)
        self.est_row_bytes = outer.est_row_bytes + inner.est_row_bytes

    def children(self) -> Sequence[PlanNode]:
        return (self.outer, self.inner)


class NestedLoopJoin(_Join):
    """Materialised-inner nested loop with optional join condition."""

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        condition: Expr | None,
        est_rows: float,
    ):
        super().__init__(outer, inner, est_rows)
        self.condition = condition
        self.est_cost = (
            outer.est_cost
            + inner.est_cost
            + outer.est_rows * inner.est_rows * CPU_OPERATOR_COST
        )

    @measured
    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        inner_rows = [row for batch in self.inner.batches(context) for row in batch]
        condition = self.condition
        keep = None if condition is None else _stage(context, self, [condition], keep=True)
        with spilled(context, len(inner_rows), self.inner.est_row_bytes):
            for batch in _paced(self.outer, context, need):
                # one outer row against the whole inner side per batch
                for outer_row in batch:
                    joined = [outer_row + inner_row for inner_row in inner_rows]
                    if keep is not None:
                        joined = keep(joined)
                    if joined:
                        yield joined

    def node_label(self) -> str:
        return "Nested Loop"


class _EquiJoin(_Join):
    """A join on ``outer_keys[i] = inner_keys[i]`` for every ``i``, matched
    on :func:`_join_keys`."""

    algorithm: str
    #: CPU operator costs charged per input row
    row_cost: int

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_keys: Sequence[Expr],
        inner_keys: Sequence[Expr],
        est_rows: float,
    ):
        super().__init__(outer, inner, est_rows)
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.est_cost = (
            outer.est_cost
            + inner.est_cost
            + (outer.est_rows + inner.est_rows) * CPU_OPERATOR_COST * self.row_cost
        )

    def node_label(self) -> str:
        condition = " AND ".join(
            f"{o} = {i}" for o, i in zip(self.outer_keys, self.inner_keys)
        )
        return f"{self.algorithm}  Cond: {condition}"


def _join_keys(
    context: ExecutionContext, node: PlanNode, exprs: Sequence[Expr]
) -> Callable[[list[Row]], list[tuple | None]]:
    """The join key of each row of a batch of ``node``'s output: the values
    of ``exprs`` in Sort's collation (:func:`collation_key`), or None where
    one is NULL, which joins nothing."""
    stage = _stage(context, node, exprs)
    encode = collation_key

    def keys(batch: list[Row]) -> list[tuple | None]:
        return [None if None in values else tuple(map(encode, values)) for values in stage(batch)]

    def single_keys(batch: list[Row]) -> list[tuple | None]:  # no tuple of one per row
        return [None if value is None else encode(value) for (value,) in stage(batch)]

    return single_keys if len(exprs) == 1 else keys


class HashJoin(_EquiJoin):
    """Equi-join building a hash table on the inner input."""

    algorithm = "Hash Join"
    row_cost = 2

    @measured
    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        inner_keys = _join_keys(context, self.inner, self.inner_keys)
        table: dict[tuple, list[Row]] = {}
        n_inner = 0
        for batch in self.inner.batches(context):
            for key, row in zip(inner_keys(batch), batch):
                if key is not None:
                    table.setdefault(key, []).append(row)
                    n_inner += 1
        outer_keys = _join_keys(context, self.outer, self.outer_keys)
        with spilled(context, n_inner, self.inner.est_row_bytes):
            for batch in _paced(self.outer, context, need):
                joined = [
                    row + match
                    for key, row in zip(outer_keys(batch), batch)
                    for match in table.get(key, ())  # no bucket holds None
                ]
                if joined:
                    yield joined


class MergeJoin(_EquiJoin):
    """Sort-merge equi-join (sorts both inputs on the join keys)."""

    algorithm = "Merge Join"
    row_cost = 1

    def __init__(
        self,
        outer: PlanNode,
        inner: PlanNode,
        outer_keys: Sequence[Expr],
        inner_keys: Sequence[Expr],
        est_rows: float,
    ):
        super().__init__(
            Sort(outer, [(k, True) for k in outer_keys]),
            Sort(inner, [(k, True) for k in inner_keys]),
            outer_keys,
            inner_keys,
            est_rows,
        )

    @measured
    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        # both inputs come sorted in the collation the keys are encoded in,
        # so each row's key is computed once and compared as is
        outer_keys, outer_rows = _keyed(context, self.outer, self.outer_keys)
        inner_keys, inner_rows = _keyed(context, self.inner, self.inner_keys)
        i = j = 0
        while i < len(outer_keys) and j < len(inner_keys):
            key = outer_keys[i]
            if key < inner_keys[j]:
                i += 1
            elif key > inner_keys[j]:
                j += 1
            else:
                i_end = bisect_right(outer_keys, key, i)
                j_end = bisect_right(inner_keys, key, j)
                yield [
                    row + match
                    for row in outer_rows[i:i_end]
                    for match in inner_rows[j:j_end]
                ]
                i, j = i_end, j_end


def _keyed(
    context: ExecutionContext, node: PlanNode, exprs: Sequence[Expr]
) -> tuple[list[tuple], list[Row]]:
    """The join keys of ``node``'s rows and the rows, leaving out each row
    with a NULL key."""
    keys_of = _join_keys(context, node, exprs)
    keys: list[tuple] = []
    rows: list[Row] = []
    for batch in node.batches(context):
        for key, row in zip(keys_of(batch), batch):
            if key is not None:
                keys.append(key)
                rows.append(row)
    return keys, rows


# ---------------------------------------------------------------------------
# the batch pipeline
# ---------------------------------------------------------------------------


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

    def __init__(self, chain: list[Chained], source: PlanNode):
        self.chain = chain
        self.source = source
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

    def explain_lines(
        self, depth: int = 0, context: ExecutionContext | None = None
    ) -> list[str]:
        return self.top.explain_lines(depth, context)

    def batches(
        self, context: ExecutionContext, need: Need | None = None
    ) -> Iterator[list[Row]]:
        """The output batches of one execution; ANALYZE figures are kept
        per planned node.

        Every stage is bound before the first row flows, so each knows
        whether another one reads what it reads.
        """
        source, top = self.source, self.top
        fold = top if isinstance(top, (Sort, HashAggregate)) else None
        if fold is not None:
            need = None  # a sort or an aggregate takes all of its input
        size = _batch_size(need)
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
            SchemaResolver(source.output_columns, context.functions),
            predicates,
            None if project is None else project.expressions,
        )
        stages = program.bind(context.counters)

        flow = self._chunks(context, need)
        if isinstance(source, SeqScan):
            flow = _measured(context, source, flow)
        flow = rebatch(flow, size)
        for node, stage in zip(staged_nodes, stages):
            flow = _measured(context, node, staged(stage, flow))
        if fold is not None:
            fold_stage = _stage(context, fold.child, fold.fold_exprs())
            flow = _measured(context, fold, fold.fold(context, flow, fold_stage))
        return flow

    def _chunks(self, context: ExecutionContext, need: Need | None) -> Iterator[list[Row]]:
        source = self.source
        if isinstance(source, SeqScan):
            return source.table.scan_batches(0, source.table.allocated_rids)
        if isinstance(source, IndexScan):
            # a row per list: :func:`rebatch` then fetches no row ahead
            fetched = source.table.index_fetch(source.target, source.ranges)
            return ([row] for _rid, row in fetched)
        return source.batches(context, need)


def _batch_size(need: Need | None) -> Need:
    """Rows per input batch: what the consumer still needs, capped at
    :data:`BATCH_ROWS`."""
    if need is None:
        return lambda: BATCH_ROWS
    return lambda: max(1, min(BATCH_ROWS, need()))


def fuse(node: PlanNode) -> PlanNode:
    """The executable form of a planned tree: every maximal
    ``Filter* -> Project? -> (Sort | HashAggregate)?`` chain becomes one
    :class:`BatchFragment`, whatever its source."""
    if isinstance(node, BatchFragment):
        return node
    chain: list[Chained] = []
    bottom = node
    if isinstance(bottom, (Sort, HashAggregate)):
        chain.append(bottom)
        bottom = bottom.child
    if isinstance(bottom, Project):
        chain.append(bottom)
        bottom = bottom.child
    while isinstance(bottom, Filter):
        chain.append(bottom)
        bottom = bottom.child
    if isinstance(bottom, (SeqScan, IndexScan)):
        return BatchFragment(chain, bottom)
    if chain:
        chain[-1].child = fuse(bottom)
        return BatchFragment(chain, chain[-1].child)
    # an operator over fragments: a join, Limit, Unique or GroupAggregate
    if isinstance(node, _Join):
        node.outer, node.inner = fuse(node.outer), fuse(node.inner)
    else:
        node.child = fuse(node.child)
    return node
