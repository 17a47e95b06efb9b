"""Batch execution of the scan side: Scan -> Filter -> Project over batches.

The morsel workers run the pushed-down
fragment batch-at-a-time: the scan hands over page-sized lists of heap
rows, :class:`BatchProgram` gathers them into batches of
:data:`BATCH_ROWS`, and every pushed predicate and the projection is one
*stage* -- one generated loop over the batch (see
:func:`repro.rdbms.expressions.compile_program`, whose batch form
:func:`compile_batch` is).  A batch is a plain list of row tuples; a
filter stage returns the survivors, the projection stage the output rows,
and the sort-key and grouping stages after them read those lists.

Equivalence contract: a batch program produces *exactly* the serial
row-at-a-time results and extraction counters, because both forms are the
same generated statements around a different loop --

* every stage evaluates precisely the rows the serial closure would have:
  predicates run over the survivors of the previous predicate, and the
  lazy forms (``COALESCE``, ``IN``) are the same ``if`` in both forms;
* a function that offers a specialised form (the reservoir extraction
  UDFs) is evaluated per batch instead of per row, and that form is held
  to the plain call's results and access counts
  (:class:`repro.rdbms.functions.ScalarFunction`).

Only error *positions* may differ: a failing CAST in predicate three
aborts the batch before projections of earlier rows ran, where the
streaming serial pipeline had already projected them.  Failed queries
return no counters, so nothing observable diverges.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .cost import CostCounters
from .expressions import Expr, Program, Resolver, compile_program

Row = tuple

#: Rows per batch.  Large enough to amortize the per-stage set-up over ~1k
#: rows, small enough that a memo of a few batches' reservoir headers
#: stays tiny (``_WorkerQueryScope`` in repro.rdbms.plan_nodes).
BATCH_ROWS = 1024

#: A bound batch stage: ``rows -> rows`` (filter) or ``rows -> tuples``.
Stage = Callable[[list[Row]], list[Row]]


def compile_batch(exprs: Sequence[Expr], resolver: Resolver, keep: bool = False) -> Program:
    """The batch form of the expression compiler.

    The bound program maps a batch to one tuple of all ``exprs`` per row,
    or with ``keep`` (a predicate) to the rows whose single expression is
    TRUE.
    """
    return compile_program(exprs, resolver, "filter" if keep else "map")


class BatchProgram:
    """Compiled Scan -> Filter -> Project fragment; built once per query."""

    def __init__(
        self,
        resolver: Resolver,
        predicates: Sequence[Expr],
        projection: Sequence[Expr] | None,
        batch_rows: int = BATCH_ROWS,
    ):
        self.stages = [compile_batch((p,), resolver, keep=True) for p in predicates]
        if projection is not None:
            self.stages.append(compile_batch(projection, resolver))
        self.batch_rows = max(1, batch_rows)

    def run(
        self, chunks: Iterable[list[Row]], counters: CostCounters
    ) -> Iterator[list[Row]]:
        """Yield the non-empty output batches for a stream of row lists.

        One execution: the stages are bound here, to ``counters`` and to
        the calling thread's execution scope.
        """
        stages = [stage.bind(counters) for stage in self.stages]
        batch_rows = self.batch_rows
        buffer: list[Row] = []
        for chunk in chunks:
            buffer.extend(chunk)
            while len(buffer) >= batch_rows:
                rows = _apply(stages, buffer[:batch_rows])
                del buffer[:batch_rows]
                if rows:
                    yield rows
        rows = _apply(stages, buffer)
        if rows:
            yield rows


def _apply(stages: Sequence[Stage], rows: list[Row]) -> list[Row]:
    for stage in stages:
        if not rows:
            break
        rows = stage(rows)
    return rows
