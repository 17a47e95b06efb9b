"""Batch execution of the scan side: Scan -> Filter -> Project over batches.

Every query's filters and projection run batch-at-a-time, inline on the
calling thread (:class:`repro.rdbms.plan_nodes.BatchFragment`): the source
hands over lists of rows (a page each for a page walk), :func:`rebatch`
cuts them into batches of at most :data:`BATCH_ROWS`, and every predicate
and the projection is one *stage* -- one generated loop over the batch
(see :func:`repro.rdbms.expressions.compile_program`, whose batch form
:func:`compile_batch` is).  A batch is a plain list of row tuples; a
filter stage returns the survivors, the projection stage the output rows,
and the sort-key or grouping stage after them reads those lists.

Equivalence contract: a batch program evaluates *exactly* the rows the
row-at-a-time operators would, with the same extraction counters, because
both forms are the same generated statements around a different loop --

* every stage evaluates precisely the rows the row closure would have:
  predicates run over the survivors of the previous predicate, and the
  lazy forms (``COALESCE``, ``IN``) are the same ``if`` in both forms;
* a consumer that may stop early (``LIMIT``) sizes each batch to the rows
  it can still take, so no row past its last is evaluated;
* a function that offers a specialised form (the reservoir extraction
  UDFs) is evaluated per batch instead of per row, and that form is held
  to the plain call's results and access counts
  (:class:`repro.rdbms.functions.ScalarFunction`).

Only error *positions* may differ: a failing CAST in predicate three
aborts the batch before projections of earlier rows ran, where a
streaming pipeline had already projected them.  Failed queries return no
counters, so nothing observable diverges.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from .cost import CostCounters
from .expressions import Expr, Program, Resolver, compile_program

Row = tuple

#: Rows per batch.  Large enough to amortize the per-stage set-up over ~1k
#: rows, small enough that a memo of one batch's reservoir headers stays
#: tiny (``ExecutionContext.extraction_cache_capacity``).
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
    """Compiled Filter* -> Project stages over one row layout; built once
    per execution of a fragment."""

    def __init__(
        self,
        resolver: Resolver,
        predicates: Sequence[Expr],
        projection: Sequence[Expr] | None,
    ):
        self.stages = [compile_batch((p,), resolver, keep=True) for p in predicates]
        if projection is not None:
            self.stages.append(compile_batch(projection, resolver))

    def bind(self, counters: CostCounters) -> list[Stage]:
        """The stages of one execution, charging ``counters`` and bound to
        the calling thread's execution scope; apply them with
        :func:`staged`, in order."""
        return [stage.bind(counters) for stage in self.stages]


def rebatch(chunks: Iterable[list[Row]], size: Callable[[], int]) -> Iterator[list[Row]]:
    """Cut a stream of row lists into batches of ``size()`` rows.

    ``size`` is asked before every batch, so a consumer that may stop
    early can shrink the batches as it fills.  The next list is pulled
    only when the rows at hand are fewer than a batch.
    """
    buffer: list[Row] = []
    for chunk in chunks:
        buffer += chunk
        n = size()
        while len(buffer) >= n:
            yield buffer[:n]
            del buffer[:n]
            n = size()
    while buffer:
        n = size()
        yield buffer[:n]
        del buffer[:n]


def staged(stage: Stage, batches: Iterable[list[Row]]) -> Iterator[list[Row]]:
    """``stage`` applied to every batch; empty results are dropped."""
    for batch in batches:
        out = stage(batch)
        if out:
            yield out
