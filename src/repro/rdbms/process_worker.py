"""Worker-process side of the process executor lane.

A :class:`ProcessTask` is the pickle-safe description of one morsel's
work: a rid range, the spill-file path of the scan input, the pushed
expression programs (predicates / projection / sort keys / aggregate
specs -- plain frozen-dataclass ASTs, which pickle), and *names* for
every function the expressions call.  Nothing with a lock, a socket, or
a closure crosses the process boundary; the worker rebuilds callables
from the names:

* ``("builtin", name)`` specs resolve against the fresh
  :class:`~repro.rdbms.functions.FunctionRegistry` every worker creates
  (its built-in scalars are identical in every process by construction);
* a ``("sinew_extract", method)`` spec makes the worker register the
  extraction UDFs -- through the same
  :func:`~repro.core.extractors.register_extraction_udfs` the parent
  used, so with the same specialised form -- on a private
  :class:`~repro.core.extractors.ReservoirExtractor` whose catalog is
  restored from the spilled ``(attr_id, key_name, type)`` triples: the
  exact dictionary the parent's documents were serialized against,
  keyed by catalog epoch so it can never be stale.

Workers cache the unpickled table image and the rebuilt registry by
spill path, so a 4-worker query pays the rebuild four times on its
first batch of tasks and never again for the same table/catalog
version.  Each *task* still gets fresh counter bundles: results return
as :class:`~repro.rdbms.plan_nodes._MorselResult` (payload + private
:class:`CostCounters` / :class:`ExtractionStats`), which the parent
folds in morsel order exactly like thread-lane results.

Worker processes run tasks one at a time on a single thread, so the
module-level caches need no locking.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from typing import Any

from .cost import CostCounters, ExtractionStats
from .errors import ExecutionError
from .expressions import Expr, SchemaResolver
from .functions import _BUILTIN_AGGREGATES, FunctionRegistry
from .plan_nodes import (
    AggSpec,
    _MorselResult,
    _WorkerQueryScope,
    aggregate_post,
    run_fragment,
    sort_post,
)
from .types import SqlType
from .vectorized import BATCH_ROWS, BatchProgram


@dataclass(frozen=True)
class ProcessTask:
    """One morsel of scan-side work, shipped to a worker process.

    ``post`` selects the fold shape: ``None`` returns the surviving
    (projected) rows, ``("sort", keys)`` a sorted decorated run, and
    ``("agg", group_exprs, ((agg_name, argument), ...))`` a partial
    aggregation state dict.  ``function_specs`` carries
    ``(name, kind, target, return_type_value)`` for every scalar the
    expressions call.
    """

    index: int
    start_rid: int
    end_rid: int
    table_path: str
    scan_columns: tuple[tuple[str | None, str], ...]
    predicates: tuple[Expr, ...]
    projection: tuple[tuple[Expr, ...], tuple[str, ...]] | None
    post: tuple | None
    function_specs: tuple[tuple[str, str, str, str], ...]
    catalog_path: str | None
    use_cache: bool
    hint: int | None
    batch_rows: int = BATCH_ROWS


@dataclass(frozen=True)
class ExitTask:
    """Fault-injection task: the worker dies without cleanup.

    Used by the worker-death tests to exercise the BrokenProcessPool
    recovery path in :meth:`ExecutorPool.map_tasks` -- ``os._exit``
    bypasses every finally block, exactly like an OOM kill.
    """

    code: int = 1


#: per-process caches, keyed by spill path (paths embed version/epoch
#: tokens, so a stale entry is simply never looked up again)
_TABLE_ROWS: dict[str, list] = {}
_REGISTRIES: dict[tuple, FunctionRegistry] = {}


def _table_rows(path: str) -> list:
    rows = _TABLE_ROWS.get(path)
    if rows is None:
        with open(path, "rb") as handle:
            state = pickle.load(handle)
        rows = _TABLE_ROWS[path] = state["rows"]
    return rows


def _register_extraction(registry: FunctionRegistry, catalog_path: str | None) -> None:
    # Imported lazily: plain-RDBMS queries (no extraction UDFs) must not
    # pull the Sinew layer into every worker process.
    from ..core.catalog import SinewCatalog
    from ..core.extractors import ReservoirExtractor, register_extraction_udfs

    if catalog_path is None:
        raise ExecutionError(
            "extraction UDF shipped to a worker process without a catalog "
            "snapshot",
            context="process-lane worker",
        )
    with open(catalog_path, "rb") as handle:
        triples = pickle.load(handle)
    catalog = SinewCatalog()
    for attr_id, key_name, type_value in triples:
        catalog.ensure_attribute(attr_id, key_name, SqlType(type_value))
    register_extraction_udfs(registry, ReservoirExtractor(catalog))


def _registry_for(task: ProcessTask) -> FunctionRegistry:
    key = (task.catalog_path, task.function_specs)
    registry = _REGISTRIES.get(key)
    if registry is not None:
        return registry
    # The registry-level counters are a placeholder: every program is
    # bound to the running task's private bundle.
    registry = FunctionRegistry(CostCounters())
    kinds = {kind for _name, kind, _target, _type in task.function_specs}
    unknown = kinds - {"builtin", "sinew_extract"}
    if unknown:
        raise ExecutionError(
            f"unknown remote function spec {min(unknown)!r}",
            context="process-lane worker",
        )
    # a fresh registry already has the built-in scalars
    if "sinew_extract" in kinds:
        _register_extraction(registry, task.catalog_path)
    _REGISTRIES[key] = registry
    return registry


def _scan(task: ProcessTask, counters: CostCounters):
    """Yield the live rows of the task's rid range from the spilled
    image, a batch at a time."""
    rows = _table_rows(task.table_path)
    end = min(task.end_rid, len(rows))
    for start in range(max(0, task.start_rid), end, task.batch_rows):
        live = [row for row in rows[start : min(start + task.batch_rows, end)] if row is not None]
        counters.tuples_scanned += len(live)
        yield live


def run_process_task(task: ProcessTask | ExitTask) -> Any:
    """Execute one morsel task; the process-pool entry point."""
    if isinstance(task, ExitTask):
        os._exit(task.code)
    counters = CostCounters()
    stats = ExtractionStats()
    registry = _registry_for(task)
    scope = _WorkerQueryScope(
        stats, task.use_cache, task.hint, batch_rows=task.batch_rows
    )
    registry.begin_query(scope)
    try:
        scan_columns = list(task.scan_columns)
        program = BatchProgram(
            SchemaResolver(scan_columns, registry),
            list(task.predicates),
            list(task.projection[0]) if task.projection is not None else None,
            batch_rows=task.batch_rows,
        )
        if task.projection is not None:
            input_columns = [(None, name) for name in task.projection[1]]
        else:
            input_columns = scan_columns
        if task.post is None:
            post = None
        elif task.post[0] == "sort":
            post = sort_post(registry, input_columns, list(task.post[1]))
        elif task.post[0] == "agg":
            aggregates = [
                AggSpec(_BUILTIN_AGGREGATES[name], argument, False, name)
                for name, argument in task.post[2]
            ]
            post = aggregate_post(
                registry, input_columns, list(task.post[1]), aggregates
            )
        else:
            raise ExecutionError(
                f"unknown post spec {task.post[0]!r}",
                context="process-lane worker",
            )
        payload, n_rows = run_fragment(program, post, _scan(task, counters), counters)
    finally:
        registry.end_query(scope)
    return _MorselResult(task.index, payload, n_rows, counters, stats, os.getpid())
