"""Morsel-driven parallel execution (shared worker pool + morsel math).

The scan-side operators split a table's row-id space into fixed-size
**morsels** (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014) and fan
the per-morsel work -- predicate evaluation, reservoir extraction, partial
sort runs, partial aggregation -- across a shared :class:`ExecutorPool` of
threads.  Results are gathered *in morsel order*, which makes the parallel
output row order identical to the serial scan order (morsels are contiguous
rid ranges, rids are allocated in append order).

Morsel size rationale: ~4k rows is large enough that per-morsel fixed costs
(installing a per-worker extraction context, compiling the pushed
expressions) are amortised to well under a percent of the morsel's row
work, and small enough that a benchmark-scale table still splits into more
morsels than workers, so the pool load-balances skewed predicates.

The pool is deliberately dumb: it owns threads and a stable-order map
primitive, nothing else.  Everything semantic (per-worker extraction
contexts, counter merging, SQL ordering guarantees) lives with the plan
operators in :mod:`repro.rdbms.plan_nodes`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..latching import TrackedLock

#: Rows per morsel.  See module docstring for the sizing argument.
MORSEL_ROWS = 4096


def effective_cpu_count() -> int:
    """The CPU budget actually available to *this process*.

    CI runners and containers routinely advertise more ``os.cpu_count()``
    cores than the process may use (cgroup quotas, affinity masks), so a
    blind ``min(cpu_count, 8)`` worker default oversubscribes them.
    Probe, in order: ``os.process_cpu_count`` (3.13+), the scheduler
    affinity mask, then plain ``os.cpu_count``.
    """
    probe = getattr(os, "process_cpu_count", None)
    if probe is not None:
        counted = probe()
        if counted:
            return int(counted)
    if hasattr(os, "sched_getaffinity"):
        try:
            mask = os.sched_getaffinity(0)
        except OSError:  # pragma: no cover - exotic platform
            mask = set()
        if mask:
            return len(mask)
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Morsel:
    """One contiguous rid range ``[start_rid, end_rid)`` of a heap table.

    The range is over *allocated* rids, so it may cover dead slots
    (deleted rows, recovery filler); the scan skips those.
    """

    index: int
    start_rid: int
    end_rid: int

    def __len__(self) -> int:
        return self.end_rid - self.start_rid


def partition_morsels(n_rids: int, morsel_rows: int = MORSEL_ROWS) -> list[Morsel]:
    """Split ``n_rids`` allocated row ids into contiguous morsels.

    An empty table yields no morsels; a table smaller than one morsel
    yields exactly one (covering the whole rid space).
    """
    if n_rids <= 0:
        return []
    if morsel_rows <= 0:
        raise ValueError(f"morsel_rows must be positive, got {morsel_rows}")
    return [
        Morsel(index, start, min(start + morsel_rows, n_rids))
        for index, start in enumerate(range(0, n_rids, morsel_rows))
    ]


class ExecutorPool:
    """A shared pool of worker threads for morsel-driven operators.

    ``workers == 1`` is the serial path: :meth:`map_morsels` runs inline on
    the calling thread and no threads are ever created.  Threads are
    created lazily on the first parallel query, so a database configured
    with workers > 1 that only ever runs serial-eligible queries pays
    nothing.
    """

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))
        self._executor: ThreadPoolExecutor | None = None
        # Leaf mutex guarding pool lifecycle + stats; named so the runtime
        # latch-order tracker can place it in the global order graph.
        self._lock = TrackedLock("executor.pool")
        #: lifetime accounting (surfaced through ``SinewDB.status()``)
        self.parallel_queries = 0
        self.morsels_executed = 0

    def map_morsels(
        self, fn: Callable[[Morsel], Any], morsels: Sequence[Morsel]
    ) -> list[Any]:
        """Apply ``fn`` to every morsel, returning results in morsel order.

        The stable gather is the ordering backbone of the parallel
        operators: whatever interleaving the workers ran in, the caller
        sees morsel 0's result first.  A worker exception is re-raised
        here after the remaining futures are drained.
        """
        if self.workers == 1 or len(morsels) <= 1:
            return [fn(morsel) for morsel in morsels]
        executor = self._ensure_executor()
        futures = [executor.submit(fn, morsel) for morsel in morsels]
        results: list[Any] = []
        error: BaseException | None = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
        if error is not None:
            raise error
        with self._lock:
            self.parallel_queries += 1
            self.morsels_executed += len(morsels)
        return results

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="morsel-worker"
                )
            return self._executor

    def shutdown(self) -> None:
        """Join and release the worker threads (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def status(self) -> dict[str, int | bool]:
        return {
            "workers": self.workers,
            "started": self._executor is not None,
            "parallel_queries": self.parallel_queries,
            "morsels_executed": self.morsels_executed,
        }
