"""Deterministic cost counters shared by the storage and execution layers.

Wall-clock numbers from a pure-Python engine are noisy and their constant
factors differ from a C engine, so every experiment in this reproduction
reports *mechanical* counters alongside timings: pages read and written
through the buffer pool, tuples scanned, UDF invocations, WAL records, and
bytes spilled to scratch space.  The benchmark harness combines these with a
simple I/O latency model to reproduce the paper's memory-resident
("16 million records") versus I/O-bound ("64 million records") regimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CostCounters:
    """Mutable bundle of engine-level activity counters."""

    pages_read: int = 0
    pages_written: int = 0
    page_cache_hits: int = 0
    tuples_scanned: int = 0
    tuples_written: int = 0
    udf_calls: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    wal_fsyncs: int = 0
    checkpoints: int = 0
    spill_bytes: int = 0
    index_probes: int = 0
    index_builds: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Immutable copy of the current counter values."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def diff(self, before: dict[str, int]) -> dict[str, int]:
        """Counter deltas since a previous :meth:`snapshot`."""
        return {
            name: getattr(self, name) - before.get(name, 0)
            for name in self.__dataclass_fields__
        }

    def __add__(self, other: "CostCounters") -> "CostCounters":
        merged = CostCounters()
        for name in self.__dataclass_fields__:
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


@dataclass
class ExtractionStats:
    """Per-query extraction-pipeline counters (EXPLAIN ANALYZE surface).

    Populated by the reservoir extractor's per-query decode cache: a
    *decode* is one full header parse of a serialized document, a *hit*
    is a repeat access served from the cache without re-parsing.  The
    ``udf_calls`` field is the per-query delta of the engine-wide
    :class:`CostCounters` counter, filled in by the database facade.
    """

    udf_calls: int = 0
    header_decodes: int = 0
    header_cache_hits: int = 0
    subdoc_decodes: int = 0
    subdoc_cache_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def summary(self) -> str:
        """One-line rendering used as the EXPLAIN ANALYZE footer."""
        return (
            f"Extraction: udf_calls={self.udf_calls} "
            f"header_decodes={self.header_decodes} "
            f"cache_hits={self.header_cache_hits} "
            f"subdoc_decodes={self.subdoc_decodes} "
            f"subdoc_cache_hits={self.subdoc_cache_hits}"
        )


@dataclass
class IoCostModel:
    """Latency model used to convert counters into modelled time.

    The defaults approximate the paper's testbed: 250-300 MB/s sequential
    SSD reads over 8 KiB pages is roughly 30 microseconds per page.
    """

    page_read_seconds: float = 30e-6
    page_write_seconds: float = 35e-6
    wal_sync_seconds: float = 50e-6

    def modelled_io_seconds(self, counters: CostCounters) -> float:
        """Modelled I/O time implied by a set of counters."""
        return (
            counters.pages_read * self.page_read_seconds
            + counters.pages_written * self.page_write_seconds
            + counters.wal_records * self.wal_sync_seconds
        )


@dataclass
class DiskBudget:
    """Tracks scratch + table space against an optional hard budget.

    ``None`` means unlimited.  The EAV and MongoDB baselines are run under a
    finite budget in the Figure 7 / Q8 / Q9 experiments to reproduce their
    out-of-disk failures.
    """

    budget_bytes: int | None = None
    used_bytes: int = 0
    high_water_bytes: int = field(default=0, repr=False)

    def charge(self, n_bytes: int) -> None:
        """Account for ``n_bytes`` of new storage, raising when over budget."""
        from .errors import DiskFullError

        self.used_bytes += n_bytes
        if self.used_bytes > self.high_water_bytes:
            self.high_water_bytes = self.used_bytes
        if self.budget_bytes is not None and self.used_bytes > self.budget_bytes:
            raise DiskFullError(self.used_bytes, self.budget_bytes)

    def release(self, n_bytes: int) -> None:
        """Return ``n_bytes`` of storage to the budget (dropped temp data)."""
        self.used_bytes = max(0, self.used_bytes - n_bytes)
