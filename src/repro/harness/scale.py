"""Benchmark scale configurations.

The paper runs two dataset sizes: 16 million records (10 GB, fits in the
32 GB testbed's memory) and 64 million records (40 GB, I/O-bound).  A
pure-Python engine cannot hold 16M rich documents, so scales here are
~1000x smaller and the I/O-bound regime is created mechanically: the
buffer pool is shrunk below the dataset size, page misses are counted,
and the reported "effective" time adds the modelled I/O those misses
imply.  Relative orderings -- the reproduction target -- are preserved.

``SMALL`` corresponds to the paper's in-memory 16M-record runs and
``LARGE`` to the I/O-bound 64M-record runs.  The EAV/MongoDB disk budgets
for the LARGE runs are sized so that queries building object-scale
intermediates (Q8/Q9/Q11) exhaust them, as in paper sections 6.4-6.5.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..rdbms.cost import IoCostModel
from ..rdbms.database import DatabaseConfig


@dataclass(frozen=True)
class ScaleConfig:
    """One benchmark scale.

    ``eav_headroom_bytes`` / ``mongo_headroom_bytes`` model the *free disk
    left after loading* at this scale (the paper's 128 GB SSD held the
    original data plus all four systems' representations).  ``None`` means
    effectively unlimited.  The harness sets each system's hard budget to
    ``bytes_used_after_load + headroom``, so queries whose scratch space
    (sort/hash spills, reconstruction spools, client-side join
    intermediates) exceeds the headroom die with DiskFullError -- the
    Q8/Q9/Q11 terminations of paper sections 6.4-6.5.
    """

    name: str
    n_records: int
    buffer_pool_pages: int
    eav_headroom_bytes: int | None
    mongo_headroom_bytes: int | None
    use_effective_time: bool

    def database_config(self) -> DatabaseConfig:
        """Database tunables for this scale."""
        return DatabaseConfig(
            buffer_pool_pages=self.buffer_pool_pages,
            io_model=IoCostModel(),
        )


def _scaled(base: int) -> int:
    """Apply the REPRO_SCALE environment multiplier (default 1.0)."""
    factor = float(os.environ.get("REPRO_SCALE", "1.0"))
    return max(200, int(base * factor))


def small_scale() -> ScaleConfig:
    """The in-memory regime (paper: 16M records / 10 GB)."""
    return ScaleConfig(
        name="4k (in-memory regime)",
        n_records=_scaled(16_000 // 4),
        buffer_pool_pages=65_536,  # everything stays resident
        eav_headroom_bytes=None,
        mongo_headroom_bytes=None,
        use_effective_time=False,
    )


def large_scale() -> ScaleConfig:
    """The I/O-bound regime (paper: 64M records / 40 GB).

    The buffer pool is ~1/4 of what the dataset needs, so scans register
    page reads; EAV and MongoDB get finite disk budgets sized to fail on
    the intermediate-heavy queries.
    """
    n_records = _scaled(64_000 // 4)
    return ScaleConfig(
        name="16k (I/O-bound regime)",
        n_records=n_records,
        buffer_pool_pages=max(64, n_records // 32),
        # ~3 MB of free scratch: Q1-Q7/Q10 spills fit, Q8/Q9/Q11
        # reconstruction spools do not (see ScaleConfig docstring).
        eav_headroom_bytes=3 * 1024 * 1024,
        # less free space than one re-materialisation of the collection:
        # the client-side join's right-side key spill cannot fit.
        mongo_headroom_bytes=3 * 1024 * 1024,
        use_effective_time=True,
    )
