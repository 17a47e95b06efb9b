"""The CPU budget of this process.

Kept only for ``benchmarks/suite/run.py``, which records it with every
run (ROADMAP item 2f removes that reader, then this module).  The engine
itself answers each query on the calling thread.
"""

from __future__ import annotations

import os


def effective_cpu_count() -> int:
    """The CPU budget actually available to *this process*.

    Containers routinely advertise more ``os.cpu_count()`` cores than the
    process may use (cgroup quotas, affinity masks).  Probe, in order:
    ``os.process_cpu_count`` (3.13+), the scheduler affinity mask, then
    plain ``os.cpu_count``.
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
