"""Test-support subsystems (fault injection, latch tracking, schedules).

Production code never imports this package at module load time; the
components hold an optional ``faults`` attribute (duck-typed, default
``None``) that tests populate with a :class:`~repro.testing.faults.FaultInjector`,
and latch call sites consult the :func:`repro.latching.latch_tracker`
hook; :mod:`.latch_tracker` is imported by production code only when
tracking is switched on (``REPRO_DEBUG_LATCHES=1`` or an explicit enable).
"""

from .faults import (  # noqa: F401
    DaemonKilled,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    known_points,
    register_point,
)
from .latch_tracker import (  # noqa: F401
    LatchOrderError,
    LatchOrderTracker,
    disable_latch_tracking,
    enable_latch_tracking,
)
