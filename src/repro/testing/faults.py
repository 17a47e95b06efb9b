"""Deterministic fault injection for crash-recovery testing.

Sinew's robustness claims (section 3.1.4: the materializer is an
*incremental, interruptible* background process that can die at any point
and resume) are only testable if tests can crash the system at precisely
chosen moments.  This module provides that control:

* **Injection points** are named call sites threaded through the loader,
  the column materializer, the background daemon, and the storage engine.
  Each site calls ``injector.fire("<point>", **context)`` when an injector
  is attached; with no injector attached the sites cost one attribute
  check.
* A :class:`FaultInjector` holds **plans**: at the N-th hit of a point,
  raise an error, kill the daemon thread, or delay.  Hit counting is
  per-plan and fully deterministic, so a test can assert "the crash
  happened exactly between row 7 and row 8".
* :meth:`FaultInjector.schedule_from_seed` derives a reproducible random
  schedule from an integer seed, for stress tests that want varied but
  repeatable interleavings.

The canonical **injection-point registry** lives here (:data:`known_points`);
``fire`` rejects unknown names so a typo in production code fails loudly in
any test that arms an injector.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable


class InjectedFault(Exception):
    """An error deliberately raised at a named injection point."""

    def __init__(self, point: str, message: str | None = None):
        super().__init__(message or f"injected fault at {point!r}")
        self.point = point


class DaemonKilled(InjectedFault):
    """Injected hard death of the materializer daemon thread.

    The daemon treats *any* exception escaping its work loop as a crash
    (no cleanup runs, in-memory catalog state is frozen as-is); this
    subclass exists so tests and logs can tell an injected kill from an
    organic failure.
    """


#: The canonical injection-point registry.  Production call sites must use
#: names from this set; subsystems that grow new points register them here
#: (or via :func:`register_point`) so tests can enumerate every point.
_KNOWN_POINTS: set[str] = {
    # loader (repro.core.loader) -- both fire under the catalog latch
    "loader.before_insert",   # catalog updated, heap rows not yet written
    "loader.after_insert",    # heap rows written, latch still held
    # column materializer (repro.core.materializer) -- all under the latch
    "materializer.before_step",         # latch acquired, nothing examined yet
    "materializer.before_row_move",     # row image rewritten for its moved keys, not written
    "materializer.after_row_move",      # row written in the slice's transaction, not committed
    "materializer.before_clear_dirty",  # cursor at end, dirty bit still set
    # background daemon (repro.core.background) -- outside the latch
    "daemon.before_step",     # about to take a materializer slice
    "daemon.after_step",      # slice finished, stats recorded
    # storage engine (repro.rdbms.storage) -- before the page is touched
    "storage.write_row",      # any heap insert/update, context: table=<name>
    "storage.alter_table",    # ADD/DROP COLUMN: rows changed, schema not yet
                              # published (a window for delay plans)
    "storage.index_probe",    # a union probe read one member, not the next
                              # (index lock held: writers wait it out)
    # durable WAL (repro.rdbms.transactions) -- fire only in durable mode
    "wal.append",             # before a record is framed and written
    "wal.fsync",              # before the fsync barrier lands
    "wal.torn_write",         # before a COMMIT frame; a raise tears it in half
    "wal.io_error",           # disk I/O sites; arm with exception=OSError to
                              # flip degraded mode (context: op=append|fsync|recover)
    # checkpointer (repro.rdbms.database / transactions)
    "checkpoint.pages",       # WAL rotated, heap snapshot not yet taken
    "checkpoint.catalog",     # heap snapshot taken, catalog blob not yet added
    "checkpoint.truncate",    # checkpoint renamed in, old segments still present
    # SQL service layer (repro.service.server) -- per-connection paths;
    # a fault here must never poison the shared SinewDB (no leaked
    # latches, no orphaned session transactions)
    "service.accept",         # connection admitted, session not yet created
    "service.execute",        # request decoded, statement not yet executed
    "service.respond",        # statement done, response not yet written
    "service.drain",          # stop requested, drain phase not yet started
    # worker supervision (repro.core.background)
    "supervisor.restart",     # crash counted, backoff waited, restart not yet attempted
}


def known_points() -> frozenset[str]:
    """The registered injection points (a snapshot)."""
    return frozenset(_KNOWN_POINTS)


def register_point(name: str) -> str:
    """Register an additional injection point (idempotent); returns it."""
    _KNOWN_POINTS.add(name)
    return name


@dataclass
class FaultPlan:
    """One armed fault: *what* happens at *which* hits of a point.

    ``at`` is the 1-based eligible-hit index that first triggers and
    ``count`` how many consecutive eligible hits trigger (``None`` means
    every hit from ``at`` on).  ``where`` restricts eligibility to fires
    whose context contains the given items (e.g. ``{"table": "tweets"}``).
    """

    point: str
    action: str = "raise"  # "raise" | "kill" | "delay"
    at: int = 1
    count: int | None = 1
    delay: float = 0.0
    exception: type[BaseException] | None = None
    where: dict[str, Any] | None = None
    #: eligible hits seen so far / times this plan actually fired
    seen: int = 0
    fired: int = 0

    def matches(self, context: dict[str, Any]) -> bool:
        if not self.where:
            return True
        return all(context.get(key) == value for key, value in self.where.items())

    def due(self) -> bool:
        if self.seen < self.at:
            return False
        return self.count is None or self.seen < self.at + self.count


_ACTIONS = ("raise", "kill", "delay")


class FaultInjector:
    """Deterministic fault scheduler shared across threads.

    Thread-safe: the loader thread and the daemon thread hit the same
    injector concurrently in stress tests, so plan bookkeeping is guarded
    by a lock.  ``fire`` is the single production-facing entry point.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._plans: dict[str, list[FaultPlan]] = {}
        #: total hits per point (armed or not), for test assertions
        self.hits: dict[str, int] = {}
        #: chronological record of every fault that actually fired
        self.history: list[tuple[str, str, dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------

    def plan(
        self,
        point: str,
        action: str = "raise",
        *,
        at: int = 1,
        count: int | None = 1,
        delay: float = 0.0,
        exception: type[BaseException] | None = None,
        where: dict[str, Any] | None = None,
    ) -> FaultPlan:
        """Arm one fault at ``point``; returns the plan for inspection."""
        if point not in _KNOWN_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; registered points: "
                f"{', '.join(sorted(_KNOWN_POINTS))}"
            )
        if action not in _ACTIONS:
            raise ValueError(f"unknown fault action {action!r}; use one of {_ACTIONS}")
        if at < 1:
            raise ValueError("'at' is a 1-based hit index")
        fault = FaultPlan(
            point=point, action=action, at=at, count=count,
            delay=delay, exception=exception, where=where,
        )
        with self._lock:
            self._plans.setdefault(point, []).append(fault)
        return fault

    def kill_at(self, point: str, *, at: int = 1, **kwargs) -> FaultPlan:
        """Shorthand: arm a daemon-kill at the ``at``-th hit of a point."""
        return self.plan(point, "kill", at=at, **kwargs)

    def schedule_from_seed(
        self,
        seed: int,
        points: Iterable[str] | None = None,
        *,
        n_faults: int = 3,
        max_at: int = 20,
        action: str = "kill",
    ) -> list[FaultPlan]:
        """Arm a reproducible pseudo-random schedule of ``n_faults`` faults.

        The same seed always produces the same (point, hit-index) pairs, so
        a stress-test failure can be replayed exactly.
        """
        pool = sorted(points if points is not None else _KNOWN_POINTS)
        rng = random.Random(seed)
        plans = []
        for _ in range(n_faults):
            plans.append(
                self.plan(
                    rng.choice(pool), action, at=rng.randint(1, max_at)
                )
            )
        return plans

    def reset(self) -> None:
        """Disarm every plan and clear counters (keeps the instance attached)."""
        with self._lock:
            self._plans.clear()
            self.hits.clear()
            self.history.clear()

    def disarm(self, point: str) -> None:
        """Remove every plan for one point."""
        with self._lock:
            self._plans.pop(point, None)

    # ------------------------------------------------------------------
    # the production-facing hook
    # ------------------------------------------------------------------

    def fire(self, point: str, **context: Any) -> None:
        """Record a hit of ``point`` and execute any due plan.

        Raises :class:`InjectedFault` / :class:`DaemonKilled` (or the
        plan's custom exception) when a "raise" / "kill" plan is due;
        sleeps for a "delay" plan.  Unknown points raise ``ValueError`` --
        an armed injector doubles as a registry-conformance check.
        """
        if point not in _KNOWN_POINTS:
            raise ValueError(f"fire() on unregistered injection point {point!r}")
        to_sleep = 0.0
        to_raise: BaseException | None = None
        with self._lock:
            self.hits[point] = self.hits.get(point, 0) + 1
            for fault in self._plans.get(point, ()):
                if not fault.matches(context):
                    continue
                fault.seen += 1
                if not fault.due():
                    continue
                fault.fired += 1
                self.history.append((point, fault.action, dict(context)))
                if fault.action == "delay":
                    to_sleep += fault.delay
                elif fault.action == "kill":
                    to_raise = DaemonKilled(point)
                else:
                    exc_type = fault.exception or InjectedFault
                    to_raise = (
                        exc_type(point)
                        if issubclass(exc_type, InjectedFault)
                        else exc_type(f"injected fault at {point!r}")
                    )
                if to_raise is not None:
                    break
        if to_sleep:
            time.sleep(to_sleep)
        if to_raise is not None:
            raise to_raise

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def fired(self, point: str | None = None) -> int:
        """How many faults actually fired (optionally for one point)."""
        with self._lock:
            if point is None:
                return len(self.history)
            return sum(1 for p, _a, _c in self.history if p == point)

    def pending(self) -> list[FaultPlan]:
        """Armed plans that have not exhausted their trigger window."""
        with self._lock:
            return [
                fault
                for plans in self._plans.values()
                for fault in plans
                if fault.count is None or fault.fired < fault.count
            ]
