"""Background workers, and the materializer daemon (paper sections 3.1.4 and 5).

The paper describes column materialization as an *incremental,
interruptible background process* that runs concurrently with the loader,
serialized only by the catalog latch.  :class:`MaterializerDaemon` is that
process: a worker thread that repeatedly takes bounded
:meth:`~repro.core.materializer.ColumnMaterializer.step` slices over every
collection with dirty columns, blocking on the latch so foreground loads
and the daemon take turns instead of failing.  The service's checkpointer
is the same :class:`BackgroundWorker` with another tick.

Lifecycle
---------
``idle -> running <-> paused -> stopped`` via :meth:`~BackgroundWorker.start`,
:meth:`~BackgroundWorker.pause`, :meth:`~BackgroundWorker.resume`,
:meth:`~BackgroundWorker.stop`.  Any exception escaping a tick moves the
worker to ``crashed`` (recorded in ``last_error``) *without cleanup*:
whatever the catalog and heap held at that instant is the state recovery
must cope with -- exactly how tests exercise crash safety through the
fault-injection points (:mod:`repro.testing.faults`).

Supervision
-----------
Under the default policy, :data:`NO_RESTARTS`, a crashed worker stays
crashed until someone calls ``start()`` again (the embedded default).
Under a :class:`SupervisorPolicy` that allows restarts, the worker's own
thread restarts it: the failed life is counted, the backoff
is waited out on the stop event (so :meth:`~BackgroundWorker.stop` always
wins over a pending restart), ``supervisor.restart`` fires, the restart
hook runs, and the loop carries on.  ``max_restarts`` consecutive failed
lives trip the worker for good (until :meth:`~BackgroundWorker.reset`); a
life that lasted ``stability_window`` seconds earns the budget back.

Crash recovery
--------------
Restarting a crashed daemon first runs :meth:`MaterializerDaemon.recover`:
every collection is re-scanned for ``dirty`` columns, their per-column
progress cursors (persisted in the table catalog as
:attr:`~repro.core.catalog.ColumnState.cursor`) are validated (a cursor
beyond the current row horizon is reset so the column is conservatively
re-scanned), and materialization resumes *mid-column*.  Recovery relies on
two invariants maintained by the materializer and loader:

1. every row move is atomic and removes the value from its source side, so
   re-examining an already-moved row is a no-op;
2. the dirty bit is cleared only after the cursor reaches the row horizon
   under the latch, so a crash anywhere earlier leaves the column dirty and
   the ``COALESCE(physical, extract(...))`` rewrite still answers queries
   correctly.

Together these make every crash point idempotent: re-running ``step``
converges to the same clean state the uninterrupted run would have reached.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..latching import TrackedLock
from ..rdbms.errors import ConcurrencyError, DegradedError
from .catalog import SinewCatalog
from .materializer import ColumnMaterializer

#: Row budget of one materializer slice; small enough to yield the latch
#: to a waiting loader frequently.
DEFAULT_STEP_ROWS = 256

#: How long the worker sleeps when no collection has dirty columns.
DEFAULT_IDLE_SLEEP = 0.02


@dataclass(frozen=True)
class SupervisorPolicy:
    """How a background worker restarts itself (see the module docstring)."""

    backoff_base: float = 0.05
    backoff_max: float = 2.0
    #: consecutive failed lives after which the worker is tripped for good
    max_restarts: int = 5
    #: healthy uptime that resets the consecutive-failure budget
    stability_window: float = 5.0


#: the default: the first crash trips the worker, which freezes as it died
NO_RESTARTS = SupervisorPolicy(max_restarts=0)


class BackgroundWorker:
    """A named thread running ``tick()`` until it is told to stop.

    ``tick`` returns True while more work is waiting, and the loop calls it
    again at once; otherwise the thread sleeps ``interval`` seconds or
    until :meth:`kick`.  ``on_restart`` runs before a crashed worker comes
    back, by :meth:`start` or by its own restart policy.
    """

    def __init__(
        self,
        name: str,
        interval: float,
        tick: Callable[[], Any],
        *,
        on_restart: Callable[[], Any] | None = None,
        policy: SupervisorPolicy = NO_RESTARTS,
        lock_name: str = "worker.state",
    ):
        self.name = name
        self.interval = interval
        self.tick = tick
        self.on_restart = on_restart
        #: optional FaultInjector; fires ``supervisor.restart``
        self.faults = None

        self._thread: threading.Thread | None = None
        self._stop_requested = threading.Event()
        self._pause_requested = threading.Event()
        self._wake = threading.Event()
        # Leaf mutex: guards the stats/state fields only and is never held
        # across a latch acquisition or a tick (TrackedLock lets the
        # latch-order tracker verify exactly that under REPRO_DEBUG_LATCHES=1).
        self._lock = TrackedLock(lock_name)

        self.state = "idle"
        self.ticks = 0
        self.last_error: str | None = None
        self.last_error_at: float | None = None

        #: restart policy and its record
        self.policy = policy
        self.restarts = 0
        self.consecutive_failures = 0
        self.tripped = False
        self.crash_error: str | None = None
        self.last_restart_at: float | None = None
        self._life_started: float | None = None

    # ------------------------------------------------------------------
    # controls
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the worker thread (after a crash, the restart hook first)."""
        if self.is_alive():
            raise ConcurrencyError(f"worker {self.name!r} is already running")
        if self.state == "crashed" and self.on_restart is not None:
            self.on_restart()
        self._set_running()
        self._launch(restarting=False)

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the worker to finish its current tick and exit.

        A restart that is still pending is abandoned: stop wins.
        """
        self._stop_requested.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():  # pragma: no cover - defensive
                raise ConcurrencyError(f"worker {self.name!r} did not stop in time")
        with self._lock:
            if self.state != "crashed":
                self.state = "stopped"

    def pause(self) -> None:
        """Suspend work after the current tick."""
        self._pause_requested.set()
        if self.state == "running":
            self.state = "paused"

    def resume(self) -> None:
        self._pause_requested.clear()
        self._wake.set()
        if self.state == "paused":
            self.state = "running"

    def kick(self) -> None:
        """Wake an idle worker for an immediate tick."""
        self._wake.set()

    def is_alive(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------

    def reset(self) -> None:
        """Untrip: restore the failure budget and restart a tripped worker.

        ``\\service recover`` calls this after bringing the WAL back, so a
        worker tripped by crash-looping on the degraded log comes back.  A
        worker that was told to stop stays stopped.
        """
        with self._lock:
            tripped, self.tripped = self.tripped, False
            self.consecutive_failures = 0
        if tripped and not self._stop_requested.is_set():
            if self._thread is not None:
                self._thread.join()  # the tripped life is on its way out
            self._launch(restarting=True)

    def supervision(self) -> dict[str, Any]:
        """The restart record (one entry of ``status()["supervisor"]``)."""
        with self._lock:
            if self.state != "crashed":
                self._earn_budget_back()
            return {
                "restarts": self.restarts,
                "consecutive_failures": self.consecutive_failures,
                "tripped": self.tripped,
                "last_error": self.crash_error,
                "last_restart_at": self.last_restart_at,
                "backoff": self._backoff(self.consecutive_failures),
            }

    # ------------------------------------------------------------------
    # the thread
    # ------------------------------------------------------------------

    def _launch(self, restarting: bool) -> None:
        self._stop_requested.clear()
        self._thread = threading.Thread(
            target=self._run, args=(restarting,), name=f"sinew-{self.name}",
            daemon=True,
        )
        self._thread.start()

    def _set_running(self) -> None:
        with self._lock:
            # a manual start takes a tripped worker back; its spent budget
            # trips it again on the next crash
            self.tripped = False
            self.state = "paused" if self._pause_requested.is_set() else "running"
            self._life_started = time.monotonic()

    def _run(self, restarting: bool) -> None:
        if restarting and not self._restart():
            return
        while True:
            try:
                self._loop()  # returns once stop() asked; stop() records it
                return
            except BaseException as error:  # crash: freeze state, no cleanup
                message = f"{type(error).__name__}: {error}"
                with self._lock:
                    self.state = "crashed"
                    self.last_error = message
                    self.last_error_at = time.time()
                if not self._failed(message) or not self._restart():
                    return

    def _loop(self) -> None:
        more = False
        while True:
            if not more:
                self._wake.wait(self.interval)
                self._wake.clear()
            if self._stop_requested.is_set():
                return
            if self._pause_requested.is_set():
                more = False
                continue
            more = bool(self.tick())
            self.ticks += 1

    def _restart(self) -> bool:
        """Wait out the backoff and bring the worker back; False when a
        stop arrived meanwhile or failed restarts tripped it."""
        while not self._stop_requested.wait(
            self._backoff(self.consecutive_failures - 1)
        ):
            try:
                if self.faults is not None:
                    self.faults.fire("supervisor.restart", worker=self.name)
                if self.on_restart is not None:
                    self.on_restart()
            except Exception as error:
                if self._failed(f"restart failed: {type(error).__name__}: {error}"):
                    continue
                return False
            with self._lock:
                self.restarts += 1
                self.last_restart_at = time.time()
            self._set_running()
            return True
        return False

    def _failed(self, error: str) -> bool:
        """Count a failed life or restart; False once that trips the worker."""
        with self._lock:
            self._earn_budget_back()
            self._life_started = None
            self.crash_error = error
            self.consecutive_failures += 1
            self.tripped = self.consecutive_failures > self.policy.max_restarts
            return not self.tripped

    def _earn_budget_back(self) -> None:
        # under self._lock: a life that lasted stability_window resets it
        started = self._life_started
        if started is not None and (
            time.monotonic() - started >= self.policy.stability_window
        ):
            self.consecutive_failures = 0

    def _backoff(self, failures: int) -> float:
        """The restart delay after ``failures`` counted failures."""
        base, cap = self.policy.backoff_base, self.policy.backoff_max
        return min(base * 2 ** max(failures, 0), cap)


@dataclass
class DaemonStatus:
    """Point-in-time snapshot of the daemon (``\\daemon`` / ``status()``)."""

    state: str
    steps: int
    rows_examined: int
    rows_moved: int
    columns_completed: int
    latch_waits: int
    latch_timeouts: int
    recoveries: int
    last_error: str | None
    backlog: dict[str, int] = field(default_factory=dict)
    #: wall-clock time of the last crash (``time.time()``), None if never
    last_error_at: float | None = None
    #: slices skipped because the WAL was in read-only degraded mode
    degraded_skips: int = 0

    @property
    def idle(self) -> bool:
        """True when no dirty columns remain anywhere."""
        return not self.backlog

    def lines(self) -> list[str]:
        """Human-readable rendering (the shell's ``\\daemon`` output)."""
        backlog = (
            ", ".join(f"{t}({n})" for t, n in sorted(self.backlog.items()))
            or "(empty)"
        )
        return [
            f"state:        {self.state}",
            f"steps:        {self.steps}",
            f"rows moved:   {self.rows_moved} (examined {self.rows_examined})",
            f"columns done: {self.columns_completed}",
            f"latch waits:  {self.latch_waits} ({self.latch_timeouts} timeout(s))",
            f"recoveries:   {self.recoveries}",
            f"backlog:      {backlog}",
            f"last error:   {self.last_error or '(none)'}",
            "crashed at:   "
            + (
                time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.last_error_at))
                if self.last_error_at is not None
                else "(never)"
            ),
        ]


@dataclass
class RecoveryReport:
    """What :meth:`MaterializerDaemon.recover` found and fixed."""

    dirty_columns: int = 0
    cursors_clamped: int = 0
    tables: list[str] = field(default_factory=list)


class MaterializerDaemon(BackgroundWorker):
    """Worker thread driving :class:`ColumnMaterializer` incrementally."""

    def __init__(
        self,
        materializer: ColumnMaterializer,
        catalog: SinewCatalog,
        collections: Callable[[], Iterable[str]],
        *,
        step_rows: int = DEFAULT_STEP_ROWS,
        idle_sleep: float = DEFAULT_IDLE_SLEEP,
    ):
        super().__init__(
            "materializer",
            idle_sleep,
            self._sweep,
            on_restart=self.recover,
            lock_name="daemon.state",
        )
        self.materializer = materializer
        self.catalog = catalog
        self.collections = collections
        self.step_rows = step_rows

        self.steps = 0
        self.rows_examined = 0
        self.rows_moved = 0
        self.columns_completed = 0
        self.latch_timeouts = 0
        self.recoveries = 0
        self.degraded_skips = 0

    def start(self) -> None:
        """Start the worker (after a crash, :meth:`recover` runs first,
        resuming mid-column from the persisted cursor); it sweeps at once."""
        super().start()
        self.kick()

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Re-scan dirty columns and validate their progress cursors.

        Idempotent and cheap (catalog-only): cursors past the current row
        horizon are reset for a conservative full re-scan, stale cursors on
        clean columns are cleared, and
        every dirty column is counted so the restarted worker knows its
        backlog.  The actual data repair is the normal ``step`` loop --
        see the module docstring for why resuming is always safe.
        """
        report = RecoveryReport()
        for table_name in list(self.collections()):
            table = self.materializer.db.table(table_name)
            horizon = table.allocated_rids
            touched = False
            for state in self.catalog.table(table_name).columns.values():
                if state.dirty:
                    report.dirty_columns += 1
                    touched = True
                    if state.cursor > horizon:
                        # a cursor beyond the row horizon can no longer be
                        # trusted: conservatively re-scan from the start
                        # (row moves are idempotent, so this is always safe)
                        state.cursor = 0
                        report.cursors_clamped += 1
                elif state.cursor:
                    state.cursor = 0
                    report.cursors_clamped += 1
            if touched:
                report.tables.append(table_name)
        with self._lock:
            self.recoveries += 1
            self.last_error = None
            self.last_error_at = None
        return report

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def backlog(self) -> dict[str, int]:
        """Dirty-column count per collection (empty when fully settled)."""
        out: dict[str, int] = {}
        for table_name in list(self.collections()):
            n = len(self.catalog.table(table_name).dirty_columns())
            if n:
                out[table_name] = n
        return out

    def status(self) -> DaemonStatus:
        with self._lock:
            return DaemonStatus(
                state=self.state,
                steps=self.steps,
                rows_examined=self.rows_examined,
                rows_moved=self.rows_moved,
                columns_completed=self.columns_completed,
                latch_waits=self.catalog.latch_stats.waits,
                latch_timeouts=self.latch_timeouts,
                recoveries=self.recoveries,
                last_error=self.last_error,
                backlog=self.backlog(),
                last_error_at=self.last_error_at,
                degraded_skips=self.degraded_skips,
            )

    def wait_until_idle(self, timeout: float = 10.0) -> bool:
        """Block until no dirty columns remain (or the daemon dies).

        Returns True when the backlog drained; False on timeout or crash.
        Intended for tests and synchronization points like shutdown.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not self.backlog():
                return True
            if not self.is_alive():
                return False
            time.sleep(0.005)
        return False

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------

    def _sweep(self) -> bool:
        """One pass over every collection; returns True if progress was made."""
        worked = False
        for table_name in list(self.collections()):
            if self._stop_requested.is_set() or self._pause_requested.is_set():
                break
            if not self.catalog.table(table_name).dirty_columns():
                continue
            if self.faults is not None:
                self.faults.fire("daemon.before_step", table=table_name)
            try:
                report = self.materializer.step(table_name, self.step_rows)
            except ConcurrencyError:
                # Latch timeout: the loader is busy; yield and retry later.
                with self._lock:
                    self.latch_timeouts += 1
                continue
            except DegradedError:
                # Row moves are writes; while the WAL is read-only the
                # daemon idles instead of crashing and resumes after
                # ``try_recover`` brings the log back.
                with self._lock:
                    self.degraded_skips += 1
                break
            with self._lock:
                self.steps += 1
                self.rows_examined += report.rows_examined
                self.rows_moved += report.rows_moved
                self.columns_completed += len(report.columns_completed)
            if self.faults is not None:
                self.faults.fire("daemon.after_step", table=table_name)
            worked = worked or bool(
                report.rows_examined or report.columns_completed
            )
        return worked
