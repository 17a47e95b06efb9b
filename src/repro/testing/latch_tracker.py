"""Runtime latch-order verification (the lockdep of this engine).

The SNW4xx static pass (:mod:`repro.analysis.protocol`) checks latch
protocols *lexically*; this module checks the part statics cannot see:
the **order** in which latches are actually taken across threads at
runtime.  It follows the lockdep/ThreadSanitizer lineage -- locking
discipline as a checkable rule set, learned from execution:

* every acquisition is recorded against the acquiring thread's held
  stack, and each ``held -> acquired`` pair becomes an edge in a global
  **order graph** keyed by latch *name* (lock class, not instance);
* a blocking acquisition that would close a cycle in that graph is a
  potential deadlock -- two threads need only hit the two orders
  concurrently -- and raises :class:`LatchOrderError` immediately, even
  though this particular run did not deadlock;
* a blocking re-acquisition of a latch the thread already holds is a
  guaranteed self-deadlock (every engine latch is non-reentrant) and
  raises without waiting for the 10s latch timeout to expire.

Enablement
----------
Production call sites (``SinewCatalog.exclusive_latch`` and every
:class:`~repro.latching.TrackedLock`) consult
:func:`repro.latching.latch_tracker` on each acquisition; it returns
``None`` -- tracking disabled, no work done -- unless a tracker was
installed via :func:`enable_latch_tracking` (tests) or the
``REPRO_DEBUG_LATCHES=1`` environment variable (the CI stress lane), which
is read at the first acquisition and again by :func:`disable_latch_tracking`.

A raised violation behaves like any other engine error: the daemon
transitions to ``crashed`` with the message in ``last_error``, a loader
thread surfaces it to its caller -- so a stress suite running under the
tracker fails loudly on the first ordering regression.
"""

from __future__ import annotations

import threading

from ..latching import install_latch_tracker, tracker_from_env

__all__ = [
    "LatchOrderError",
    "LatchOrderTracker",
    "enable_latch_tracking",
    "disable_latch_tracking",
]


class LatchOrderError(RuntimeError):
    """A latch acquisition that violates the learned latch order."""


class LatchOrderTracker:
    """Records per-thread latch acquisition edges into a global order graph.

    Thread-safe; one instance is shared by every latch in the process.
    The held stack is thread-local, the edge graph and violation history
    are global and guarded by an internal mutex (a plain ``threading``
    lock -- the tracker must not track itself).
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._local = threading.local()
        #: learned order graph: edges ``held-name -> then-acquired-name``
        self._edges: dict[str, set[str]] = {}
        #: every violation message ever raised (for post-run assertions)
        self.violations: list[str] = []
        #: successful tracked acquisitions
        self.acquisitions = 0
        #: every latch name that was ever successfully acquired
        self.names_seen: set[str] = set()

    # ------------------------------------------------------------------
    # the hook surface (called by exclusive_latch / TrackedLock)
    # ------------------------------------------------------------------

    def before_acquire(self, name: str, *, blocking: bool = True) -> None:
        """Validate an acquisition attempt *before* it can block.

        ``blocking`` describes the caller's intent (would it wait on
        contention?), not whether it actually waited: a try-then-wait
        acquisition like ``exclusive_latch`` reports ``blocking=True``
        up front so ordering is checked even on the uncontended path.
        Non-blocking attempts never deadlock, so they only contribute
        edges and are exempt from the cycle and self-hold checks.
        """
        held = self._stack()
        if blocking and name in held:
            self._violate(
                f"self-deadlock: blocking re-acquisition of latch {name!r} "
                f"by {threading.current_thread().name!r} while already "
                f"holding it (held stack: {held})"
            )
        with self._mutex:
            for holder in held:
                if holder == name:
                    continue
                if blocking:
                    path = self._find_path(name, holder)
                    if path is not None:
                        chain = " -> ".join([*path, holder])
                        self._violate_locked(
                            f"latch order inversion: "
                            f"{threading.current_thread().name!r} is "
                            f"acquiring {name!r} while holding {holder!r}, "
                            f"but the opposite order {chain} was already "
                            "observed; two threads interleaving these "
                            "orders can deadlock"
                        )
                self._edges.setdefault(holder, set()).add(name)

    def after_acquire(self, name: str) -> None:
        """Record a successful acquisition on the thread's held stack."""
        self._stack().append(name)
        with self._mutex:
            self.acquisitions += 1
            self.names_seen.add(name)

    def released(self, name: str) -> None:
        """Pop a release; tolerant of latches acquired before tracking."""
        held = self._stack()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def held(self) -> tuple[str, ...]:
        """The calling thread's current held stack (oldest first)."""
        return tuple(self._stack())

    def edges(self) -> dict[str, frozenset[str]]:
        """A snapshot of the learned order graph."""
        with self._mutex:
            return {a: frozenset(bs) for a, bs in self._edges.items()}

    def reset(self) -> None:
        """Forget the learned graph and history (held stacks persist)."""
        with self._mutex:
            self._edges.clear()
            self.violations.clear()
            self.acquisitions = 0
            self.names_seen.clear()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _find_path(self, start: str, goal: str) -> list[str] | None:
        """DFS ``start -> ... -> goal`` over the order graph (or None).

        Caller holds ``_mutex``.
        """
        seen = {start}
        frontier: list[tuple[str, list[str]]] = [(start, [start])]
        while frontier:
            node, path = frontier.pop()
            for successor in self._edges.get(node, ()):
                if successor == goal:
                    return path
                if successor not in seen:
                    seen.add(successor)
                    frontier.append((successor, [*path, successor]))
        return None

    def _violate(self, message: str) -> None:
        with self._mutex:
            self._violate_locked(message)

    def _violate_locked(self, message: str) -> None:
        self.violations.append(message)
        raise LatchOrderError(message)


def enable_latch_tracking() -> LatchOrderTracker:
    """Install a fresh tracker as the process-global instance."""
    tracker = LatchOrderTracker()
    install_latch_tracker(tracker)
    return tracker


def disable_latch_tracking() -> None:
    """Remove the installed tracker (acquisitions stop being recorded) --
    unless ``REPRO_DEBUG_LATCHES=1``, which installs a fresh one, so a
    test that brought its own tracker leaves that lane armed."""
    install_latch_tracker(None)
    tracker_from_env()
