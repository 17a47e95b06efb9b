"""Latch-protocol primitives shared by the engine and its analyzers.

The engine's hybrid layout stays correct only because a web of locking
protocols holds: catalog flags flip under the loader/materializer latch,
row moves happen under it, internal mutexes are leaf-only.  PRs 2, 4 and
5 each found violations of these protocols by *manual* audit; this module
makes the protocols declarable so they can be checked mechanically:

* :func:`requires_latch` -- a zero-cost decorator declaring that a
  function mutates latch-protected state and may only be called while the
  named latch is held.  The decorator only tags the function (one
  attribute write at import time); enforcement is static -- rule
  ``SNW401`` of :mod:`repro.analysis.protocol` verifies every call site
  lexically holds or acquires the latch -- so the hot path pays nothing.
* :class:`TrackedLock` -- a ``threading.Lock`` wrapper that reports
  acquisitions to the process-global **latch tracker** when one is
  installed (``REPRO_DEBUG_LATCHES=1`` when this module is imported, or a
  test calling :func:`repro.testing.latch_tracker.enable_latch_tracking`).
  With no tracker installed, the overhead is one function call and one
  global read per acquisition.

This module has no imports from the rest of the package, so every layer
(``core``, ``rdbms``, ``testing``) can use it without cycles.  The
tracker implementation itself lives in :mod:`repro.testing` -- production
code only ever sees it through the :func:`latch_tracker` hook, and the
import in :func:`tracker_from_env` runs only when tracking is switched on.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, TypeVar

F = TypeVar("F", bound=Callable[..., Any])

#: Attribute name :func:`requires_latch` stamps onto tagged functions.
LATCH_ATTRIBUTE = "__requires_latch__"

#: Environment variable that auto-installs a LatchOrderTracker.
DEBUG_LATCHES_ENV = "REPRO_DEBUG_LATCHES"


def requires_latch(latch: str) -> Callable[[F], F]:
    """Declare that the decorated function mutates ``latch``-protected state.

    Purely declarative at runtime: the function is returned unchanged with
    a :data:`LATCH_ATTRIBUTE` tag.  The SNW401 static rule uses the tag to
    verify that every call site either sits inside a
    ``with ...exclusive_latch(...)`` block or is itself tagged (i.e. its
    own callers carry the obligation).
    """

    def mark(fn: F) -> F:
        setattr(fn, LATCH_ATTRIBUTE, latch)
        return fn

    return mark


# ----------------------------------------------------------------------
# the tracker hook
# ----------------------------------------------------------------------

#: The installed tracker (``None`` = tracking disabled).  Installed either
#: explicitly by :func:`repro.testing.latch_tracker.enable_latch_tracking`
#: or, once at import, from the :data:`DEBUG_LATCHES_ENV` environment
#: variable (:func:`tracker_from_env`).
_TRACKER: Any = None


def install_latch_tracker(tracker: Any) -> None:
    """Install (or, with ``None``, remove) the process-global tracker."""
    global _TRACKER
    _TRACKER = tracker


def latch_tracker() -> Any:
    """The active latch tracker, or ``None`` when tracking is disabled.

    Checked on every tracked acquisition (every heap write takes one), so
    it is a global read and nothing else.
    """
    return _TRACKER


def tracker_from_env() -> Any:
    """Install a tracker if :data:`DEBUG_LATCHES_ENV` is ``1`` and none is
    installed; returns the installed one.  Runs once when this module is
    imported -- set the variable before that, or call this again."""
    if _TRACKER is None and os.environ.get(DEBUG_LATCHES_ENV) == "1":
        from .testing.latch_tracker import LatchOrderTracker

        install_latch_tracker(LatchOrderTracker())
    return _TRACKER


class TrackedLock:
    """A named, non-reentrant mutex that participates in latch tracking.

    A drop-in replacement for ``threading.Lock`` used as a context
    manager.  The *name* identifies the lock class in the tracker's order
    graph (lockdep-style: ordering is learned per name, not per
    instance), so two databases in one process share one graph.
    """

    __slots__ = ("name", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()

    def __enter__(self) -> "TrackedLock":
        tracker = latch_tracker()
        if tracker is not None:
            tracker.before_acquire(self.name, blocking=True)
        # The release lives in __exit__ -- the whole point of this class
        # is to *be* the try/finally.
        self._lock.acquire()  # protocol: ignore[SNW405]
        if tracker is not None:
            tracker.after_acquire(self.name)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self._lock.release()
        tracker = latch_tracker()
        if tracker is not None:
            tracker.released(self.name)
        return False

    def locked(self) -> bool:
        return self._lock.locked()

    def __repr__(self) -> str:  # pragma: no cover - debugging surface
        state = "locked" if self._lock.locked() else "unlocked"
        return f"<TrackedLock {self.name!r} {state}>"


tracker_from_env()
