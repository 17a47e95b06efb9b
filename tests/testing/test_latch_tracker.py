"""The runtime latch-order detector (lockdep counterpart of SNW4xx).

Covers the tracker in isolation (cycle + self-deadlock detection on the
order graph), the :class:`TrackedLock` wrapper, the environment-variable
enablement path, and the wiring through the real engine latches
(``catalog``, ``catalog.active``, ``daemon.state``).
"""

from __future__ import annotations

import threading

import pytest

from repro.core import SinewDB
from repro.latching import (
    DEBUG_LATCHES_ENV,
    TrackedLock,
    install_latch_tracker,
    latch_tracker,
    tracker_from_env,
)
from repro.testing import (
    LatchOrderError,
    LatchOrderTracker,
    disable_latch_tracking,
    enable_latch_tracking,
)


@pytest.fixture()
def tracker():
    tracker = enable_latch_tracking()
    try:
        yield tracker
    finally:
        disable_latch_tracking()


class TestOrderGraph:
    def test_two_lock_cycle_raises(self):
        tracker = LatchOrderTracker()
        # learn the order a -> b
        tracker.before_acquire("a")
        tracker.after_acquire("a")
        tracker.before_acquire("b")
        tracker.after_acquire("b")
        tracker.released("b")
        tracker.released("a")
        # now attempt b -> a: closes the cycle, potential deadlock
        tracker.before_acquire("b")
        tracker.after_acquire("b")
        with pytest.raises(LatchOrderError, match="order inversion"):
            tracker.before_acquire("a")
        assert tracker.violations, "violation must be recorded for post-run asserts"
        assert "a -> b" in tracker.violations[0]

    def test_transitive_cycle_raises(self):
        tracker = LatchOrderTracker()
        for first, second in [("a", "b"), ("b", "c")]:
            tracker.before_acquire(first)
            tracker.after_acquire(first)
            tracker.before_acquire(second)
            tracker.after_acquire(second)
            tracker.released(second)
            tracker.released(first)
        tracker.before_acquire("c")
        tracker.after_acquire("c")
        with pytest.raises(LatchOrderError, match="a -> b -> c"):
            tracker.before_acquire("a")

    def test_consistent_order_is_clean(self):
        tracker = LatchOrderTracker()
        for _ in range(3):
            tracker.before_acquire("a")
            tracker.after_acquire("a")
            tracker.before_acquire("b")
            tracker.after_acquire("b")
            tracker.released("b")
            tracker.released("a")
        assert tracker.violations == []
        assert tracker.edges() == {"a": frozenset({"b"})}
        assert tracker.acquisitions == 6

    def test_blocking_self_reacquire_raises(self):
        tracker = LatchOrderTracker()
        tracker.before_acquire("a")
        tracker.after_acquire("a")
        with pytest.raises(LatchOrderError, match="self-deadlock"):
            tracker.before_acquire("a")

    def test_nonblocking_attempts_are_exempt(self):
        tracker = LatchOrderTracker()
        tracker.before_acquire("a")
        tracker.after_acquire("a")
        # a try-lock can fail but never deadlock
        tracker.before_acquire("a", blocking=False)
        assert tracker.violations == []

    def test_release_tolerates_untracked_latch(self):
        tracker = LatchOrderTracker()
        tracker.released("never-acquired")
        assert tracker.held() == ()


class TestTrackedLock:
    def test_opposite_order_nesting_raises(self, tracker):
        lock_a = TrackedLock("fixture.a")
        lock_b = TrackedLock("fixture.b")
        with lock_a:
            with lock_b:
                pass
        with pytest.raises(LatchOrderError):
            with lock_b:
                with lock_a:
                    pass
        # the raising acquisition never took the underlying lock
        assert not lock_a.locked()
        assert not lock_b.locked()

    def test_untracked_when_disabled(self):
        disable_latch_tracking()
        lock = TrackedLock("fixture.untracked")
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_env_var_installs_tracker(self, monkeypatch):
        install_latch_tracker(None)
        monkeypatch.setenv(DEBUG_LATCHES_ENV, "1")
        try:
            # read once at import; a later change takes an explicit re-read
            assert latch_tracker() is None
            installed = tracker_from_env()
            assert isinstance(installed, LatchOrderTracker)
            assert latch_tracker() is installed
            assert tracker_from_env() is installed
        finally:
            monkeypatch.undo()  # the lane's own setting decides what is left
            disable_latch_tracking()


class TestEngineWiring:
    def test_catalog_latch_and_active_lock_report(self, tracker):
        sdb = SinewDB("latch_wiring")
        sdb.create_collection("t")
        sdb.load("t", [{"k": i} for i in range(20)])
        sdb.settle("t")
        assert sdb.query("SELECT count(*) FROM t").scalar() == 20
        assert {"catalog", "catalog.active"} <= tracker.names_seen
        # the only cross-latch edge the engine may form: the flip path
        # bumps the epoch (catalog.active) while holding the big latch
        assert "catalog" not in tracker.edges().get("catalog.active", frozenset())
        assert tracker.violations == []

    def test_daemon_lock_reports(self, tracker):
        sdb = SinewDB("latch_daemon")
        sdb.create_collection("t")
        sdb.load("t", [{"k": i} for i in range(10)])
        sdb.daemon.start()
        try:
            sdb.daemon.kick()
            status = sdb.daemon.status()
            assert status.state in {"idle", "running", "sleeping"}
        finally:
            sdb.daemon.stop()
        assert "daemon.state" in tracker.names_seen
        assert tracker.violations == []

    def test_contended_loader_vs_materializer_is_clean(self, tracker):
        sdb = SinewDB("latch_contend")
        sdb.create_collection("t")
        sdb.load("t", [{"k": i, "v": f"x{i}"} for i in range(50)])
        sdb.settle("t")
        errors: list[BaseException] = []

        def loader_thread():
            try:
                for _ in range(5):
                    sdb.load("t", [{"k": 1, "v": "y"}])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def materializer_thread():
            try:
                for _ in range(5):
                    sdb.materializer_step("t", 50)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=loader_thread),
            threading.Thread(target=materializer_thread),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert tracker.violations == []
        assert tracker.acquisitions > 0
