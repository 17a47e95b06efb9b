"""Worker supervision: crash, bounded self-restart, tripping, stop wins.

Unit tests drive a real :class:`BackgroundWorker` whose tick and restart
hook fail on a script; integration tests crash the real materializer
daemon and the service checkpointer and watch them come back (and their
crash surface in ``status()`` / ``\\daemon`` / health), or stay down once
they were told to stop.
"""

from __future__ import annotations

import sys
import threading
import time

from repro.core import BackgroundWorker, SinewConfig, SinewDB, SupervisorPolicy
from repro.rdbms.types import SqlType
from repro.service import ServiceClient, ServiceConfig, SinewService
from repro.testing.faults import FaultInjector


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


FAST = SupervisorPolicy(
    backoff_base=0.01, backoff_max=0.05, max_restarts=3, stability_window=0.2
)


class Script:
    """A tick that crashes on demand and a restart hook that may refuse."""

    def __init__(self, fail_restarts=0):
        self.crash = threading.Event()
        self.fail_restarts = fail_restarts
        self.hook_calls = 0

    def tick(self) -> bool:
        if self.crash.is_set():
            self.crash.clear()
            raise RuntimeError("scripted crash")
        return False

    def on_restart(self) -> None:
        self.hook_calls += 1
        if self.fail_restarts > 0:
            self.fail_restarts -= 1
            raise RuntimeError("restart refused")


def scripted_worker(script, policy=FAST) -> BackgroundWorker:
    return BackgroundWorker(
        "stub", 0.005, script.tick, on_restart=script.on_restart, policy=policy
    )


class TestSupervisorPolicy:
    def test_restarts_a_crashed_worker(self):
        script = Script()
        worker = scripted_worker(script)
        worker.start()
        try:
            script.crash.set()
            assert wait_until(lambda: worker.restarts == 1)
            status = worker.supervision()
            assert status["restarts"] == 1
            assert status["last_error"] == "RuntimeError: scripted crash"
            assert not status["tripped"]
            assert script.hook_calls == 1
            ticks = worker.ticks
            assert wait_until(lambda: worker.ticks > ticks)
            assert worker.state == "running"
        finally:
            worker.stop()

    def test_trips_after_budget_exhausted(self):
        # a worker whose restart always fails burns one failure per
        # attempt; past max_restarts it gives up and is left alone
        script = Script(fail_restarts=99)
        worker = scripted_worker(script)
        worker.start()
        try:
            script.crash.set()
            assert wait_until(lambda: worker.tripped)
            assert worker.restarts == 0
            status = worker.supervision()
            assert status["tripped"]
            assert status["consecutive_failures"] == FAST.max_restarts + 1
            assert "restart refused" in status["last_error"]
            # tripped means *left alone*: give it time to prove it
            assert wait_until(lambda: not worker.is_alive())
            attempts = script.hook_calls
            time.sleep(0.1)
            assert worker.restarts == 0
            assert script.hook_calls == attempts
            assert worker.state == "crashed"
        finally:
            worker.stop()

    def test_reset_untrips_and_restores_budget(self):
        script = Script(fail_restarts=99)
        worker = scripted_worker(script)
        worker.start()
        try:
            script.crash.set()
            assert wait_until(lambda: worker.tripped)
            script.fail_restarts = 0  # the underlying condition is fixed
            worker.reset()
            assert wait_until(lambda: worker.restarts >= 1)
            assert not worker.tripped
            assert worker.is_alive()
            assert worker.supervision()["consecutive_failures"] == 0
        finally:
            worker.stop()

    def test_stability_window_resets_failure_budget(self):
        script = Script()
        worker = scripted_worker(script)
        worker.start()
        try:
            # two crash/restart cycles, each followed by a stretch of
            # healthy uptime longer than the stability window
            for expected in (1, 2):
                script.crash.set()
                assert wait_until(lambda: worker.restarts == expected)
                time.sleep(FAST.stability_window * 2)
            assert worker.supervision()["consecutive_failures"] == 0
            # and the next crash starts the count afresh
            script.crash.set()
            assert wait_until(lambda: worker.restarts == 3)
            assert worker.supervision()["consecutive_failures"] == 1
        finally:
            worker.stop()

    def test_restart_faults_count_against_the_budget(self):
        # the supervisor.restart injection point makes restarts fail,
        # driving the trip logic from the outside
        script = Script()
        worker = scripted_worker(script)
        injector = FaultInjector()
        worker.faults = injector
        worker.start()
        try:
            injector.plan("supervisor.restart", "raise", count=None)
            script.crash.set()
            assert wait_until(lambda: worker.tripped)
            assert worker.restarts == 0
            assert script.hook_calls == 0
            injector.reset()
            worker.reset()
            assert wait_until(lambda: worker.restarts == 1)
        finally:
            worker.stop()


class TestPeriodicWorker:
    def test_ticks_and_stops(self):
        worker = BackgroundWorker("ticker", 0.01, lambda: None)
        worker.start()
        assert wait_until(lambda: worker.ticks >= 3)
        worker.stop()
        assert worker.state == "stopped"
        assert not worker.is_alive()

    def test_first_tick_waits_one_interval(self):
        worker = BackgroundWorker("ticker", 0.3, lambda: None)
        worker.start()
        try:
            time.sleep(0.1)
            assert worker.ticks == 0
            assert wait_until(lambda: worker.ticks >= 1)
        finally:
            worker.stop()

    def test_escaping_exception_crashes_the_worker(self):
        def tick():
            raise ValueError("tick went bad")

        worker = BackgroundWorker("crasher", 0.01, tick)
        worker.start()
        assert wait_until(lambda: not worker.is_alive())
        assert worker.state == "crashed"
        assert "tick went bad" in worker.last_error
        assert worker.last_error_at is not None
        # no policy: the crash stays frozen
        time.sleep(0.05)
        assert worker.state == "crashed" and not worker.is_alive()

    def test_supervisor_restarts_a_crashed_periodic_worker(self):
        crashes = {"left": 1}

        def tick():
            if crashes["left"] > 0:
                crashes["left"] -= 1
                raise ValueError("transient")

        worker = BackgroundWorker("flaky", 0.01, tick, policy=FAST)
        worker.start()
        try:
            assert wait_until(lambda: worker.ticks >= 2)
            assert worker.supervision()["restarts"] == 1
        finally:
            worker.stop()


class TestSupervisedDaemon:
    def test_daemon_crash_is_restarted_under_service(self):
        sdb = SinewDB("supervised", config=SinewConfig(daemon_idle_sleep=0.002))
        injector = FaultInjector()
        sdb.attach_faults(injector)
        sdb.start_daemon()
        # tighten the restart cadence; the service keeps the engine's policy
        sdb.supervise(FAST)
        service = SinewService(sdb, ServiceConfig(port=0))
        service.start_in_thread()
        try:
            with ServiceClient("127.0.0.1", service.port) as client:
                client.load("docs", [{"a": index} for index in range(8)])
                injector.kill_at("daemon.before_step")
                sdb.materialize("docs", "a", SqlType.INTEGER)  # queue daemon work
                assert wait_until(
                    lambda: sdb.supervision()["materializer"]["restarts"] >= 1
                )
                assert wait_until(lambda: sdb.daemon.is_alive())
                # the restarted daemon finishes the materialization pass
                assert wait_until(lambda: sdb.daemon.status().idle)
            status = sdb.status()
            assert status["supervisor"]["materializer"]["restarts"] >= 1
        finally:
            injector.reset()
            service.stop_in_thread()
            sdb.attach_faults(None)
            sdb.close()

    def test_unsupervised_daemon_stays_crashed(self):
        # the embedded freeze-on-crash contract is untouched when nobody
        # calls supervise()
        sdb = SinewDB("frozen", config=SinewConfig(daemon_idle_sleep=0.002))
        injector = FaultInjector()
        sdb.attach_faults(injector)
        sdb.start_daemon()
        try:
            sdb.create_collection("docs")
            sdb.load("docs", [{"a": index} for index in range(8)])
            injector.kill_at("daemon.before_step")
            sdb.materialize("docs", "a", SqlType.INTEGER)
            assert wait_until(lambda: sdb.daemon.state == "crashed")
            time.sleep(0.1)
            assert sdb.daemon.state == "crashed"
            assert sdb.supervisor is None
        finally:
            injector.reset()
            sdb.attach_faults(None)
            sdb.close()

    def test_health_carries_daemon_crash_details(self):
        sdb = SinewDB("visible", config=SinewConfig(daemon_idle_sleep=0.002))
        injector = FaultInjector()
        sdb.attach_faults(injector)
        sdb.start_daemon()
        # no restarts allowed: the crash must stay visible, not get repaired
        sdb.supervise(SupervisorPolicy(max_restarts=0))
        service = SinewService(sdb, ServiceConfig(port=0))
        service.start_in_thread()
        try:
            with ServiceClient("127.0.0.1", service.port) as client:
                client.load("docs", [{"a": index} for index in range(8)])
                injector.kill_at("daemon.before_step")
                sdb.materialize("docs", "a", SqlType.INTEGER)
                assert wait_until(lambda: sdb.daemon.state == "crashed")
                health = client.health()
                daemon = health["daemon"]
                assert daemon["state"] == "crashed"
                assert daemon["last_error"]
                assert daemon["last_error_at"] is not None
                assert health["tripped"] == ["materializer"]
                # and the engine-side status block agrees
                status = sdb.status()["daemon"]
                assert status["state"] == "crashed"
                assert status["last_error"]
        finally:
            injector.reset()
            service.stop_in_thread()
            sdb.attach_faults(None)
            sdb.close()


#: restarts wait long enough that a stop can land while one is pending
SLOW_RESTART = SupervisorPolicy(
    backoff_base=0.2, backoff_max=0.2, max_restarts=3, stability_window=5.0
)


def sinew_threads(before):
    """Live ``sinew-*`` threads started since ``before`` was taken."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread not in before
        and thread.name.startswith("sinew-")
        and thread.is_alive()
    ]


class TestStopWins:
    """A stop request beats a pending restart, for every worker."""

    def test_stopped_daemon_stays_stopped(self):
        sdb = SinewDB("stopwins", config=SinewConfig(daemon_idle_sleep=0.002))
        injector = FaultInjector()
        sdb.attach_faults(injector)
        sdb.supervise(SLOW_RESTART)
        sdb.start_daemon()
        try:
            sdb.create_collection("docs")
            sdb.load("docs", [{"a": index} for index in range(8)])
            injector.kill_at("daemon.before_step")
            sdb.materialize("docs", "a", SqlType.INTEGER)
            assert wait_until(lambda: sdb.daemon.state == "crashed")
            sdb.stop_daemon()
            restarts = sdb.status()["supervisor"]["materializer"]["restarts"]
            time.sleep(0.5)
            assert not sdb.daemon.is_alive()
            assert sdb.daemon.state in ("crashed", "stopped")
            assert sdb.status()["supervisor"]["materializer"]["restarts"] == restarts
        finally:
            injector.reset()
            sdb.attach_faults(None)
            sdb.close()

    def test_stopped_service_stops_checkpointing(self, tmp_path):
        before = set(threading.enumerate())
        sdb = SinewDB.open(tmp_path / "db", "stopwins-ckpt")
        injector = FaultInjector()
        sdb.attach_faults(injector)
        # the engine owns the policy, so the service did not install it
        sdb.supervise(SLOW_RESTART)
        service = SinewService(
            sdb, ServiceConfig(port=0, checkpoint_interval=0.02)
        )
        service.start_in_thread()
        try:
            injector.kill_at("checkpoint.pages")
            with ServiceClient("127.0.0.1", service.port) as client:
                assert wait_until(
                    lambda: client.health()["checkpointer"]["state"] == "crashed"
                )
            service.stop_in_thread()
            checkpoints = service.counters["checkpoints"]
            time.sleep(0.5)
            assert service.counters["checkpoints"] == checkpoints
            assert "sinew-checkpointer" not in sinew_threads(before)
        finally:
            injector.reset()
            service.stop_in_thread()
            sdb.attach_faults(None)
            sdb.close()

    def test_stop_wins_against_a_crash_loop_under_racing_readers(self):
        # a worker that crashes on every tick restarts within microseconds;
        # readers poll its record from more threads than there are cores,
        # and each stop must end it for good whatever phase it was in
        policy = SupervisorPolicy(
            backoff_base=0.0002, backoff_max=0.001, max_restarts=10**6,
            stability_window=60.0,
        )

        def tick():
            raise RuntimeError("always")

        worker = BackgroundWorker("racer", 0.0001, tick, policy=policy)
        done = threading.Event()
        seen: list[str] = []

        def reader():
            last = 0
            while not done.is_set():
                restarts = worker.supervision()["restarts"]
                if restarts < last:
                    seen.append(f"restarts went back: {last} -> {restarts}")
                last = restarts

        readers = [threading.Thread(target=reader) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for round_ in range(20):
                worker.start()
                time.sleep(0.001 * (round_ % 5))
                worker.stop(timeout=5.0)
                assert not worker.is_alive()
                restarts = worker.restarts
                time.sleep(0.005)
                assert not worker.is_alive()
                assert worker.restarts == restarts
                assert worker.state in ("crashed", "stopped")
        finally:
            sys.setswitchinterval(switch)
            done.set()
            for thread in readers:
                thread.join(5.0)
        assert not any(thread.is_alive() for thread in readers)
        assert not seen, seen
        assert worker.restarts > 0

    def test_no_worker_thread_outlives_service_and_engine(self, tmp_path):
        before = set(threading.enumerate())
        sdb = SinewDB.open(tmp_path / "db", "hygiene")
        sdb.start_daemon()
        service = SinewService(
            sdb, ServiceConfig(port=0, checkpoint_interval=0.02)
        )
        service.start_in_thread()
        with ServiceClient("127.0.0.1", service.port) as client:
            client.load("docs", [{"a": index} for index in range(8)])
        service.stop_in_thread()
        sdb.close()
        assert wait_until(lambda: not sinew_threads(before), timeout=2.0), (
            sinew_threads(before)
        )
