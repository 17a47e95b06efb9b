"""Full-stack chaos harness: concurrent retrying clients vs. injected faults.

``run_chaos`` boots a durable :class:`~repro.core.SinewDB` behind a live
:class:`~repro.service.server.SinewService`, points a fleet of retrying
:class:`~repro.service.client.ServiceClient` threads at it, and -- while
they hammer the engine with inserts, transactions, loads, and reads --
drives a seeded random fault schedule through every layer the
:class:`~repro.testing.faults.FaultInjector` can reach: connection kills
at accept/execute/respond, materializer-daemon crashes (the daemon
restarts itself), WAL I/O failures (degraded read-only episodes healed with
the ``recover`` op), and abrupt client kills mid-transaction.

Afterwards it asserts the invariants that make the fault-tolerance story
honest (ISSUE/DESIGN.md section 13):

* **exactly-once writes** -- no ``(tag, seq)`` row appears twice, every
  acknowledged autocommit insert and committed transaction block is
  present, every rolled-back/abandoned/failed block is absent, and every
  indeterminate block is all-or-nothing;
* **serial-replay equality** -- replaying each client's acknowledged
  effects serially into a fresh embedded engine produces exactly the
  surviving chaos rows;
* **zero leaks** -- no sessions, transactions, parked latches, or armed
  fault debris survive the drain;
* **convergence** -- after faults stop, the schema analyzer +
  materializer settle the layout and the integrity checker comes back
  clean.

Every event is captured as a JSONL log (``ChaosReport.events``) so a CI
failure can be replayed: the same ``ChaosConfig.seed`` reproduces the
same client schedules and the same fault plans.

Run standalone::

    python -m repro.testing.chaos --seed 7 --clients 16 --ops 40
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.sinew import SinewConfig, SinewDB
from ..service.client import ServiceClient, ServiceError
from ..service.retry import RetryPolicy
from ..service.server import ServiceConfig, SinewService
from .faults import FaultInjector

#: fault points the random scheduler may arm while clients run.  WAL
#: points are excluded here -- ``wal.io_error`` is driven by the
#: dedicated degraded-episode loop (arming it needs ``exception=OSError``
#: and a recovery step), and raw ``wal.append``/``wal.fsync`` raises
#: deliberately leave transactions frozen for crash-recovery tests,
#: which is the wrong behaviour under a live service.
SERVICE_POINTS = (
    "service.accept",
    "service.execute",
    "service.respond",
)
DAEMON_POINTS = (
    "daemon.before_step",
    "daemon.after_step",
    "materializer.before_step",
    "materializer.before_row_move",
    "materializer.after_row_move",
    "materializer.before_clear_dirty",
)
CHECKPOINT_POINTS = (
    "checkpoint.pages",
    "checkpoint.catalog",
    "checkpoint.truncate",
)


@dataclass
class ChaosConfig:
    """One chaos run, fully determined by ``seed``."""

    seed: int = 0
    clients: int = 16
    #: operations each client attempts (a txn block counts as one)
    ops_per_client: int = 24
    #: probability an op is a BEGIN/.../COMMIT-or-ROLLBACK block
    txn_probability: float = 0.3
    #: probability a client abruptly drops its socket mid-transaction
    kill_probability: float = 0.15
    #: random service/daemon/checkpoint faults armed per scheduler pass
    fault_rounds: int = 10
    #: WAL-I/O degraded episodes (each healed with the recover op)
    degraded_episodes: int = 1
    query_timeout: float = 15.0
    drain_timeout: float = 5.0
    #: where the durable database lives (None = fresh temp dir)
    path: str | None = None
    #: write the JSONL event log here (None = keep in memory only)
    log_path: str | None = None


@dataclass
class ChaosReport:
    """Outcome + evidence of one chaos run."""

    seed: int = 0
    ok: bool = False
    duration: float = 0.0
    ops: int = 0
    acked: int = 0
    failed: int = 0
    unknown: int = 0
    retries: int = 0
    replays: int = 0
    reconnects: int = 0
    client_kills: int = 0
    faults_armed: int = 0
    faults_fired: int = 0
    degraded_episodes: int = 0
    degraded_errors: int = 0
    recover_attempts: int = 0
    daemon_restarts: int = 0
    rows_final: int = 0
    leaked_sessions: int = 0
    leaked_txns: int = 0
    settle_rounds: int = 0
    check_findings: int = 0
    failures: list[str] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {k: v for k, v in self.__dict__.items() if k != "events"}
        return json.dumps(payload, indent=2, sort_keys=True)

    def write_log(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event, default=str) + "\n")


class _ChaosClient(threading.Thread):
    """One retrying client running its seeded op schedule.

    Records every effectful operation with a definite outcome class:

    * ``acked`` -- the server confirmed it (possibly via a journal
      replay after reconnect);
    * ``failed`` -- a definitive structured error (no effects);
    * ``unknown`` -- retry budget exhausted with the outcome in doubt;
    * blocks additionally end ``committed`` / ``rolled_back`` /
      ``abandoned`` (client killed mid-transaction).
    """

    def __init__(
        self,
        index: int,
        port: int,
        config: ChaosConfig,
        events: list[dict[str, Any]],
        events_lock: threading.Lock,
    ):
        super().__init__(name=f"chaos-client-{index}", daemon=True)
        self.index = index
        self.port = port
        self.config = config
        self.rng = random.Random((config.seed << 8) ^ index)
        self.events = events
        self.events_lock = events_lock
        #: [(kind, payload)] -- this client's acknowledged effects in order
        self.log: list[dict[str, Any]] = []
        self.kills = 0
        self.retries = 0
        self.replays = 0
        self.reconnects = 0
        self.degraded_errors = 0
        self.error: str | None = None

    def _event(self, **payload: Any) -> None:
        payload.setdefault("client", self.index)
        payload.setdefault("t", time.time())
        with self.events_lock:
            self.events.append(payload)
        self.log.append(payload)

    def run(self) -> None:
        try:
            self._run()
        except BaseException as error:  # surfaced by the harness
            self.error = f"{type(error).__name__}: {error}"

    def _run(self) -> None:
        policy = RetryPolicy(
            max_attempts=8,
            deadline=30.0,
            backoff_base=0.01,
            backoff_max=0.25,
        )
        client = ServiceClient(
            "127.0.0.1",
            self.port,
            connect_timeout=10.0,
            read_timeout=self.config.query_timeout + 5.0,
            retry=policy,
            seed=self.rng.randrange(1 << 30),
        )
        seq = 0
        block = 0
        try:
            for _ in range(self.config.ops_per_client):
                roll = self.rng.random()
                if roll < self.config.txn_probability:
                    block += 1
                    seq = self._txn_block(client, block, seq)
                elif roll < self.config.txn_probability + 0.1:
                    self._read(client)
                else:
                    seq = self._autocommit_insert(client, seq)
        finally:
            self.retries = client.retries
            self.replays = client.replays
            self.reconnects = client.reconnects
            try:
                client.close()
            except Exception:
                pass

    # -- op flavours ---------------------------------------------------

    def _classify(self, error: ServiceError) -> str:
        if error.code == "degraded":
            self.degraded_errors += 1
            return "failed"
        if error.code in ("resume", "unavailable", "timeout"):
            return "unknown"
        # busy/injected/retry errors that survived the whole retry
        # budget: the last attempt's outcome never arrived
        if error.retryable or error.code in ("injected", "busy"):
            return "unknown"
        return "failed"

    def _autocommit_insert(self, client: ServiceClient, seq: int) -> int:
        seq += 1
        tag, value = self.index, seq
        try:
            client.query(f"INSERT INTO chaos VALUES ({tag}, {value})")
        except ServiceError as error:
            self._event(
                kind="insert", tag=tag, seq=value,
                outcome=self._classify(error), error=error.code,
            )
            return seq
        except (ConnectionError, OSError) as error:
            self._event(
                kind="insert", tag=tag, seq=value,
                outcome="unknown", error=type(error).__name__,
            )
            return seq
        self._event(kind="insert", tag=tag, seq=value, outcome="acked")
        return seq

    def _txn_block(self, client: ServiceClient, block: int, seq: int) -> int:
        inserts: list[int] = []
        try:
            client.begin()
        except (ServiceError, ConnectionError, OSError) as error:
            self._event(
                kind="block", block=block, inserts=inserts,
                outcome="failed", error=str(getattr(error, "code", error)),
            )
            return seq
        for _ in range(self.rng.randint(1, 3)):
            seq += 1
            try:
                client.query(f"INSERT INTO chaos VALUES ({self.index}, {seq})")
            except ServiceError as error:
                # a failed statement inside a block: abort the block, by
                # ROLLBACK or -- if that fails too -- by dropping the
                # socket (the server rolls back at disconnect).  Leaving
                # the transaction open would make the next "autocommit"
                # op silently join it, and its ack would be a lie.
                self._abort_block(client)
                self._event(
                    kind="block", block=block, inserts=inserts,
                    outcome="failed", error=error.code,
                )
                return seq
            except (ConnectionError, OSError):
                # connection died and retries could not settle it: the
                # server rolled the open txn back at disconnect
                self._event(
                    kind="block", block=block, inserts=inserts,
                    outcome="abandoned", error="connection",
                )
                return seq
            inserts.append(seq)
            if self.rng.random() < self.config.kill_probability:
                # abrupt client death mid-transaction: drop the socket
                # without a goodbye; the server must roll the txn back
                client.kill()
                self.kills += 1
                self._event(
                    kind="block", block=block, inserts=inserts,
                    outcome="abandoned", error="killed",
                )
                return seq
        if self.rng.random() < 0.2:
            try:
                client.rollback()
                outcome = "rolled_back"
            except (ServiceError, ConnectionError, OSError):
                self._ensure_txn_dead(client)
                outcome = "abandoned"
            self._event(
                kind="block", block=block, inserts=inserts, outcome=outcome
            )
            return seq
        try:
            client.commit()
        except ServiceError as error:
            # the commit did not ack; whether it landed or not, the
            # session must not stay parked inside the block (a failed
            # pre-execution fault leaves the transaction open)
            self._ensure_txn_dead(client)
            self._event(
                kind="block", block=block, inserts=inserts,
                outcome=self._classify(error) + "_commit", error=error.code,
            )
            return seq
        except (ConnectionError, OSError) as error:
            self._event(
                kind="block", block=block, inserts=inserts,
                outcome="unknown_commit", error=type(error).__name__,
            )
            return seq
        self._event(kind="block", block=block, inserts=inserts, outcome="committed")
        return seq

    def _abort_block(self, client: ServiceClient) -> None:
        try:
            client.rollback()
        except (ServiceError, ConnectionError, OSError):
            self._ensure_txn_dead(client)

    def _ensure_txn_dead(self, client: ServiceClient) -> None:
        """A block ended without a confirmed COMMIT/ROLLBACK.  If the
        connection is still up with the transaction open (e.g. an
        injected pre-execution fault failed the boundary statement but
        kept the session), drop the socket: the server rolls the
        transaction back at disconnect, so the ledger's all-or-nothing
        accounting for the block holds and -- critically -- the next op
        cannot silently join a zombie transaction and lose its "acked"
        effects to the eventual disconnect rollback."""
        if client.in_transaction:
            client.kill()

    def _read(self, client: ServiceClient) -> None:
        try:
            client.query(f"SELECT COUNT(*) FROM chaos WHERE tag = {self.index}")
        except (ServiceError, ConnectionError, OSError):
            pass


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run one seeded chaos schedule; returns the report (never raises
    for invariant violations -- they land in ``report.failures``)."""
    config = config or ChaosConfig()
    report = ChaosReport(seed=config.seed)
    started = time.monotonic()
    rng = random.Random(config.seed)
    events: list[dict[str, Any]] = []
    events_lock = threading.Lock()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(config.path) if config.path else Path(tmp) / "chaos-db"
        sdb = SinewDB("chaos", SinewConfig(daemon_idle_sleep=0.002), path=path)
        faults = FaultInjector()
        sdb.faults = faults
        sdb.start_daemon()
        service = SinewService(
            sdb,
            ServiceConfig(
                port=0,
                max_sessions=config.clients * 2 + 4,
                max_inflight=max(8, config.clients // 2),
                query_timeout=config.query_timeout,
                drain_timeout=config.drain_timeout,
            ),
        )
        port = service.start_in_thread()
        try:
            _run_schedule(
                config, report, rng, events, events_lock, sdb, faults, service, port
            )
        finally:
            try:
                service.stop_in_thread()
            except RuntimeError as error:
                report.failures.append(f"service stop: {error}")
            _assert_no_leaks(report, sdb, service)
            try:
                sdb.close()
            except Exception as error:
                report.failures.append(f"close: {type(error).__name__}: {error}")

    report.events = events
    report.duration = time.monotonic() - started
    report.ok = not report.failures
    if config.log_path:
        report.write_log(config.log_path)
    return report


def _run_schedule(
    config: ChaosConfig,
    report: ChaosReport,
    rng: random.Random,
    events: list[dict[str, Any]],
    events_lock: threading.Lock,
    sdb: SinewDB,
    faults: FaultInjector,
    service: SinewService,
    port: int,
) -> None:
    admin = ServiceClient(
        "127.0.0.1", port, retry=RetryPolicy(backoff_base=0.01), seed=config.seed
    )
    admin.query("CREATE TABLE chaos (tag INTEGER, seq INTEGER)")
    # seed a collection so the materializer daemon has real work to
    # crash in the middle of
    admin.load(
        "chaos_docs",
        [{"k": i, "v": f"v{i}", "w": i * 2} for i in range(50)],
    )

    clients = [
        _ChaosClient(i, port, config, events, events_lock)
        for i in range(config.clients)
    ]
    for client in clients:
        client.start()

    # the seeded fault scheduler: arm small bursts of service/daemon/
    # checkpoint faults while the fleet runs, plus degraded episodes
    pool = list(SERVICE_POINTS + DAEMON_POINTS + CHECKPOINT_POINTS)
    episodes_left = config.degraded_episodes
    rounds = 0
    while any(client.is_alive() for client in clients):
        time.sleep(rng.uniform(0.01, 0.05))
        if rounds < config.fault_rounds:
            point = rng.choice(pool)
            action = "kill" if rng.random() < 0.7 else "raise"
            plan = faults.plan(point, action, count=rng.randint(1, 2))
            report.faults_armed += 1
            with events_lock:
                events.append(
                    {"kind": "fault", "point": point, "action": action,
                     "count": plan.count, "t": time.time()}
                )
            rounds += 1
        elif episodes_left > 0:
            episodes_left -= 1
            _degraded_episode(config, report, rng, events, events_lock, sdb, faults, admin)
    # let remaining plans fire or go stale; then disarm everything
    for client in clients:
        client.join(timeout=120.0)
    report.faults_fired = len(faults.history)
    faults.reset()

    # if the run ended degraded (an episode fired with no writes left to
    # trip recovery), heal it now so convergence can write
    if sdb.db.wal.degraded:
        report.recover_attempts += 1
        admin.recover()

    for client in clients:
        if client.error:
            report.failures.append(f"client {client.index}: {client.error}")
        report.retries += client.retries
        report.replays += client.replays
        report.reconnects += client.reconnects
        report.client_kills += client.kills
        report.degraded_errors += client.degraded_errors

    report.daemon_restarts = sum(
        info["restarts"] for info in (sdb.supervision() or {}).values()
    )

    _assert_exactly_once(report, clients, admin)
    _settle_and_check(report, sdb)
    admin.close()


def _degraded_episode(
    config: ChaosConfig,
    report: ChaosReport,
    rng: random.Random,
    events: list[dict[str, Any]],
    events_lock: threading.Lock,
    sdb: SinewDB,
    faults: FaultInjector,
    admin: ServiceClient,
) -> None:
    """Break the WAL, let clients hit the read-only wall, heal it."""
    report.degraded_episodes += 1
    op = rng.choice(["append", "fsync"])
    faults.plan("wal.io_error", exception=OSError, where={"op": op})
    with events_lock:
        events.append({"kind": "degrade", "op": op, "t": time.time()})
    deadline = time.monotonic() + 5.0
    while not sdb.db.wal.degraded and time.monotonic() < deadline:
        time.sleep(0.01)
    if not sdb.db.wal.degraded:
        # no write hit the armed point (all clients finished/reading);
        # disarm so the stale plan cannot fire during convergence
        faults.disarm("wal.io_error")
        return
    time.sleep(rng.uniform(0.05, 0.15))
    report.recover_attempts += 1
    recovery = admin.recover()
    with events_lock:
        events.append({"kind": "recover", "result": recovery, "t": time.time()})
    if recovery.get("degraded"):
        report.failures.append(f"recover left the engine degraded: {recovery}")


def _assert_exactly_once(
    report: ChaosReport, clients: list[_ChaosClient], admin: ServiceClient
) -> None:
    """Exactly-once + serial-replay equality over the chaos table."""
    rows = admin.query("SELECT tag, seq FROM chaos").rows
    actual = [(row[0], row[1]) for row in rows]
    actual_set = set(actual)
    report.rows_final = len(actual)
    if len(actual) != len(actual_set):
        dupes = sorted({pair for pair in actual if actual.count(pair) > 1})
        report.failures.append(f"duplicate rows (double-applied writes): {dupes}")

    expected: set[tuple[int, int]] = set()
    maybe: list[set[tuple[int, int]]] = []
    forbidden: set[tuple[int, int]] = set()
    for client in clients:
        for event in client.log:
            if event["kind"] == "insert":
                pair = (event["tag"], event["seq"])
                report.ops += 1
                if event["outcome"] == "acked":
                    report.acked += 1
                    expected.add(pair)
                elif event["outcome"] == "failed":
                    report.failed += 1
                    forbidden.add(pair)
                else:
                    report.unknown += 1
                    maybe.append({pair})
            elif event["kind"] == "block":
                pairs = {(event["client"], seq) for seq in event["inserts"]}
                report.ops += 1
                outcome = event["outcome"]
                if outcome == "committed":
                    report.acked += 1
                    expected |= pairs
                elif outcome in ("rolled_back", "abandoned", "failed",
                                 "failed_commit"):
                    report.failed += 1
                    forbidden |= pairs
                else:  # unknown / unknown_commit: all-or-nothing
                    report.unknown += 1
                    if pairs:
                        maybe.append(pairs)

    missing = expected - actual_set
    if missing:
        report.failures.append(
            f"{len(missing)} acknowledged writes missing (lost acks): "
            f"{sorted(missing)[:10]}"
        )
    present_forbidden = forbidden & actual_set
    if present_forbidden:
        report.failures.append(
            f"{len(present_forbidden)} rolled-back/failed writes present: "
            f"{sorted(present_forbidden)[:10]}"
        )
    allowed = set(expected)
    for pairs in maybe:
        present = pairs & actual_set
        if present and present != pairs:
            report.failures.append(
                f"indeterminate block applied partially (atomicity broken): "
                f"present={sorted(present)} of {sorted(pairs)}"
            )
        allowed |= pairs
    stray = actual_set - allowed
    if stray:
        report.failures.append(
            f"{len(stray)} rows from nowhere: {sorted(stray)[:10]}"
        )

    # serial-replay equality: the acknowledged effects plus the
    # indeterminate ones that demonstrably landed, applied one at a time
    # to a fresh embedded engine, must rebuild exactly the chaos table
    # (insert-only workload, so ordering cannot matter -- any divergence
    # means an effect was duplicated, lost, or torn)
    maybe_union: set[tuple[int, int]] = set()
    for pairs in maybe:
        maybe_union |= pairs
    to_replay = sorted(expected | (actual_set & maybe_union))
    replay = SinewDB("replay", SinewConfig())
    try:
        replay.query("CREATE TABLE chaos (tag INTEGER, seq INTEGER)")
        for tag, seq in to_replay:
            replay.query(f"INSERT INTO chaos VALUES ({tag}, {seq})")
        replay_rows = replay.query("SELECT tag, seq FROM chaos").rows
        replay_set = {(row[0], row[1]) for row in replay_rows}
        if replay_set != actual_set:
            report.failures.append(
                "serial replay diverged from the chaos table: "
                f"{len(replay_set)} replayed vs {len(actual_set)} observed; "
                f"only_replay={sorted(replay_set - actual_set)[:10]} "
                f"only_actual={sorted(actual_set - replay_set)[:10]}"
            )
    finally:
        replay.close()


def _settle_and_check(report: ChaosReport, sdb: SinewDB) -> None:
    """Convergence: analyzer + materializer reach a settled layout and
    the integrity checker signs off."""
    for _ in range(10):
        report.settle_rounds += 1
        moved = 0
        for name in sdb.collections():
            sdb.analyze_schema(name)
            moved += sdb.run_materializer(name).rows_moved
        if moved == 0 and sdb.daemon.status().idle:
            break
        time.sleep(0.02)
    else:
        report.failures.append("layout did not settle within 10 rounds")
    findings = 0
    for check in sdb.check():
        findings += len(check.findings)
        for finding in check.findings:
            report.failures.append(f"integrity: {finding}")
    report.check_findings = findings


def _assert_no_leaks(report: ChaosReport, sdb: SinewDB, service: SinewService) -> None:
    report.leaked_sessions = len(service.sessions)
    if service.sessions:
        report.failures.append(f"leaked sessions: {sorted(service.sessions)}")
    active = list(sdb.db.txn_manager.active)
    report.leaked_txns = len(active)
    if active:
        report.failures.append(f"leaked transactions: {active}")
    if service.write_lock.locked():
        report.failures.append("service write latch still held after drain")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.chaos",
        description="Run one seeded full-stack chaos schedule.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--ops", type=int, default=24)
    parser.add_argument("--fault-rounds", type=int, default=10)
    parser.add_argument("--degraded-episodes", type=int, default=1)
    parser.add_argument("--log", default=None, help="write JSONL event log here")
    args = parser.parse_args(argv)
    report = run_chaos(
        ChaosConfig(
            seed=args.seed,
            clients=args.clients,
            ops_per_client=args.ops,
            fault_rounds=args.fault_rounds,
            degraded_episodes=args.degraded_episodes,
            log_path=args.log,
        )
    )
    print(report.to_json())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
