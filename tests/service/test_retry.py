"""Exactly-once write retries: journal semantics and the wire protocol.

Unit tests pin the :class:`RetryJournal` state machine (watermarks,
transaction boundaries, LRU eviction) and :class:`RetryPolicy` backoff;
the wire tests drive a live service with rid-stamped requests -- replays,
resume-after-reconnect, and the client-side rule that a mid-transaction
connection loss must surface instead of silently re-executing the
statement as autocommit.  The retry-path scenarios (respond kill, lost
COMMIT ack, mid-transaction loss, ``busy`` shedding, read timeouts) run
against both the blocking and the asyncio client.
"""

from __future__ import annotations

import asyncio
import random
import socket
import threading
import time

import pytest

from repro.core import SinewDB
from repro.service import (
    AsyncServiceClient,
    JournalRegistry,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SinewService,
)
from repro.service.client import sql_is_write
from repro.service.protocol import encode_message
from repro.service.retry import RetryJournal
from repro.testing.faults import FaultInjector


# ----------------------------------------------------------------------
# journal unit tests
# ----------------------------------------------------------------------


class TestRetryJournal:
    def test_create_then_replay(self):
        journal = RetryJournal()
        entry, created = journal.begin(1)
        assert created
        journal.finish(1, {"ok": True, "n": 7})
        again, created = journal.begin(1)
        assert not created and again is entry
        response = journal.replayed(again)
        assert response == {"ok": True, "n": 7, "replayed": True}
        assert journal.stats()["replays"] == 1

    def test_acked_rid_is_a_protocol_violation(self):
        journal = RetryJournal()
        entry, _ = journal.begin(3)
        journal.finish(3, {"ok": True})
        journal.ack(3)
        assert journal.begin(3) == (None, False)
        assert journal.begin(2) == (None, False)
        # the next fresh rid is business as usual
        entry, created = journal.begin(4)
        assert created

    def test_ack_drops_finished_entries_only(self):
        journal = RetryJournal()
        journal.begin(1)
        journal.finish(1, {"ok": True})
        pending, _ = journal.begin(2)  # still running on a worker
        journal.ack(2)
        assert journal.stats()["entries"] == 1  # rid 2 survives until done
        assert not pending.done.is_set()

    def test_forget_lets_a_retry_re_execute(self):
        journal = RetryJournal()
        entry, _ = journal.begin(1)
        journal.forget(1)
        assert entry.failed and entry.done.is_set()
        _, created = journal.begin(1)
        assert created  # fresh attempt, not a replay

    def test_rollback_drops_open_txn_entries(self):
        journal = RetryJournal()
        journal.begin(1)
        journal.finish(1, {"ok": True}, in_txn=True)
        journal.begin(2)
        journal.finish(2, {"ok": True}, in_txn=False)
        assert journal.rollback_open() == 1
        _, created = journal.begin(1)
        assert created  # effects were undone: re-execute
        entry, created = journal.begin(2)
        assert not created  # autocommit outcome still holds

    def test_commit_clears_txn_flags(self):
        journal = RetryJournal()
        journal.begin(1)
        journal.finish(1, {"ok": True}, in_txn=True)
        journal.begin(2)
        journal.finish(2, {"ok": True}, in_txn=True, kind="commit")
        assert journal.rollback_open() == 0  # durable now; nothing to drop

    def test_journaled_rollback_drops_others_but_keeps_itself(self):
        journal = RetryJournal()
        journal.begin(1)
        journal.finish(1, {"ok": True}, in_txn=True)
        journal.begin(2)
        journal.finish(2, {"ok": True}, in_txn=True, kind="rollback")
        _, created_write = journal.begin(1)
        entry, created_rb = journal.begin(2)
        assert created_write  # voided by the rollback
        assert not created_rb  # the ROLLBACK outcome itself replays

    def test_lru_eviction_spares_pending_entries(self):
        journal = RetryJournal(capacity=2)
        pending, _ = journal.begin(1)  # never finished
        journal.begin(2)
        journal.finish(2, {"ok": True})
        journal.begin(3)
        journal.finish(3, {"ok": True})
        stats = journal.stats()
        assert stats["entries"] == 2 and stats["evicted"] == 1
        assert not pending.done.is_set()  # rid 2 was the victim, not rid 1
        _, created = journal.begin(1)
        assert not created


class TestJournalRegistry:
    def test_park_and_claim(self):
        registry = JournalRegistry()
        journal = RetryJournal()
        registry.park("tok-a", journal)
        assert registry.claim("tok-a") is journal
        assert registry.claim("tok-a") is None  # single-use
        assert registry.stats()["resumes"] == 1

    def test_capacity_drops_oldest(self):
        registry = JournalRegistry(capacity=2)
        for index in range(3):
            registry.park(f"tok-{index}", RetryJournal())
        assert registry.claim("tok-0") is None
        assert registry.claim("tok-2") is not None
        assert registry.stats()["dropped"] == 1


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.5, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(attempt, rng) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=1.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(4):
            base = min(0.1 * 2**attempt, 1.0)
            delay = policy.backoff(attempt, rng)
            assert 0.5 * base <= delay <= 1.5 * base


def test_sql_write_classification():
    assert sql_is_write("INSERT INTO t (a) VALUES (1)")
    assert sql_is_write("  begin")
    assert sql_is_write("COMMIT")
    assert not sql_is_write("SELECT 1 FROM t")
    assert not sql_is_write("")


# ----------------------------------------------------------------------
# wire tests: a live service, rid-stamped requests
# ----------------------------------------------------------------------


@pytest.fixture
def harness():
    sdb = SinewDB("retry-test")
    injector = FaultInjector()
    sdb.attach_faults(injector)
    service = SinewService(sdb, ServiceConfig(port=0))
    service.start_in_thread()
    yield sdb, injector, service
    service.stop_in_thread()
    sdb.attach_faults(None)
    sdb.close()


def connect(service, **kwargs) -> ServiceClient:
    return ServiceClient("127.0.0.1", service.port, **kwargs)


@pytest.fixture
def mute_server():
    """A port that greets every connection and then never answers."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    stop = threading.Event()
    held: list[socket.socket] = []

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            held.append(conn)
            greeting = {"ok": True, "session": len(held), "resume_token": f"t{len(held)}"}
            conn.sendall(encode_message(greeting))

    thread = threading.Thread(target=serve)
    thread.start()
    yield listener.getsockname()[1]
    stop.set()
    thread.join(5.0)
    assert not thread.is_alive()
    listener.close()
    for conn in held:
        conn.close()


class _Awaitable:
    """Async face over the blocking client, so one scenario drives both."""

    def __init__(self, client: ServiceClient):
        self._client = client

    def __getattr__(self, name: str):
        value = getattr(self._client, name)
        if not callable(value):
            return value

        async def call(*args, **kwargs):
            return value(*args, **kwargs)

        return call


class _RetryingClientCases:
    """The retry path, run against the blocking client (``flavour =
    "sync"``) and the asyncio one (``"async"``), each scenario under
    ``asyncio.run``."""

    flavour = "sync"

    def run(self, port: int, scenario, seed: int, read_timeout=None, **policy) -> None:
        retry = RetryPolicy(**{"backoff_base": 0.01, "backoff_max": 0.05, **policy})
        options = {"retry": retry, "seed": seed, "read_timeout": read_timeout}

        async def main() -> None:
            if self.flavour == "sync":
                client = _Awaitable(ServiceClient("127.0.0.1", port, **options))
            else:
                client = await AsyncServiceClient("127.0.0.1", port, **options).connect()
            try:
                await scenario(client)
            finally:
                await client.close()

        asyncio.run(main())

    def test_retrying_client_survives_respond_kill(self, harness):
        _, injector, service = harness
        with connect(service) as setup:
            setup.execute("CREATE TABLE docs (a INTEGER)")
            setup.execute("INSERT INTO docs (a) VALUES (1)")

        async def scenario(client):
            # the response for the INSERT is dropped on the floor; the
            # client reconnects, resumes, retries the rid, and the journal
            # replays the recorded outcome -- exactly one row lands
            injector.plan("service.respond", "kill")
            await client.query("INSERT INTO docs (a) VALUES (2)")
            assert client.reconnects == 1
            assert client.replays == 1
            assert (await client.query("SELECT COUNT(*) FROM docs")).scalar() == 2

        try:
            self.run(service.port, scenario, seed=1)
        finally:
            injector.reset()

    def test_lost_commit_ack_is_replayed_not_rerun(self, harness):
        _, injector, service = harness

        async def scenario(client):
            await client.query("CREATE TABLE docs (a INTEGER)")
            await client.query("INSERT INTO docs (a) VALUES (1)")
            await client.query("BEGIN")
            await client.query("INSERT INTO docs (a) VALUES (2)")
            injector.plan("service.respond", "kill")
            await client.query("COMMIT")  # ack lost; retry must not commit twice
            assert client.replays >= 1
            rows = sorted((await client.query("SELECT a FROM docs")).rows)
            assert rows == [(1,), (2,)]

        try:
            self.run(service.port, scenario, seed=2)
        finally:
            injector.reset()

    def test_mid_txn_connection_loss_raises_instead_of_escaping(self, harness):
        _, injector, service = harness

        async def scenario(client):
            await client.query("CREATE TABLE docs (a INTEGER)")
            await client.query("INSERT INTO docs (a) VALUES (1)")
            await client.query("BEGIN")
            await client.query("INSERT INTO docs (a) VALUES (2)")
            # the connection dies before the next statement's response:
            # the server rolled the transaction back at disconnect, so
            # transparently retrying the statement would re-execute it
            # OUTSIDE the transaction -- the client must raise instead
            injector.plan("service.respond", "kill")
            with pytest.raises((ServiceError, ConnectionError, OSError)):
                await client.query("INSERT INTO docs (a) VALUES (3)")
            assert not client.in_transaction  # context is gone, visibly
            # neither txn write escaped the abort
            assert (await client.query("SELECT a FROM docs")).rows == [(1,)]

        try:
            self.run(service.port, scenario, seed=3)
        finally:
            injector.reset()

    def test_busy_shed_is_retried_until_admitted(self, harness):
        _, injector, service = harness
        with connect(service) as setup:
            setup.load("docs", [{"a": 1}])
        # one statement slot, held by a load that sleeps on its worker
        # thread: every statement sent meanwhile is shed with "busy"
        service.config.max_inflight = 1
        injector.plan("loader.before_insert", "delay", delay=0.3)

        def hold() -> None:
            with connect(service) as other:
                other.load("docs", [{"a": 2}])

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            while not injector.fired("loader.before_insert"):
                time.sleep(0.005)

            async def scenario(client):
                result = await client.query("SELECT COUNT(*) FROM docs")
                assert result.scalar() == 2
                assert client.retries >= 1
                assert client.reconnects == 0  # busy keeps the connection

            self.run(service.port, scenario, seed=4, jitter=0.0, backoff_max=0.2)
        finally:
            holder.join()
            injector.reset()
        assert service.counters["shed_busy"] >= 1

    def test_read_timeout_is_retried_until_unavailable(self, mute_server):
        async def scenario(client):
            with pytest.raises(ServiceError) as info:
                await client.query("SELECT 1")
            assert info.value.code == "unavailable"
            # each attempt times out: the request's read, then twice the
            # read of the resume that the reconnect sends
            assert client.retries == 3
            assert client.reconnects == 2

        self.run(mute_server, scenario, seed=5, read_timeout=0.05, max_attempts=3)


class TestWireIdempotency(_RetryingClientCases):
    def test_duplicate_rid_replays_not_re_executes(self, harness):
        sdb, _, service = harness
        with connect(service) as client:
            client.execute("CREATE TABLE docs (a INTEGER)")
            client.execute("INSERT INTO docs (a) VALUES (1)")
            message = {
                "op": "query",
                "sql": "INSERT INTO docs (a) VALUES (2)",
                "rid": 1,
            }
            first = client.request(dict(message))
            # simulate the response never arriving: the retry must not
            # advance the ack watermark past the in-doubt rid
            client._ack = 0
            second = client.request(dict(message))
            assert second.get("replayed") is True
            assert second["result"] == first["result"]
            assert client.query("SELECT COUNT(*) FROM docs").scalar() == 2
        assert service.counters["retries_deduped"] == 1

    def test_rid_below_ack_watermark_is_rejected(self, harness):
        _, _, service = harness
        with connect(service) as client:
            client.request(
                {"op": "query", "sql": "CREATE TABLE docs (a INTEGER)", "rid": 1}
            )
            client.request(
                {"op": "query", "sql": "INSERT INTO docs (a) VALUES (1)", "rid": 2}
            )
            # the ack piggybacked on rid 2 covered rid 1; re-sending it is
            # not a retry, it is a bug in the client
            with pytest.raises(ServiceError) as info:
                client.request(
                    {"op": "query", "sql": "CREATE TABLE docs (a INTEGER)", "rid": 1}
                )
            assert info.value.code == "protocol"
            assert "watermark" in info.value.payload["message"]

    def test_rollback_voids_journaled_txn_writes(self, harness):
        _, _, service = harness
        with connect(service) as client:
            client.execute("CREATE TABLE docs (a INTEGER)")
            client.execute("INSERT INTO docs (a) VALUES (1)")
            client.begin()
            insert = {
                "op": "query",
                "sql": "INSERT INTO docs (a) VALUES (9)",
                "rid": 10,
            }
            client.request(dict(insert))
            client._ack = 0  # the insert's response counts as lost
            client.rollback()
            # the insert's effects were undone: the retry re-executes (as
            # autocommit now) instead of replaying a success that no
            # longer holds
            replay = client.request(dict(insert))
            assert "replayed" not in replay
            rows = sorted(client.query("SELECT a FROM docs").rows)
            assert rows == [(1,), (9,)]

    def test_resume_reclaims_journal_across_reconnect(self, harness):
        _, _, service = harness
        first = connect(service)
        first.execute("CREATE TABLE docs (a INTEGER)")
        first.execute("INSERT INTO docs (a) VALUES (1)")
        token = first.resume_token
        first.request(
            {"op": "query", "sql": "INSERT INTO docs (a) VALUES (2)", "rid": 5}
        )
        first.kill()  # abrupt death; journal parks under the token

        second = connect(service)
        try:
            resumed = second.request({"op": "resume", "token": token})
            assert resumed["resumed"] is True
            # the in-doubt rid replays on the new connection
            replay = second.request(
                {"op": "query", "sql": "INSERT INTO docs (a) VALUES (2)", "rid": 5}
            )
            assert replay.get("replayed") is True
            assert second.query("SELECT COUNT(*) FROM docs").scalar() == 2
        finally:
            second.close()
        assert service.journals.stats()["resumes"] == 1

    def test_resume_with_unknown_token_says_so(self, harness):
        _, _, service = harness
        with connect(service) as client:
            response = client.request({"op": "resume", "token": "never-issued"})
            assert response["resumed"] is False

    def test_plain_clients_still_interoperate(self, harness):
        # a version-1 client that never stamps rids keeps the PR 7
        # contract: write timeouts are not retryable, reads round-trip
        _, _, service = harness
        with connect(service) as client:
            client.load("docs", [{"a": 1}])
            assert client.query("SELECT a FROM docs").rows == [(1,)]
            assert "resume_token" in client.greeting


class TestAsyncRetryingClient(_RetryingClientCases):
    flavour = "async"
