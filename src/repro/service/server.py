"""The asyncio SQL service: many clients, one shared :class:`SinewDB`.

One ``SinewService`` hosts one engine instance.  Connections speak the
JSON-lines protocol (:mod:`repro.service.protocol`); each gets a private
:class:`~repro.service.session.Session` (its own transaction scope and
prepared statements) while the heavy machinery -- heap, catalog,
materializer daemon, prepared-plan cache, checkpointer -- is shared.

Concurrency model (DESIGN.md section 12):

* engine calls run on a bounded thread pool so the event loop never
  blocks on storage work; reads run concurrently (each query runs on
  its own thread with its own extraction context, and the buffer pool
  is locked; the catalog latch protocol orders them against writers);
* writes serialize on one service-wide :class:`~repro.latching.TrackedLock`
  (``service.write``), which also participates in the latch-order
  tracker -- a write path that tried to take the catalog latch in the
  wrong order would trip ``REPRO_DEBUG_LATCHES=1``;
* admission control is two-layered: ``max_sessions`` rejects new
  connections at accept time and ``max_inflight`` sheds excess
  concurrent statements, both with a structured ``busy`` error the
  client can retry on;
* every statement gets ``query_timeout`` seconds; past that the client
  receives a ``timeout`` error (the worker thread finishes in the
  background -- the engine has no cancellation points -- but its
  outcome is captured).  Reads are always retryable; a write stamped
  with a client ``rid`` is retryable too, because the per-session
  dedup journal (:mod:`repro.service.retry`) replays the original
  outcome instead of re-executing.  Only rid-less writes keep the PR 7
  "effects may apply, do not retry" answer.

Fault tolerance (DESIGN.md section 13):

* **exactly-once writes**: ``rid``/``ack`` request fields + the
  ``resume`` op reattach a disconnected session's journal, so a retry
  after a timeout, a killed response, or a reconnect returns the
  recorded outcome exactly once;
* **graceful drain**: ``stop()`` closes the listener, gives in-flight
  statements ``drain_timeout`` seconds to finish, then closes sessions
  (rolling back open transactions);
* **degraded mode**: a WAL I/O failure flips the engine read-only
  (structured ``degraded`` errors for writes, SELECTs keep working);
  the ``recover`` op / ``\\service recover`` brings it back;
* **supervision**: the materializer daemon and the background
  checkpointer restart themselves after a crash
  (:class:`~repro.core.background.BackgroundWorker`: bounded backoff, a
  permanent trip surfaced in the ``health`` op, and a stop always wins
  over a pending restart).

Fault injection: the per-connection paths fire ``service.accept``,
``service.execute`` and ``service.respond``, and shutdown fires
``service.drain``, so tests can kill a session at any protocol stage
and assert the shared engine stays healthy (no leaked latches, no
orphaned transactions).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from dataclasses import dataclass, field
from typing import Any

from ..core.background import BackgroundWorker
from ..core.plan_cache import DEFAULT_PLAN_CACHE_SIZE, PlanCache
from ..core.sinew import SinewDB
from ..latching import TrackedLock
from ..rdbms.errors import (
    CatalogError,
    ConcurrencyError,
    DatabaseError,
    DegradedError,
    ExecutionError,
    PlanningError,
    SemanticError,
    SqlSyntaxError,
    TransactionError,
)
from ..rdbms.sql.ast import Statement
from ..rdbms.sql.parser import parse
from ..testing.faults import DaemonKilled, InjectedFault
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    decode_value,
    encode_message,
    encode_result,
)
from .retry import JournalEntry, JournalRegistry
from .session import Session, is_write_statement, statement_kind

#: map engine exception types to wire error codes; ordered most-specific
#: first (SemanticError subclasses PlanningError, etc.)
_ERROR_CODES: tuple[tuple[type[Exception], str], ...] = (
    (SqlSyntaxError, "syntax"),
    (SemanticError, "semantic"),
    (PlanningError, "planning"),
    (CatalogError, "catalog"),
    (ConcurrencyError, "concurrency"),
    (DegradedError, "degraded"),
    (TransactionError, "transaction"),
    (ExecutionError, "execution"),
    (InjectedFault, "injected"),
    (DatabaseError, "database"),
    (ProtocolError, "protocol"),
)

#: longest SQL fragment echoed back in error payloads
_SQL_ECHO = 120


def error_code(error: BaseException) -> str:
    for exc_type, code in _ERROR_CODES:
        if isinstance(error, exc_type):
            return code
    return "internal"


def error_payload(error: BaseException, **extra: Any) -> dict[str, Any]:
    detail: dict[str, Any] = {"code": error_code(error), "message": str(error)}
    detail.update(extra)
    return {"ok": False, "error": detail}


@dataclass
class ServiceConfig:
    """Tunables for one :class:`SinewService`."""

    host: str = "127.0.0.1"
    #: 0 asks the OS for an ephemeral port (tests); ``port`` on the
    #: running service reports the bound one
    port: int = 0
    #: admission control: connections beyond this are refused with a
    #: structured ``busy`` error at accept time
    max_sessions: int = 64
    #: backpressure: statements executing concurrently beyond this are
    #: shed with a ``busy`` error instead of queueing unboundedly
    max_inflight: int = 8
    #: per-statement wall-clock budget in seconds (None = unlimited)
    query_timeout: float | None = 30.0
    #: engine worker threads (reads run concurrently up to this)
    executor_threads: int = 8
    #: background checkpoint cadence in seconds (None = no checkpointer;
    #: only effective on durable databases)
    checkpoint_interval: float | None = None
    #: plan-cache capacity installed on the engine if it has none yet
    plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE
    #: shutdown grace: in-flight statements get this many seconds to
    #: finish before sessions are closed (open transactions roll back)
    drain_timeout: float = 5.0
    #: per-session rid -> outcome dedup journal capacity (LRU backstop
    #: for clients that never ack)
    journal_capacity: int = 256
    #: parked journals of disconnected sessions kept for ``resume``
    resume_capacity: int = 128
    #: extra context merged into the greeting (tests tag servers)
    tags: dict[str, Any] = field(default_factory=dict)


class SinewService:
    """One TCP endpoint over one shared engine.

    Lifecycle: construct with an open :class:`SinewDB`, then either
    ``await serve()`` inside an event loop (``python -m repro.service``)
    or use :meth:`start_in_thread`/:meth:`stop_in_thread` to host it on
    a background thread (tests, benchmarks, the shell's ``\\connect``).
    The service never closes the engine -- the caller owns it.
    """

    def __init__(self, sdb: SinewDB, config: ServiceConfig | None = None):
        self.sdb = sdb
        self.config = config or ServiceConfig()
        if self.sdb.plan_cache is None and self.config.plan_cache_size > 0:
            # the embedded default disables the cache; the service is the
            # intended beneficiary (repeated statements across clients)
            self.sdb.plan_cache = PlanCache(self.config.plan_cache_size)
        #: one writer at a time across every session (named + tracked)
        self.write_lock = TrackedLock("service.write")
        self.sessions: dict[int, Session] = {}
        self._next_session_id = 1
        self._inflight = 0
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._checkpoint_worker: BackgroundWorker | None = None
        self._draining = False
        self._shutting_down = False
        #: journals of disconnected sessions, claimable via ``resume``
        self.journals = JournalRegistry(self.config.resume_capacity)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, self.config.executor_threads),
            thread_name_prefix="service-worker",
        )
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._thread_error: BaseException | None = None
        self.port: int | None = None
        #: service-level observability (merged into the ``status`` op)
        self.counters = {
            "connections": 0,
            "rejected_busy": 0,
            "shed_busy": 0,
            "statements": 0,
            "errors": 0,
            "timeouts": 0,
            "protocol_errors": 0,
            "checkpoints": 0,
            "checkpoints_skipped": 0,
            "journaled": 0,
            "retries_deduped": 0,
            "resumes": 0,
            "drained_clean": 0,
            "drain_timeouts": 0,
            "drain_rejected": 0,
            "recoveries": 0,
        }

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Bind, accept connections, and run until :meth:`stop` is called."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        policy = self.sdb.supervise()
        if self.config.checkpoint_interval is not None and self.sdb.db.path is not None:
            checkpointer = BackgroundWorker(
                "checkpointer",
                self.config.checkpoint_interval,
                self._checkpoint_tick,
                policy=policy,
            )
            checkpointer.faults = self.sdb.faults
            self.sdb.workers[checkpointer.name] = checkpointer
            checkpointer.start()
            self._checkpoint_worker = checkpointer
        self._ready.set()
        try:
            await self._stopping.wait()
            await self._drain()
        finally:
            self._shutting_down = True
            if self._checkpoint_worker is not None:
                self._checkpoint_worker.stop()
                self.sdb.workers.pop(self._checkpoint_worker.name, None)
            self._server.close()
            await self._server.wait_closed()
            for session in list(self.sessions.values()):
                session.close()
            self.sessions.clear()
            self._executor.shutdown(wait=False)

    async def _drain(self) -> None:
        """Graceful-shutdown phase: stop accepting, let in-flight finish.

        The listener closes first (new connections get refused at the
        socket), then in-flight statements get ``drain_timeout`` seconds
        to complete; whatever is still running when the deadline passes
        is abandoned to the normal teardown path (sessions close, open
        transactions roll back).  An injected ``service.drain`` raise
        skips the grace period entirely -- the abrupt-shutdown path
        chaos schedules exercise.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        try:
            if self.sdb.faults is not None:
                self.sdb.faults.fire("service.drain")
        except InjectedFault:
            self.counters["drain_timeouts"] += 1
            return
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, self.config.drain_timeout)
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if self._inflight > 0:
            self.counters["drain_timeouts"] += 1
        else:
            self.counters["drained_clean"] += 1

    def stop(self) -> None:
        """Request shutdown (safe from any thread, idempotent)."""
        if self._loop is not None and self._stopping is not None:
            try:
                self._loop.call_soon_threadsafe(self._stopping.set)
            except RuntimeError:
                pass  # loop already closed: shutdown has happened

    # ------------------------------------------------------------------
    # background-thread hosting (tests, benchmarks, shell \connect)
    # ------------------------------------------------------------------

    def start_in_thread(self, timeout: float = 10.0) -> int:
        """Host the server on a daemon thread; returns the bound port."""
        if self._thread is not None:
            raise RuntimeError("service already started")

        def runner() -> None:
            try:
                asyncio.run(self.serve())
            except BaseException as error:  # surfaced by start/stop
                self._thread_error = error
                self._ready.set()

        self._thread = threading.Thread(
            target=runner, name="sinew-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service failed to start within timeout")
        if self._thread_error is not None:
            raise RuntimeError("service failed to start") from self._thread_error
        assert self.port is not None
        return self.port

    def stop_in_thread(self, timeout: float = 10.0) -> None:
        if self._thread is None:
            return
        self.stop()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not stop within timeout")
        self._thread = None
        if self._thread_error is not None:
            error, self._thread_error = self._thread_error, None
            raise RuntimeError("service thread crashed") from error

    def __enter__(self) -> "SinewService":
        self.start_in_thread()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop_in_thread()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Session | None = None
        try:
            self.counters["connections"] += 1
            try:
                if self.sdb.faults is not None:
                    self.sdb.faults.fire("service.accept")
                if len(self.sessions) >= self.config.max_sessions:
                    self.counters["rejected_busy"] += 1
                    writer.write(
                        encode_message(
                            {
                                "ok": False,
                                "error": {
                                    "code": "busy",
                                    "message": (
                                        f"session limit reached "
                                        f"({self.config.max_sessions}); retry later"
                                    ),
                                    "retryable": True,
                                },
                            }
                        )
                    )
                    await writer.drain()
                    return
                session_id = self._next_session_id
                self._next_session_id += 1
                session = Session(
                    session_id,
                    self.sdb,
                    self.write_lock,
                    journal_capacity=self.config.journal_capacity,
                )
                self.sessions[session_id] = session
            except InjectedFault as error:
                # admission fault: the connection dies before a session
                # exists, so there is nothing to clean up in the engine
                self.counters["errors"] += 1
                writer.write(encode_message(error_payload(error)))
                await writer.drain()
                return
            writer.write(
                encode_message(
                    {
                        "ok": True,
                        "server": "sinew-service",
                        "version": PROTOCOL_VERSION,
                        "session": session.id,
                        "resume_token": session.resume_token,
                        **({"tags": self.config.tags} if self.config.tags else {}),
                    }
                )
            )
            await writer.drain()
            await self._request_loop(session, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client vanished; the finally block still cleans up
        finally:
            if session is not None:
                self.sessions.pop(session.id, None)
                # rolls back any open transaction so a dead client never
                # pins undo state in the shared engine; synchronous on
                # purpose -- an await here could be cancelled at loop
                # teardown and skip the rollback
                session.close()
                # park the journal *after* close: the rollback just
                # voided any entries journaled inside the open txn, and
                # the parked copy must reflect that (a resumed retry of
                # one of those rids re-executes instead of replaying)
                self.journals.park(session.resume_token, session.journal)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _request_loop(
        self,
        session: Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return  # EOF: client closed the connection
            try:
                request = decode_message(line)
            except ProtocolError as error:
                self.counters["protocol_errors"] += 1
                writer.write(encode_message(error_payload(error)))
                await writer.drain()
                continue
            response = await self._dispatch(session, request)
            try:
                if self.sdb.faults is not None:
                    self.sdb.faults.fire("service.respond")
            except InjectedFault:
                # fault between execution and the response write: the
                # statement's effects stand, the client sees a dead socket
                # (exactly what a network partition produces); session
                # cleanup runs in _handle_connection's finally
                return
            request_id = request.get("id")
            if request_id is not None:
                response["id"] = request_id
            writer.write(encode_message(response))
            await writer.drain()
            if request.get("op") == "close" or self._shutting_down:
                # during loop teardown a cancellation delivered while the
                # statement's executor future was completing can be
                # swallowed by wait_for (it returns the ready result);
                # without this check the handler would loop back into
                # readline() uncancelled and hang the loop shutdown
                return

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, session: Session, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        rid = request.get("rid")
        ack = request.get("ack")
        if isinstance(ack, int):
            # piggybacked watermark: the client saw every response <= ack
            session.journal.ack(ack)
        # the one parse of a ``query`` (or the one made at ``prepare``):
        # it decides journaling, the write latch and timeout retryability
        statement: Statement | None = None
        try:
            if self._draining and op not in ("close", "ping", "health"):
                self.counters["drain_rejected"] += 1
                return {
                    "ok": False,
                    "error": {
                        "code": "unavailable",
                        "message": "server is draining; reconnect later",
                        "retryable": False,
                        "draining": True,
                    },
                }
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "query":
                sql = request.get("sql")
                if not isinstance(sql, str):
                    raise ProtocolError("'query' needs a string 'sql' field")
                statement = parse(sql)
                kind = statement_kind(statement)
                if isinstance(rid, int) and kind != "read":
                    return await self._run_journaled(
                        session,
                        rid,
                        kind,
                        lambda result: {"ok": True, "result": encode_result(result)},
                        session.run,
                        sql,
                        statement,
                    )
                result = await self._run_engine(session, session.run, sql, statement)
                self._sync_journal_txn(session, kind)
                return {"ok": True, "result": encode_result(result)}
            if op == "prepare":
                name, sql = request.get("name"), request.get("sql")
                if not isinstance(name, str) or not isinstance(sql, str):
                    raise ProtocolError("'prepare' needs string 'name' and 'sql' fields")
                prepared = await self._run_engine(session, session.prepare, name, sql)
                return {"ok": True, "prepared": name, "kind": prepared.kind}
            if op == "execute":
                name = request.get("name")
                if not isinstance(name, str):
                    raise ProtocolError("'execute' needs a string 'name' field")
                prepared = session.prepared.get(name)
                if prepared is not None:
                    statement = prepared.statement
                    kind = statement_kind(statement)
                    if isinstance(rid, int) and kind != "read":
                        return await self._run_journaled(
                            session,
                            rid,
                            kind,
                            lambda result: {"ok": True, "result": encode_result(result)},
                            session.execute_prepared,
                            name,
                        )
                result = await self._run_engine(session, session.execute_prepared, name)
                if prepared is not None:
                    self._sync_journal_txn(session, kind)
                return {"ok": True, "result": encode_result(result)}
            if op == "deallocate":
                name = request.get("name")
                if not isinstance(name, str):
                    raise ProtocolError("'deallocate' needs a string 'name' field")
                return {"ok": True, "deallocated": session.deallocate(name)}
            if op == "load":
                table = request.get("table")
                documents = request.get("documents")
                if not isinstance(table, str) or not isinstance(documents, list):
                    raise ProtocolError(
                        "'load' needs a string 'table' and a list 'documents'"
                    )
                decoded = [decode_value(document) for document in documents]
                if isinstance(rid, int):
                    return await self._run_journaled(
                        session,
                        rid,
                        "write",
                        lambda report: {"ok": True, **report},
                        session.load_documents,
                        table,
                        decoded,
                    )
                report = await self._run_engine(
                    session, session.load_documents, table, decoded
                )
                return {"ok": True, **report}
            if op == "resume":
                token = request.get("token")
                if not isinstance(token, str):
                    raise ProtocolError("'resume' needs a string 'token' field")
                journal = self.journals.claim(token)
                if journal is None:
                    return {"ok": True, "resumed": False, "acked": 0}
                session.journal = journal
                self.counters["resumes"] += 1
                return {"ok": True, "resumed": True, "acked": journal.acked}
            if op == "health":
                return {"ok": True, "health": self._health()}
            if op == "recover":
                report = await self._run_engine(session, self.sdb.recover_service)
                self.counters["recoveries"] += 1
                return {"ok": True, "recover": report}
            if op == "set":
                key, value = request.get("key"), decode_value(request.get("value"))
                if not isinstance(key, str):
                    raise ProtocolError("'set' needs a string 'key' field")
                session.set_option(key, value)
                return {"ok": True, "settings": dict(session.settings)}
            if op == "session":
                return {"ok": True, "session": session.describe()}
            if op == "status":
                return {"ok": True, "status": self._status()}
            if op == "close":
                return {"ok": True, "closed": True}
            raise ProtocolError(f"unknown op {op!r}")
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            session.errors += 1
            retryable = self._timeout_retryable(request, statement)
            message = (
                f"statement exceeded the {self.config.query_timeout}s "
                f"query timeout"
            )
            if not retryable:
                message += (
                    "; the statement is still running on its worker thread"
                    " and its effects may apply -- do not retry blindly"
                )
            return {
                "ok": False,
                "error": {
                    "code": "timeout",
                    "message": message,
                    "retryable": retryable,
                },
            }
        except _Busy:
            self.counters["shed_busy"] += 1
            return {
                "ok": False,
                "error": {
                    "code": "busy",
                    "message": (
                        f"server at max inflight statements "
                        f"({self.config.max_inflight}); retry"
                    ),
                    "retryable": True,
                },
            }
        except Exception as error:
            self.counters["errors"] += 1
            session.errors += 1
            extra: dict[str, Any] = {}
            sql = request.get("sql")
            if isinstance(sql, str):
                extra["sql"] = sql[:_SQL_ECHO]
            if isinstance(error, DegradedError):
                # the write was rejected before any effect; retrying it
                # verbatim is pointless until an operator runs recover
                extra["degraded"] = True
                extra["retryable"] = False
                if error.reason:
                    extra["reason"] = error.reason
            return error_payload(error, **extra)

    def _timeout_retryable(
        self, request: dict[str, Any], statement: Statement | None
    ) -> bool:
        """Whether a timed-out request is safe to retry verbatim.

        The engine has no cancellation points: a timed-out statement
        keeps running on its worker thread and its effects (an INSERT's
        autocommit, a COMMIT's WAL flush) may still apply after the
        client saw the error.  Reads are idempotent, so always
        retryable.  A write is retryable iff the request carried a
        ``rid``: the journal records the original outcome when the
        worker finishes, so a retry replays it (or waits for it)
        instead of double-applying.  Rid-less writes keep the honest
        "effects may apply, do not retry" answer.  ``statement`` is the
        request's parsed statement (None: unparsed or unknown).
        """
        op = request.get("op")
        journaled = isinstance(request.get("rid"), int)
        if op in ("query", "execute"):
            if statement is None:
                return False
            return journaled or not is_write_statement(statement)
        if op == "load":
            return journaled
        return True

    def _sync_journal_txn(self, session: Session, kind: str) -> None:
        """A transaction boundary executed OUTSIDE the journal (no rid):
        the journal must still learn about it, or entries recorded inside
        the closed transaction keep the wrong in-txn flag -- a rolled-back
        write would replay a success whose effects were undone."""
        if kind == "rollback":
            session.journal.rollback_open()
        elif kind == "commit":
            session.journal.commit_open()

    async def _run_engine(self, session: Session, fn: Any, *args: Any) -> Any:
        """Run one engine call on the worker pool with shedding + timeout."""
        if self._inflight >= self.config.max_inflight:
            raise _Busy()
        if self.sdb.faults is not None:
            # "request decoded, statement not yet executed": an injected
            # raise here surfaces as a structured error on this session
            # only; a DaemonKilled tears just this statement down
            self.sdb.faults.fire("service.execute")
        self._inflight += 1
        self.counters["statements"] += 1
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._executor, lambda: fn(*args))
            if self.config.query_timeout is None:
                return await future
            return await asyncio.wait_for(future, self.config.query_timeout)
        finally:
            self._inflight -= 1

    async def _run_journaled(
        self,
        session: Session,
        rid: int,
        kind: str,
        build: Any,
        fn: Any,
        *args: Any,
    ) -> dict[str, Any]:
        """Run one rid-stamped write with exactly-once retry semantics.

        The journal handshake happens *before* admission control: a
        retry of an already-recorded rid replays the outcome without
        costing an inflight slot, and a retry of a still-running rid
        waits for the original worker instead of racing a second
        execution.  The outcome is recorded on the worker thread itself
        -- after the statement, before the response is sent -- so a
        statement that outlives its timeout (or whose response dies on
        the wire) still lands in the journal for the next retry.
        """
        journal = session.journal
        entry, created = journal.begin(rid)
        if entry is None:
            return {
                "ok": False,
                "error": {
                    "code": "protocol",
                    "message": (
                        f"request id {rid} is at or below the acked "
                        f"watermark ({journal.acked}); it was already "
                        f"confirmed delivered"
                    ),
                },
            }
        if not created:
            return await self._await_outcome(session, entry)
        self.counters["journaled"] += 1
        if self._inflight >= self.config.max_inflight:
            journal.forget(rid)
            raise _Busy()
        if self.sdb.faults is not None:
            try:
                self.sdb.faults.fire("service.execute")
            except BaseException:
                # pre-execution fault: nothing ran, a retry must re-execute
                journal.forget(rid)
                raise
        self._inflight += 1
        self.counters["statements"] += 1
        loop = asyncio.get_running_loop()

        def job() -> dict[str, Any]:
            try:
                result = fn(*args)
            except BaseException:
                journal.forget(rid)
                raise
            response = build(result)
            journal.finish(
                rid,
                response,
                in_txn=session.db_session.in_transaction,
                kind=kind,
            )
            return response

        try:
            future = loop.run_in_executor(self._executor, job)
            if self.config.query_timeout is None:
                return await future
            return await asyncio.wait_for(future, self.config.query_timeout)
        finally:
            self._inflight -= 1

    async def _await_outcome(
        self, session: Session, entry: JournalEntry
    ) -> dict[str, Any]:
        """A retried rid: replay the recorded outcome, or wait for the
        original attempt still running on its worker thread."""
        if entry.response is None and not entry.failed:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, entry.done.wait, self.config.query_timeout
            )
        if entry.failed:
            # the original attempt errored (no effects, statement-level
            # atomicity) or was aborted before starting: safe to re-send
            return {
                "ok": False,
                "error": {
                    "code": "retry",
                    "message": (
                        "the original attempt of this request failed "
                        "before completing; retry"
                    ),
                    "retryable": True,
                },
            }
        if entry.response is None:
            # still running past another full timeout budget
            raise asyncio.TimeoutError()
        self.counters["retries_deduped"] += 1
        return session.journal.replayed(entry)

    def _status(self) -> dict[str, Any]:
        engine = self.sdb.status()
        payload = {
            "service": {
                "sessions": len(self.sessions),
                "max_sessions": self.config.max_sessions,
                "inflight": self._inflight,
                "max_inflight": self.config.max_inflight,
                "draining": self._draining,
                "counters": dict(self.counters),
                "journals": self.journals.stats(),
            },
            "engine": engine,
        }
        # engine status nests dataclasses and counters; squeeze through
        # JSON once so the wire frame never hits an unencodable object
        return json.loads(json.dumps(payload, default=str))

    def _health(self) -> dict[str, Any]:
        """Cheap liveness summary (the ``health`` op; no engine latches).

        Unlike ``status`` this stays answerable while the engine is
        degraded or draining -- it reads flags and counters only.
        """
        health = self.sdb.health()
        checkpointer = self._checkpoint_worker
        health.update(
            status="draining" if self._draining else health["status"],
            draining=self._draining,
            sessions=len(self.sessions),
            inflight=self._inflight,
            checkpointer=None
            if checkpointer is None
            else {
                "state": checkpointer.state,
                "ticks": checkpointer.ticks,
                "last_error": checkpointer.last_error,
            },
        )
        return health

    # ------------------------------------------------------------------
    # background checkpointer (a BackgroundWorker ticking this)
    # ------------------------------------------------------------------

    def _checkpoint_tick(self) -> None:
        # cheap pre-checks without the latch: skip the latched round
        # trip while a session transaction is visibly open, and never
        # try to checkpoint a degraded WAL (it cannot fsync)
        if self.sdb.db.txn_manager.active or self.sdb.db.wal.degraded:
            self.counters["checkpoints_skipped"] += 1
            return
        try:
            done = self._checkpoint_once()
        except DaemonKilled:
            # injected crash: escape so the worker crashes and its
            # restart/trip machinery takes over
            raise
        except Exception:
            self.counters["checkpoints_skipped"] += 1
        else:
            key = "checkpoints" if done else "checkpoints_skipped"
            self.counters[key] += 1

    def _checkpoint_once(self) -> bool:
        # Under the write latch: DML *and* transaction control (BEGIN/
        # COMMIT/ROLLBACK, plus disconnect-time aborts) all hold it, so
        # no session can open a transaction or commit between the check
        # below and the snapshot -- the cut is transaction-consistent.
        # The materializer daemon's autocommit txns don't hold it, so the
        # check can still see one in flight; that is a plain skip (the
        # engine-side checkpoint would quiesce the daemon via the catalog
        # latch, but a txn begun before the latch must not be cut).
        with self.write_lock:
            if self.sdb.db.txn_manager.active:
                return False
            self.sdb.checkpoint()
            return True


class _Busy(Exception):
    """Internal signal: max_inflight reached, shed this statement."""
