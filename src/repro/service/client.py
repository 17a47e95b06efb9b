"""Client bindings for the Sinew service (sync and asyncio flavours).

Both clients speak the JSON-lines protocol and surface server-side
failures as :class:`ServiceError` carrying the structured error code
(``syntax``, ``semantic``, ``busy``, ``timeout``, ...), so callers can
branch on ``error.code`` -- e.g. retry on ``error.retryable``.

:class:`ServiceClient` (blocking sockets) is the porcelain for scripts
and the shell's ``\\connect`` mode; :class:`AsyncServiceClient` is the
plumbing the concurrency harness uses to hold hundreds of connections
open from one event loop.

Fault tolerance (opt-in via ``retry=RetryPolicy()`` or ``retry=True``):

* separate **connect** and **read timeouts** instead of one blanket
  socket timeout;
* transparent retries with capped exponential **backoff + jitter** on
  ``busy`` and any error the server marks ``retryable``;
* **exactly-once writes**: every non-read statement is stamped with a
  session-scoped ``rid``; on a connection loss or read timeout the
  client reconnects, claims its old session journal back with
  ``resume``, and re-sends the same rid -- the server replays the
  recorded outcome instead of re-executing.  Responses piggyback an
  ``ack`` watermark so the server can drop journal entries the client
  has seen.
* a rid-less write that dies mid-flight is not retried: the error
  propagates, because retrying it blindly could double-apply.

The protocol is written once, in :class:`_ClientCore`: its generators
decide every retry, reconnect and piece of rid/ack bookkeeping without
doing I/O, by yielding ``_establish`` / ``_send`` / ``_read`` /
``_sleep`` steps.  Each client is only that wire layer and a ``_drive``
loop that performs a step and sends its result back (or throws its
exception in).
"""

from __future__ import annotations

import asyncio
import random
import socket
import time
from typing import Any, Generator, Mapping

from .protocol import (
    RemoteResult,
    decode_message,
    decode_result,
    encode_message,
    encode_value,
)
from .retry import RetryPolicy

#: leading SQL keywords that mean "this statement has effects" -- the
#: client-side classification that decides which statements get a rid
_WRITE_TOKENS = frozenset(
    "insert update delete create drop alter begin commit rollback".split()
)


def _first_token(sql: str) -> str:
    stripped = sql.lstrip()
    return stripped.split(None, 1)[0].lower() if stripped else ""


def sql_is_write(sql: str) -> bool:
    """First-token write classification (client side, no parser)."""
    return _first_token(sql) in _WRITE_TOKENS


class ServiceError(Exception):
    """A structured error returned by the server."""

    def __init__(self, code: str, message: str, payload: dict[str, Any] | None = None):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message
        self.payload = payload or {}

    @property
    def retryable(self) -> bool:
        return bool(self.payload.get("retryable"))


def _raise_on_error(response: dict[str, Any]) -> dict[str, Any]:
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise ServiceError(
        error.get("code", "internal"),
        error.get("message", "unknown server error"),
        error,
    )


def _sql_token(message: dict[str, Any]) -> str:
    sql = message.get("sql")
    return _first_token(sql) if message.get("op") == "query" and isinstance(sql, str) else ""


def _message_has_effects(message: dict[str, Any]) -> bool:
    """Conservative: could re-sending this message double-apply?"""
    return message.get("op") in ("execute", "load") or _sql_token(message) in _WRITE_TOKENS


#: the request protocol as wire-layer calls: each step is a method name
#: and its arguments -- ("_establish",), ("_send", message), ("_read",)
#: or ("_sleep", seconds)
Steps = Generator[tuple, Any, Any]


def _advance(steps: Steps, outcome: Any) -> tuple:
    """Hand a step's outcome back: its result, or its exception thrown in.

    Every exception goes back, cancellation and interrupts included: the
    core re-raises what it does not handle, from where the step was.
    """
    if isinstance(outcome, BaseException):
        return steps.throw(outcome)
    return steps.send(outcome)


class _ClientCore:
    """The client half of the exactly-once protocol (DESIGN.md §13), no I/O.

    Holds one session's rid/ack state and decides every retry.  Its
    generators yield :data:`Steps`; a client's ``_drive`` performs each
    step on its wire layer and hands back the outcome (:func:`_advance`).
    ``_writer`` is None while disconnected.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5543,
        *,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
        retry: "RetryPolicy | bool | None" = None,
        seed: int | None = None,
    ):
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.read_timeout = read_timeout
        if retry is True:
            retry = RetryPolicy()
        elif retry is False:
            retry = None
        self.retry_policy: RetryPolicy | None = retry
        self._rng = random.Random(seed)
        self._reader: Any = None
        self._writer: Any = None
        self.greeting: dict[str, Any] = {}
        self.session_id: int = -1
        self.resume_token: str | None = None
        #: next request id to stamp on a write (session-scoped, monotonic)
        self._rid = 0
        #: highest rid whose response this client has received
        self._ack = 0
        #: confirmed inside BEGIN..COMMIT; a connection loss here means
        #: the server rolled the transaction back, so retrying anything
        #: but the COMMIT/ROLLBACK itself would escape the transaction
        self.in_transaction = False
        self.retries = 0
        self.replays = 0
        self.reconnects = 0

    def _teardown(self) -> None:
        raise NotImplementedError

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    def _with_rid(self, message: dict[str, Any]) -> dict[str, Any]:
        if self.retry_policy is not None:
            message["rid"] = self.next_rid()
        return message

    def _query_message(self, sql: str) -> dict[str, Any]:
        message: dict[str, Any] = {"op": "query", "sql": sql}
        return self._with_rid(message) if sql_is_write(sql) else message

    def _load_message(self, table: str, documents: list[Mapping[str, Any]]) -> dict[str, Any]:
        encoded = [encode_value(dict(document)) for document in documents]
        return self._with_rid({"op": "load", "table": table, "documents": encoded})

    def _acked(self, message: dict[str, Any]) -> dict[str, Any]:
        return {**message, "ack": self._ack} if self._ack else message

    def _handshake(self) -> Steps:
        """Connect and read the greeting; on a reconnect, claim the old
        session's journal so rid retries replay instead of re-executing.
        Returns whether that journal resumed."""
        yield ("_establish",)
        self.greeting = _raise_on_error((yield ("_read",)))
        self.session_id = self.greeting.get("session", -1)
        previous_token = self.resume_token
        self.resume_token = self.greeting.get("resume_token")
        if previous_token is None:
            return False
        self.reconnects += 1
        yield ("_send", {"op": "resume", "token": previous_token})
        return bool(_raise_on_error((yield ("_read",))).get("resumed"))

    def _goodbye(self) -> Steps:
        """Close the session if connected (errors ignored), then drop it."""
        try:
            if self._writer is not None:
                yield ("_send", self._acked({"op": "close"}))
                _raise_on_error((yield ("_read",)))
        except (OSError, ServiceError):
            pass
        finally:
            self._teardown()

    def _finish(self, message: dict[str, Any], response: dict[str, Any]) -> dict[str, Any]:
        rid = message.get("rid")
        if isinstance(rid, int):
            # requests are sequential on this connection, so a response
            # for rid N means every earlier rid was responded to as well
            self._ack = max(self._ack, rid)
            if response.get("replayed"):
                self.replays += 1
        token = _sql_token(message)
        if token == "begin":
            self.in_transaction = True
        elif token in ("commit", "rollback"):
            self.in_transaction = False
        return response

    def _exchange(self, message: dict[str, Any]) -> Steps:
        """One request/response round trip, raising on a server error.

        With a :class:`RetryPolicy` attached, retryable failures --
        ``busy``, retryable timeouts, connection loss -- are retried
        under the policy's backoff; everything else raises immediately.
        """
        policy = self.retry_policy
        if policy is None:
            yield ("_send", self._acked(message))
            return self._finish(message, _raise_on_error((yield ("_read",))))
        rid = message.get("rid")
        deadline = time.monotonic() + policy.deadline
        #: a send happened whose outcome we never learned
        in_doubt = False
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff(attempt - 1, self._rng)
                if time.monotonic() + delay > deadline:
                    break
                yield ("_sleep", delay)
            sent = False
            try:
                if self._writer is None:
                    resumed = yield from self._handshake()
                    if in_doubt and rid is not None and not resumed:
                        raise ServiceError(
                            "resume",
                            "session journal expired with a write outcome "
                            "unknown; cannot safely retry",
                            {"rid": rid},
                        )
                yield ("_send", self._acked(message))
                sent = True
                response = yield ("_read",)
            except ServiceError as error:
                if error.retryable:
                    self.retries += 1
                    last_error = error
                    self._teardown()
                    continue
                raise
            except OSError as error:
                # refused connects, resets and read timeouts (each wire
                # layer raises an OSError for them); the connection
                # framing is unknown now, so always reconnect
                was_in_txn = self.in_transaction
                self._teardown()
                if not policy.retry_connect:
                    raise
                if sent and rid is None and _message_has_effects(message):
                    # indeterminate rid-less write: retrying could
                    # double-apply, surface it honestly instead
                    raise
                if was_in_txn and _sql_token(message) not in ("commit", "rollback"):
                    # the transaction context died with the connection;
                    # re-running this statement on a fresh session would
                    # silently escape the transaction (an in-doubt
                    # COMMIT is safe: the journal replays it, and if it
                    # never ran the re-execution fails cleanly with "no
                    # transaction in progress")
                    raise
                in_doubt = in_doubt or sent
                self.retries += 1
                last_error = error
                continue
            if response.get("ok"):
                return self._finish(message, response)
            error_info = response.get("error") or {}
            if error_info.get("retryable"):
                # busy shed, retryable timeout, or a "retry" verdict for
                # a rid whose original attempt failed -- re-send
                self.retries += 1
                last_error = ServiceError(
                    error_info.get("code", "internal"),
                    error_info.get("message", "retryable server error"),
                    error_info,
                )
                continue
            return self._finish(message, _raise_on_error(response))
        if isinstance(last_error, ServiceError):
            raise last_error
        raise ServiceError(
            "unavailable",
            f"request failed after retries: {last_error}",
            {"retryable": False},
        ) from last_error


def _load_report(response: dict[str, Any]) -> dict[str, Any]:
    return {key: value for key, value in response.items() if key not in ("ok", "replayed")}


class ServiceClient(_ClientCore):
    """Blocking client: one TCP connection, one server session."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 5543,
        timeout: float = 60.0,
        *,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
        retry: "RetryPolicy | bool | None" = None,
        seed: int | None = None,
    ):
        super().__init__(
            host, port, retry=retry, seed=seed,
            connect_timeout=timeout if connect_timeout is None else connect_timeout,
            read_timeout=timeout if read_timeout is None else read_timeout,
        )
        self._drive(self._handshake())

    # -- wire layer: _writer is the socket, _reader its file -----------

    def _establish(self) -> None:
        address = (self.host, self.port)
        self._writer = socket.create_connection(address, timeout=self.connect_timeout)
        self._writer.settimeout(self.read_timeout)
        self._reader = self._writer.makefile("rb")

    def _teardown(self) -> None:
        for handle in (self._reader, self._writer):
            if handle is not None:
                try:
                    handle.close()
                except OSError:
                    pass
        self._reader = self._writer = None
        # an open transaction dies with the connection (the server rolls
        # it back when it sees the disconnect)
        self.in_transaction = False

    def _read(self) -> dict[str, Any]:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    def _send(self, message: dict[str, Any]) -> None:
        self._writer.sendall(encode_message(message))

    _sleep = staticmethod(time.sleep)

    def _drive(self, steps: Steps) -> Any:
        outcome: Any = None
        while True:
            try:
                name, *args = _advance(steps, outcome)
            except StopIteration as done:
                return done.value
            try:
                outcome = getattr(self, name)(*args)
            except BaseException as caught:
                outcome = caught

    def kill(self) -> None:
        """Drop the socket without a goodbye (chaos/testing): simulates
        abrupt client death; the next request reconnects and resumes."""
        self._teardown()

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One round trip under the retry policy (see :meth:`_exchange`)."""
        return self._drive(self._exchange(message))

    # -- porcelain -----------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def query(self, sql: str) -> RemoteResult:
        return decode_result(self.request(self._query_message(sql))["result"])

    def execute(self, sql: str) -> RemoteResult:
        return self.query(sql)

    def prepare(self, name: str, sql: str) -> str:
        return self.request({"op": "prepare", "name": name, "sql": sql})["prepared"]

    def execute_prepared(self, name: str) -> RemoteResult:
        # the server journals only if the prepared statement is a write;
        # a rid on a read execution is ignored
        request = self._with_rid({"op": "execute", "name": name})
        return decode_result(self.request(request)["result"])

    def deallocate(self, name: str) -> bool:
        return bool(self.request({"op": "deallocate", "name": name})["deallocated"])

    def load(self, table: str, documents: list[Mapping[str, Any]]) -> dict[str, Any]:
        return _load_report(self.request(self._load_message(table, documents)))

    def create_collection(self, table: str) -> None:
        # collections auto-create on first load; an explicit empty load
        # gives scripts the same call shape as the embedded API
        self.load(table, [])

    def set_option(self, key: str, value: Any) -> dict[str, Any]:
        message = {"op": "set", "key": key, "value": encode_value(value)}
        return self.request(message)["settings"]

    def session(self) -> dict[str, Any]:
        return self.request({"op": "session"})["session"]

    def status(self) -> dict[str, Any]:
        return self.request({"op": "status"})["status"]

    def health(self) -> dict[str, Any]:
        return self.request({"op": "health"})["health"]

    def recover(self) -> dict[str, Any]:
        """Operator path: bring a degraded engine back (``recover`` op)."""
        return self.request({"op": "recover"})["recover"]

    def begin(self) -> None:
        self.query("BEGIN")

    def commit(self) -> None:
        self.query("COMMIT")

    def rollback(self) -> None:
        self.query("ROLLBACK")

    def close(self) -> None:
        self._drive(self._goodbye())

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncServiceClient(_ClientCore):
    """asyncio client: what the concurrency matrix and the service benchmark open."""

    async def connect(self) -> "AsyncServiceClient":
        await self._drive(self._handshake())
        return self

    # -- wire layer: asyncio streams ----------------------------------

    async def _establish(self) -> None:
        opening = asyncio.open_connection(self.host, self.port)
        try:
            self._reader, self._writer = await asyncio.wait_for(opening, self.connect_timeout)
        except asyncio.TimeoutError as error:
            # not an OSError before 3.11: make it one the core retries
            raise ConnectionError("connect timed out") from error

    def _teardown(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._reader = self._writer = None
        self.in_transaction = False

    async def _read(self) -> dict[str, Any]:
        try:
            line = await asyncio.wait_for(self._reader.readline(), self.read_timeout)
        except asyncio.TimeoutError as error:
            raise ConnectionError("read timed out") from error
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    async def _send(self, message: dict[str, Any]) -> None:
        self._writer.write(encode_message(message))
        await self._writer.drain()

    _sleep = staticmethod(asyncio.sleep)

    async def _drive(self, steps: Steps) -> Any:
        outcome: Any = None
        while True:
            try:
                name, *args = _advance(steps, outcome)
            except StopIteration as done:
                return done.value
            try:
                outcome = await getattr(self, name)(*args)
            except BaseException as caught:
                outcome = caught

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        return await self._drive(self._exchange(message))

    async def query(self, sql: str) -> RemoteResult:
        response = await self.request(self._query_message(sql))
        return decode_result(response["result"])

    async def load(self, table: str, documents: list[Mapping[str, Any]]) -> dict[str, Any]:
        return _load_report(await self.request(self._load_message(table, documents)))

    async def status(self) -> dict[str, Any]:
        return (await self.request({"op": "status"}))["status"]

    async def health(self) -> dict[str, Any]:
        return (await self.request({"op": "health"}))["health"]

    async def close(self) -> None:
        writer = self._writer
        await self._drive(self._goodbye())
        if writer is not None:
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()
