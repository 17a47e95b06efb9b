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
* a rid-less write that dies mid-flight keeps the honest PR 7
  behaviour: the error propagates, because retrying it blindly could
  double-apply.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Mapping

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
    {
        "insert",
        "update",
        "delete",
        "create",
        "drop",
        "alter",
        "begin",
        "commit",
        "rollback",
    }
)


def sql_is_write(sql: str) -> bool:
    """First-token write classification (client side, no parser)."""
    stripped = sql.lstrip()
    if not stripped:
        return False
    return stripped.split(None, 1)[0].lower() in _WRITE_TOKENS


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


def _message_has_effects(message: dict[str, Any]) -> bool:
    """Conservative: could re-sending this message double-apply?"""
    op = message.get("op")
    if op == "query":
        sql = message.get("sql")
        return isinstance(sql, str) and sql_is_write(sql)
    return op in ("execute", "load")


def _sql_token(message: dict[str, Any]) -> str:
    if message.get("op") != "query":
        return ""
    sql = message.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        return ""
    return sql.lstrip().split(None, 1)[0].lower()


class ServiceClient:
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
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout if connect_timeout is not None else timeout
        self.read_timeout = read_timeout if read_timeout is not None else timeout
        if retry is True:
            retry = RetryPolicy()
        elif retry is False:
            retry = None
        self.retry_policy: RetryPolicy | None = retry
        self._rng = random.Random(seed)
        self._sock: socket.socket | None = None
        self._file: Any = None
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
        self._establish()

    # -- wire plumbing -------------------------------------------------

    def _establish(self) -> bool:
        """(Re)connect; returns whether the old session journal resumed."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        self._sock.settimeout(self.read_timeout)
        self._file = self._sock.makefile("rb")
        self.greeting = _raise_on_error(self._read())
        self.session_id = self.greeting.get("session", -1)
        previous_token = self.resume_token
        self.resume_token = self.greeting.get("resume_token")
        if previous_token is None:
            return False
        # reconnect: claim the disconnected session's journal so rid
        # retries replay instead of re-executing
        self.reconnects += 1
        self._sock.sendall(
            encode_message({"op": "resume", "token": previous_token})
        )
        response = _raise_on_error(self._read())
        return bool(response.get("resumed"))

    def _teardown(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._file = None
        self._sock = None
        # an open transaction dies with the connection (the server rolls
        # it back when it sees the disconnect)
        self.in_transaction = False

    def _read(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    def _send(self, message: dict[str, Any]) -> None:
        if self._ack:
            message = {**message, "ack": self._ack}
        self._sock.sendall(encode_message(message))

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    def kill(self) -> None:
        """Drop the socket without a goodbye (chaos/testing): simulates
        abrupt client death; the next request reconnects and resumes."""
        self._teardown()

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        """One request/response round trip (raises on server error).

        With a :class:`RetryPolicy` attached, retryable failures --
        ``busy``, retryable timeouts, connection loss -- are retried
        under the policy's backoff; everything else raises immediately.
        """
        if self.retry_policy is None:
            self._send(dict(message))
            return self._finish(message, _raise_on_error(self._read()))
        return self._request_retrying(dict(message))

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

    def _request_retrying(self, message: dict[str, Any]) -> dict[str, Any]:
        policy = self.retry_policy
        assert policy is not None
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
                time.sleep(delay)
            sent = False
            try:
                if self._sock is None:
                    resumed = self._establish()
                    if in_doubt and rid is not None and not resumed:
                        raise ServiceError(
                            "resume",
                            "session journal expired with a write outcome "
                            "unknown; cannot safely retry",
                            {"rid": rid},
                        )
                self._send(dict(message))
                sent = True
                response = self._read()
            except ServiceError as error:
                if error.retryable:
                    self.retries += 1
                    last_error = error
                    self._teardown()
                    continue
                raise
            except (ConnectionError, OSError) as error:
                # covers refused connects, resets, and read timeouts
                # (socket.timeout is an OSError); the connection framing
                # is unknown now, so always reconnect
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

    # -- porcelain -----------------------------------------------------

    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("pong"))

    def query(self, sql: str) -> RemoteResult:
        request: dict[str, Any] = {"op": "query", "sql": sql}
        if self.retry_policy is not None and sql_is_write(sql):
            request["rid"] = self.next_rid()
        return decode_result(self.request(request)["result"])

    def execute(self, sql: str) -> RemoteResult:
        return self.query(sql)

    def prepare(self, name: str, sql: str) -> str:
        return self.request({"op": "prepare", "name": name, "sql": sql})["prepared"]

    def execute_prepared(self, name: str) -> RemoteResult:
        request: dict[str, Any] = {"op": "execute", "name": name}
        if self.retry_policy is not None:
            # the server journals only if the prepared statement is a
            # write; a rid on a read execution is ignored
            request["rid"] = self.next_rid()
        return decode_result(self.request(request)["result"])

    def deallocate(self, name: str) -> bool:
        return bool(self.request({"op": "deallocate", "name": name})["deallocated"])

    def load(self, table: str, documents: list[Mapping[str, Any]]) -> dict[str, Any]:
        request: dict[str, Any] = {
            "op": "load",
            "table": table,
            "documents": [encode_value(dict(document)) for document in documents],
        }
        if self.retry_policy is not None:
            request["rid"] = self.next_rid()
        response = self.request(request)
        return {
            key: value
            for key, value in response.items()
            if key not in ("ok", "replayed")
        }

    def create_collection(self, table: str) -> None:
        # collections auto-create on first load; an explicit empty load
        # gives scripts the same call shape as the embedded API
        self.load(table, [])

    def set_option(self, key: str, value: Any) -> dict[str, Any]:
        return self.request({"op": "set", "key": key, "value": encode_value(value)})[
            "settings"
        ]

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
        try:
            if self._sock is not None:
                self._send({"op": "close"})
                _raise_on_error(self._read())
        except (ConnectionError, OSError, ServiceError):
            pass
        finally:
            self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncServiceClient:
    """asyncio client: what the concurrency matrix and the service benchmark open."""

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
        self._rid = 0
        self._ack = 0
        self.in_transaction = False
        self.retries = 0
        self.replays = 0
        self.reconnects = 0

    async def connect(self) -> "AsyncServiceClient":
        await self._establish()
        return self

    async def _establish(self) -> bool:
        import asyncio

        opening = asyncio.open_connection(self.host, self.port)
        if self.connect_timeout is not None:
            self._reader, self._writer = await asyncio.wait_for(
                opening, self.connect_timeout
            )
        else:
            self._reader, self._writer = await opening
        self.greeting = _raise_on_error(await self._read())
        self.session_id = self.greeting.get("session", -1)
        previous_token = self.resume_token
        self.resume_token = self.greeting.get("resume_token")
        if previous_token is None:
            return False
        self.reconnects += 1
        self._writer.write(encode_message({"op": "resume", "token": previous_token}))
        await self._writer.drain()
        response = _raise_on_error(await self._read())
        return bool(response.get("resumed"))

    def _teardown(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
        self._reader = None
        self._writer = None
        self.in_transaction = False

    async def _read(self) -> dict[str, Any]:
        import asyncio

        reading = self._reader.readline()
        if self.read_timeout is not None:
            try:
                line = await asyncio.wait_for(reading, self.read_timeout)
            except asyncio.TimeoutError as error:
                raise ConnectionError("read timed out") from error
        else:
            line = await reading
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_message(line)

    async def _send(self, message: dict[str, Any]) -> None:
        if self._ack:
            message = {**message, "ack": self._ack}
        self._writer.write(encode_message(message))
        await self._writer.drain()

    def next_rid(self) -> int:
        self._rid += 1
        return self._rid

    def _finish(self, message: dict[str, Any], response: dict[str, Any]) -> dict[str, Any]:
        rid = message.get("rid")
        if isinstance(rid, int):
            self._ack = max(self._ack, rid)
            if response.get("replayed"):
                self.replays += 1
        token = _sql_token(message)
        if token == "begin":
            self.in_transaction = True
        elif token in ("commit", "rollback"):
            self.in_transaction = False
        return response

    async def request(self, message: dict[str, Any]) -> dict[str, Any]:
        if self.retry_policy is None:
            await self._send(dict(message))
            return self._finish(message, _raise_on_error(await self._read()))
        return await self._request_retrying(dict(message))

    async def _request_retrying(self, message: dict[str, Any]) -> dict[str, Any]:
        import asyncio

        policy = self.retry_policy
        assert policy is not None
        rid = message.get("rid")
        deadline = time.monotonic() + policy.deadline
        in_doubt = False
        last_error: Exception | None = None
        for attempt in range(policy.max_attempts):
            if attempt:
                delay = policy.backoff(attempt - 1, self._rng)
                if time.monotonic() + delay > deadline:
                    break
                await asyncio.sleep(delay)
            sent = False
            try:
                if self._writer is None:
                    resumed = await self._establish()
                    if in_doubt and rid is not None and not resumed:
                        raise ServiceError(
                            "resume",
                            "session journal expired with a write outcome "
                            "unknown; cannot safely retry",
                            {"rid": rid},
                        )
                await self._send(dict(message))
                sent = True
                response = await self._read()
            except ServiceError as error:
                if error.retryable:
                    self.retries += 1
                    last_error = error
                    self._teardown()
                    continue
                raise
            except (ConnectionError, OSError, asyncio.TimeoutError) as error:
                was_in_txn = self.in_transaction
                self._teardown()
                if not policy.retry_connect:
                    raise
                if sent and rid is None and _message_has_effects(message):
                    raise
                if was_in_txn and _sql_token(message) not in ("commit", "rollback"):
                    # transaction context died with the connection; see
                    # the sync client for the rationale
                    raise
                in_doubt = in_doubt or sent
                self.retries += 1
                last_error = error
                continue
            if response.get("ok"):
                return self._finish(message, response)
            error_info = response.get("error") or {}
            if error_info.get("retryable"):
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

    async def query(self, sql: str) -> RemoteResult:
        request: dict[str, Any] = {"op": "query", "sql": sql}
        if self.retry_policy is not None and sql_is_write(sql):
            request["rid"] = self.next_rid()
        response = await self.request(request)
        return decode_result(response["result"])

    async def load(self, table: str, documents: list[Mapping[str, Any]]) -> dict[str, Any]:
        request: dict[str, Any] = {
            "op": "load",
            "table": table,
            "documents": [encode_value(dict(document)) for document in documents],
        }
        if self.retry_policy is not None:
            request["rid"] = self.next_rid()
        response = await self.request(request)
        return {
            key: value
            for key, value in response.items()
            if key not in ("ok", "replayed")
        }

    async def status(self) -> dict[str, Any]:
        return (await self.request({"op": "status"}))["status"]

    async def health(self) -> dict[str, Any]:
        return (await self.request({"op": "health"}))["health"]

    async def close(self) -> None:
        try:
            if self._writer is not None:
                await self._send({"op": "close"})
                _raise_on_error(await self._read())
        except (ConnectionError, OSError, ServiceError):
            pass
        finally:
            if self._writer is not None:
                self._writer.close()
                try:
                    await self._writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            self._reader = None
            self._writer = None

    async def __aenter__(self) -> "AsyncServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()
