"""Per-connection session state over one shared :class:`SinewDB`.

A :class:`Session` is everything one remote client is allowed to own:
its transaction scope (a :class:`~repro.rdbms.database.DbSession`, so
``BEGIN`` in one connection never collides with another's), its named
prepared statements, its settings, and its counters.  Sessions never
share cursors or transaction state; the only shared objects are the
engine itself and the service-wide prepared-plan cache, both of which
are safe under concurrent readers.

Statement execution runs on the service's worker threads.  Reads run
concurrently; anything that mutates the heap or the catalog serializes
on the service's write latch (one writer at a time, readers unblocked)
so two sessions' DML can never interleave row-level operations.  That
includes transaction control: ROLLBACK (and a disconnect-time abort)
applies per-row undo against shared heap tables, COMMIT flushes the
WAL, and BEGIN must be mutually exclusive with the checkpointer's
check-then-snapshot window -- all three hold the write latch.
"""

from __future__ import annotations

import secrets
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..core.sinew import SinewDB
from ..latching import TrackedLock
from ..rdbms.database import DbSession, QueryResult
from ..rdbms.errors import DatabaseError
from ..rdbms.sql.ast import (
    AlterTableStatement,
    BeginStatement,
    CommitStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    InsertStatement,
    RollbackStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from ..rdbms.sql.parser import parse
from .retry import RetryJournal

#: statement classes that mutate heap or catalog state and therefore
#: serialize on the service write latch
_WRITE_STATEMENTS = (
    InsertStatement,
    UpdateStatement,
    DeleteStatement,
    CreateTableStatement,
    DropTableStatement,
    AlterTableStatement,
)

#: transaction control serializes on the write latch too: ROLLBACK
#: applies per-row undo callbacks that mutate shared heap tables, COMMIT
#: makes the session's writes visible (WAL flush), and BEGIN must not
#: slip into the checkpointer's check-then-snapshot window (the active-
#: transaction barrier in server._checkpoint_once is only airtight if
#: transaction begin excludes it)
_TXN_STATEMENTS = (
    BeginStatement,
    CommitStatement,
    RollbackStatement,
)

#: session settings a client may change via the ``set`` op, with their
#: expected value type (None in a setting means "use the server default")
_SETTING_TYPES: dict[str, type] = {
    "use_extraction_cache": bool,
    "use_plan_cache": bool,
    "explain_analyze": bool,
}


def is_write_statement(statement: Statement) -> bool:
    """True when the statement must hold the service write latch."""
    return isinstance(statement, _WRITE_STATEMENTS + _TXN_STATEMENTS)


def statement_kind(statement: Statement) -> str:
    """Classify a statement for the retry journal.

    ``commit``/``rollback`` drive the journal's transaction-boundary
    bookkeeping; ``begin``/``write`` are journaled plainly; ``read`` is
    never journaled (re-execution is idempotent).
    """
    if isinstance(statement, CommitStatement):
        return "commit"
    if isinstance(statement, RollbackStatement):
        return "rollback"
    if isinstance(statement, BeginStatement):
        return "begin"
    if isinstance(statement, _WRITE_STATEMENTS):
        return "write"
    return "read"


@dataclass
class PreparedStatement:
    """One named, session-scoped statement (``prepare``/``execute`` ops).

    The parse happens once, at prepare time (errors surface immediately),
    and every execution runs that parsed statement; the analyze/rewrite
    phase is memoized by the shared plan cache, so repeated executions
    skip the whole front half of the pipeline.
    """

    name: str
    sql: str
    statement: Statement
    executions: int = 0

    @property
    def kind(self) -> str:
        return "select" if isinstance(self.statement, SelectStatement) else "statement"


class Session:
    """One client connection's private state and execution entry points."""

    def __init__(
        self,
        session_id: int,
        sdb: SinewDB,
        write_lock: TrackedLock,
        journal_capacity: int = 256,
    ):
        self.id = session_id
        self.sdb = sdb
        self._write_lock = write_lock
        self.db_session: DbSession = sdb.create_session(f"session-{session_id}")
        #: rid -> outcome dedup journal (exactly-once write retries); on
        #: disconnect the server parks it under ``resume_token`` so a
        #: reconnecting client can claim it back and retry in-doubt writes
        self.journal = RetryJournal(journal_capacity)
        self.resume_token = secrets.token_hex(8)
        self.prepared: dict[str, PreparedStatement] = {}
        self.settings: dict[str, Any] = {
            "use_extraction_cache": None,
            "use_plan_cache": True,
            "explain_analyze": False,
        }
        self.statements = 0
        self.errors = 0
        self.created_at = time.monotonic()
        self.closed = False

    # ------------------------------------------------------------------
    # execution (runs on a service worker thread)
    # ------------------------------------------------------------------

    def execute_sql(self, sql: str) -> QueryResult:
        """Run one SQL statement under this session's scope."""
        return self.run(sql, parse(sql))

    def run(self, sql: str, statement: Statement) -> QueryResult:
        """Run ``statement``, parsed from ``sql``, under this session's scope."""
        self.statements += 1
        if isinstance(statement, SelectStatement):
            return self.sdb.execute_statement(
                statement,
                sql if self.settings["use_plan_cache"] else None,
                explain_analyze=bool(self.settings["explain_analyze"]),
                use_extraction_cache=self.settings["use_extraction_cache"],
                session=self.db_session,
            )
        if is_write_statement(statement):
            with self._write_lock:
                result = self.sdb.execute_statement(statement, session=self.db_session)
                if self.closed and self.db_session.in_transaction:
                    # this statement outlived its connection: close()
                    # already ran (it serialized on the write latch ahead
                    # of us), so a BEGIN landing now would leak an open
                    # transaction nobody can ever finish -- abort it here,
                    # still under the latch
                    self.sdb.db.abort_session(self.db_session)
                return result
        # ANALYZE / EXPLAIN etc.: read-only over shared state
        return self.sdb.execute_statement(statement, session=self.db_session)

    def load_documents(self, table: str, documents: list[Mapping[str, Any]]) -> dict:
        """Bulk-load documents (the service's ingestion path)."""
        with self._write_lock:
            if table not in self.sdb.collections():
                self.sdb.create_collection(table)
            report = self.sdb.load(table, documents)
        return {
            "loaded": report.n_documents,
            "new_attributes": report.new_attributes,
        }

    # ------------------------------------------------------------------
    # prepared statements
    # ------------------------------------------------------------------

    def prepare(self, name: str, sql: str) -> PreparedStatement:
        if not name:
            raise DatabaseError("prepared statement name must be non-empty")
        prepared = PreparedStatement(name=name, sql=sql, statement=parse(sql))
        self.prepared[name] = prepared
        return prepared

    def execute_prepared(self, name: str) -> QueryResult:
        prepared = self.prepared.get(name)
        if prepared is None:
            raise DatabaseError(
                f"session {self.id} has no prepared statement {name!r}"
            )
        prepared.executions += 1
        return self.run(prepared.sql, prepared.statement)

    def deallocate(self, name: str) -> bool:
        return self.prepared.pop(name, None) is not None

    # ------------------------------------------------------------------
    # settings / lifecycle
    # ------------------------------------------------------------------

    def set_option(self, key: str, value: Any) -> None:
        expected = _SETTING_TYPES.get(key)
        if expected is None:
            raise DatabaseError(
                f"unknown session setting {key!r}; "
                f"settable: {', '.join(sorted(_SETTING_TYPES))}"
            )
        if value is not None and not isinstance(value, expected):
            raise DatabaseError(
                f"setting {key!r} expects {expected.__name__}, "
                f"got {type(value).__name__}"
            )
        self.settings[key] = value

    def close(self) -> dict[str, Any]:
        """Release everything this session owns; always safe to re-call.

        The critical guarantee: a dead client's open transaction is
        rolled back, so its uncommitted writes (and undo chain) never
        linger in the shared engine.
        """
        rolled_back = False
        if not self.closed:
            self.closed = True
            # under the write latch: the abort applies per-row undo
            # against shared heap tables and must not interleave with
            # another session's DML (or with this session's own timed-out
            # statement still finishing on a worker thread)
            with self._write_lock:
                rolled_back = self.sdb.db.abort_session(self.db_session)
            if rolled_back:
                # journaled successes inside the aborted txn are void now
                self.journal.rollback_open()
            self.prepared.clear()
        return {"rolled_back": rolled_back, "statements": self.statements}

    def describe(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "statements": self.statements,
            "errors": self.errors,
            "in_transaction": self.db_session.in_transaction,
            "prepared": sorted(self.prepared),
            "settings": dict(self.settings),
            "age_seconds": time.monotonic() - self.created_at,
            "journal": self.journal.stats(),
        }
