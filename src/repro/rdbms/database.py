"""The engine facade: an embedded relational database.

``Database`` ties the storage, transaction, planning and execution layers
together behind a DB-API-flavoured interface::

    db = Database("bench")
    db.execute("CREATE TABLE webrequests (url text, hits integer)")
    db.execute("INSERT INTO webrequests VALUES ('www.sample-site.com', 22)")
    result = db.execute("SELECT url FROM webrequests WHERE hits > 20")
    rows = result.rows

Sinew treats this object exactly the way the paper treats PostgreSQL: it
never modifies engine code, only creates tables, registers UDFs
(``create_function``), issues rewritten SQL, and reads EXPLAIN output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from .cost import CostCounters, DiskBudget, IoCostModel
from .errors import (
    CatalogError,
    DegradedError,
    ExecutionError,
    PlanningError,
    RecoveryError,
    TransactionError,
)
from .expressions import Expr, SchemaResolver, compile_expr
from .functions import FunctionRegistry
from .plan_nodes import ExecutionContext, PlanNode
from .planner import Planner
from .sql.ast import (
    AlterTableStatement,
    AnalyzeStatement,
    BeginStatement,
    ColumnDef,
    CommitStatement,
    CreateTableStatement,
    DeleteStatement,
    DropTableStatement,
    ExplainStatement,
    InsertStatement,
    RollbackStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .sql.parser import parse
from .statistics import TableStats, analyze_table
from .storage import BufferPool, Column, HeapTable, Schema
from .transactions import (
    DEFAULT_SEGMENT_BYTES,
    Checkpointer,
    CheckpointInfo,
    Transaction,
    TransactionManager,
    WalRecord,
    WalRecordType,
    WriteAheadLog,
    scan_wal,
)
from .types import NullStorageModel, SqlType

#: Transaction id used for WAL records outside any user transaction (DDL
#: and standalone catalog deltas).  The engine has no DDL rollback -- an
#: ALTER inside an aborted session transaction stays applied -- so replay
#: treats this id as always committed, which reproduces that semantics.
DDL_TXN_ID = 0

#: Default work_mem, deliberately small so hash/sort strategy crossovers
#: happen at benchmark scale (PostgreSQL's default is 4 MB at paper scale).
DEFAULT_WORK_MEM_BYTES = 256 * 1024

#: Default buffer pool: 4096 pages (32 MiB) -- "everything in memory" for
#: small-scale runs; benches shrink it to create the I/O-bound regime.
DEFAULT_BUFFER_POOL_PAGES = 4096


@dataclass
class DatabaseConfig:
    """Tunables for one database instance."""

    work_mem_bytes: int = DEFAULT_WORK_MEM_BYTES
    buffer_pool_pages: int = DEFAULT_BUFFER_POOL_PAGES
    null_model: NullStorageModel = NullStorageModel.BITMAP
    disk_budget_bytes: int | None = None
    io_model: IoCostModel = field(default_factory=IoCostModel)
    #: durable-WAL tunables (only used when the database has a ``path``)
    wal_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    #: fsync once per this many commits (group commit); 1 = every commit
    wal_group_commit: int = 1

    # Read-only; their one reader is the run environment that
    # ``benchmarks/suite/run.py`` records (ROADMAP item 2f removes it).
    # Every query runs on the calling thread.
    @property
    def parallel_workers(self) -> int:
        return 1

    @property
    def executor_lane(self) -> str:
        return "serial"


class DbSession:
    """Per-connection transaction scope.

    Everything that can open or join a transaction is keyed on one of
    these.  The embedded single-caller API keeps working through the
    database's own default session; the service layer allocates one
    session per remote connection, so ``BEGIN`` in one connection never
    sees -- or blocks -- another connection's transaction.
    """

    __slots__ = ("name", "txn")

    def __init__(self, name: str = "default"):
        self.name = name
        #: the open session transaction, or None (autocommit per statement)
        self.txn: Transaction | None = None

    @property
    def in_transaction(self) -> bool:
        return self.txn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging surface
        state = f"txn={self.txn.txn_id}" if self.txn else "autocommit"
        return f"DbSession({self.name!r}, {state})"


class QueryResult:
    """Rows plus metadata from one statement execution."""

    def __init__(
        self,
        columns: list[str] | None = None,
        rows: list[tuple] | None = None,
        rowcount: int = 0,
        plan_text: str | None = None,
        diagnostics: tuple = (),
        exec_stats: dict[str, Any] | None = None,
    ):
        self.columns = columns or []
        self.rows = rows or []
        self.rowcount = rowcount if rowcount else len(self.rows)
        self.plan_text = plan_text
        #: analysis warnings attached by the binder (Sinew layer)
        self.diagnostics = tuple(diagnostics)
        #: per-query execution counters (extraction decodes/cache hits,
        #: udf calls, wall time); empty for non-SELECT statements
        self.exec_stats = exec_stats or {}

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """First column of the first row (for aggregates)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, name_or_index: str | int) -> list[Any]:
        """All values of one output column."""
        if isinstance(name_or_index, str):
            index = self.columns.index(name_or_index)
        else:
            index = name_or_index
        return [row[index] for row in self.rows]


class Database:
    """An embedded relational database instance."""

    def __init__(
        self,
        name: str = "db",
        config: DatabaseConfig | None = None,
        *,
        path: str | Path | None = None,
        defer_recovery: bool = False,
    ):
        self.name = name
        self.config = config or DatabaseConfig()
        self.counters = CostCounters()
        self.disk = DiskBudget(self.config.disk_budget_bytes)
        self.buffer_pool = BufferPool(self.config.buffer_pool_pages, self.counters)
        self.functions = FunctionRegistry(self.counters)
        #: durability root (``<path>/wal/*.wal`` + ``<path>/checkpoint.bin``);
        #: None keeps the engine fully in-memory (the historical behaviour)
        self.path = Path(path) if path is not None else None
        self.checkpointer: Checkpointer | None = None
        wal: WriteAheadLog | None = None
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            wal = WriteAheadLog(
                self.counters,
                self.path / "wal",
                segment_bytes=self.config.wal_segment_bytes,
                group_commit_every=self.config.wal_group_commit,
            )
            self.checkpointer = Checkpointer(self.path, self.counters)
        self.txn_manager = TransactionManager(self.counters, wal)
        self.tables: dict[str, HeapTable] = {}
        self.table_stats: dict[str, TableStats] = {}
        self._default_session = DbSession()
        #: optional FaultInjector threaded into every heap table
        self._faults = None
        #: True while recovery replays WAL records (suppresses re-logging)
        self._replaying = False
        #: stats dict from the last :meth:`recover` (None = fresh start)
        self.last_recovery: dict[str, Any] | None = None
        if self.path is not None and not defer_recovery:
            self.recover()

    # ------------------------------------------------------------------
    # DDL / catalog
    # ------------------------------------------------------------------

    @property
    def wal(self) -> WriteAheadLog:
        return self.txn_manager.wal

    def _log_ddl(
        self,
        record_type: WalRecordType,
        table: str | None = None,
        payload: Any = None,
    ) -> None:
        """Log a DDL redo record (durable mode only; no-op during replay).

        DDL is logged under :data:`DDL_TXN_ID` rather than the session
        transaction because the engine has no DDL undo -- schema changes
        survive a rollback, so replay must apply them unconditionally.
        """
        if self._replaying or not self.wal.durable:
            return
        self.wal.append(DDL_TXN_ID, record_type, table=table, payload=payload)

    def log_catalog(self, payload: Any, txn: Transaction | None = None) -> None:
        """Log an upper-layer catalog delta (Sinew's catalog publishes its
        state changes through this so recovery replays them in log order).

        With ``txn`` the record belongs to that transaction (discarded on
        crash-before-commit, exactly like the data it describes); without
        one it is logged as always-committed, for state flips that happen
        outside any data transaction (analyzer decisions, collection DDL).
        """
        if self._replaying or not self.wal.durable:
            return
        if txn is not None:
            txn.log_catalog(payload)
        else:
            self.wal.append(DDL_TXN_ID, WalRecordType.CATALOG, payload=payload)

    def create_table(self, name: str, columns: Sequence[tuple[str, SqlType]]) -> HeapTable:
        """Create a heap table (programmatic form of CREATE TABLE)."""
        if name in self.tables:
            raise CatalogError(f"table already exists: {name!r}")
        schema = Schema([Column(c_name, c_type) for c_name, c_type in columns])
        table = HeapTable(
            name,
            schema,
            self.counters,
            self.buffer_pool,
            self.disk,
            null_model=self.config.null_model,
        )
        table.faults = self._faults
        self.tables[name] = table
        self._log_ddl(
            WalRecordType.CREATE_TABLE,
            name,
            payload=[(c_name, c_type.value) for c_name, c_type in columns],
        )
        return table

    def attach_faults(self, injector) -> None:
        """Thread a fault injector (see :mod:`repro.testing.faults`) into
        every existing and future heap table, the WAL, and the
        checkpointer; ``None`` detaches."""
        self._faults = injector
        for table in self.tables.values():
            table.faults = injector
        self.wal.faults = injector
        if self.checkpointer is not None:
            self.checkpointer.faults = injector

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if name not in self.tables:
            if if_exists:
                return
            raise CatalogError(f"no such table: {name!r}")
        self.tables[name].truncate()
        del self.tables[name]
        self.table_stats.pop(name, None)
        self._log_ddl(WalRecordType.DROP_TABLE, name)

    def alter_add_column(self, table_name: str, column_name: str, sql_type: SqlType) -> None:
        """ADD COLUMN with WAL logging (used by ALTER and the materializer)."""
        self.table(table_name).add_column(Column(column_name, sql_type))
        self._log_ddl(
            WalRecordType.ADD_COLUMN, table_name, payload=(column_name, sql_type.value)
        )

    def alter_drop_column(self, table_name: str, column_name: str) -> None:
        """DROP COLUMN with WAL logging (used by ALTER and the materializer)."""
        self.table(table_name).drop_column(column_name)
        self._log_ddl(WalRecordType.DROP_COLUMN, table_name, payload=column_name)

    def truncate_table(self, table_name: str) -> None:
        """TRUNCATE with WAL logging (used by catalog reflection)."""
        self.table(table_name).truncate()
        self._log_ddl(WalRecordType.TRUNCATE, table_name)

    def table(self, name: str) -> HeapTable:
        if name not in self.tables:
            raise CatalogError(f"no such table: {name!r}")
        return self.tables[name]

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def create_function(
        self,
        name: str,
        fn: Callable[..., Any],
        return_type: SqlType,
        counts_as_udf: bool = True,
        volatile: bool = False,
    ) -> None:
        """Register a UDF, like PostgreSQL's CREATE FUNCTION.

        ``volatile`` (PostgreSQL's VOLATILE) keeps indexes off the function.
        """
        self.functions.register_scalar(
            name, fn, return_type, counts_as_udf, volatile=volatile
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def analyze(self, table_name: str | None = None) -> None:
        """Refresh optimizer statistics for one table or all tables."""
        names = [table_name] if table_name is not None else list(self.tables)
        for name in names:
            self.table_stats[name] = analyze_table(self.table(name))

    def stats(self, table_name: str) -> TableStats | None:
        return self.table_stats.get(table_name)

    # ------------------------------------------------------------------
    # statement execution
    # ------------------------------------------------------------------

    def execute(self, sql: str, *, session: DbSession | None = None) -> QueryResult:
        """Parse and execute one SQL statement."""
        return self.execute_statement(parse(sql), session=session)

    def execute_statement(
        self,
        statement: Statement,
        *,
        analyze: bool = False,
        extraction_hint: int | None = None,
        use_extraction_cache: bool = True,
        session: DbSession | None = None,
    ) -> QueryResult:
        if isinstance(statement, SelectStatement):
            return self._execute_select(
                statement,
                analyze=analyze,
                extraction_hint=extraction_hint,
                use_extraction_cache=use_extraction_cache,
            )
        if isinstance(statement, ExplainStatement):
            plan = self._plan(statement.inner)
            return QueryResult(plan_text=plan.explain())
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, session=session)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement, session=session)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, session=session)
        if isinstance(statement, CreateTableStatement):
            return self._execute_create_table(statement)
        if isinstance(statement, DropTableStatement):
            self.drop_table(statement.table, statement.if_exists)
            return QueryResult()
        if isinstance(statement, AlterTableStatement):
            return self._execute_alter(statement)
        if isinstance(statement, AnalyzeStatement):
            self.analyze(statement.table)
            return QueryResult()
        if isinstance(statement, BeginStatement):
            self._begin(session)
            return QueryResult()
        if isinstance(statement, CommitStatement):
            self._commit(session)
            return QueryResult()
        if isinstance(statement, RollbackStatement):
            self._rollback(session)
            return QueryResult()
        raise PlanningError(f"unsupported statement type: {type(statement).__name__}")

    def explain(self, sql: str) -> str:
        """EXPLAIN helper returning the plan text for a SELECT."""
        statement = parse(sql)
        if isinstance(statement, ExplainStatement):
            statement = statement.inner
        if not isinstance(statement, SelectStatement):
            raise PlanningError("EXPLAIN supports only SELECT statements")
        return self._plan(statement).explain()

    # -- SELECT ----------------------------------------------------------

    def _planner(self) -> Planner:
        return Planner(
            self.tables,
            self.table_stats,
            self.functions,
            self.config.work_mem_bytes,
        )

    def _plan(self, statement: SelectStatement) -> PlanNode:
        return self._planner().plan_select(statement)

    def _execute_select(
        self,
        statement: SelectStatement,
        *,
        analyze: bool = False,
        extraction_hint: int | None = None,
        use_extraction_cache: bool = True,
    ) -> QueryResult:
        plan = self._plan(statement)
        context = self.execution_context(
            analyze=analyze,
            extraction_hint=extraction_hint,
            use_extraction_cache=use_extraction_cache,
        )
        udf_calls_before = self.counters.udf_calls
        started = time.perf_counter()
        self.functions.begin_query(context)
        try:
            rows = list(plan.run(context))
        finally:
            self.functions.end_query(context)
        elapsed = time.perf_counter() - started
        context.extract_stats.udf_calls = self.counters.udf_calls - udf_calls_before
        columns = [name for _qualifier, name in plan.output_columns]
        exec_stats: dict[str, Any] = dict(context.extract_stats.as_dict())
        exec_stats["execution_seconds"] = elapsed
        exec_stats["rows"] = len(rows)
        if analyze:
            plan_text = self._render_analyze(plan, context, elapsed, len(rows))
        else:
            plan_text = plan.explain()
        return QueryResult(
            columns=columns, rows=rows, plan_text=plan_text, exec_stats=exec_stats
        )

    @staticmethod
    def _render_analyze(
        plan: PlanNode, context: ExecutionContext, elapsed: float, n_rows: int
    ) -> str:
        lines = plan.explain_analyze_lines(context)
        lines.append(context.extract_stats.summary())
        if context.extraction_hint:
            lines.append(
                f"Extraction keys per row: {context.extraction_hint} (multi-key)"
            )
        lines.append(f"Execution time: {elapsed * 1000:.3f} ms ({n_rows} rows)")
        return "\n".join(lines)

    def execution_context(self, **options: Any) -> ExecutionContext:
        return ExecutionContext(
            self.counters,
            self.functions,
            self.disk,
            self.config.work_mem_bytes,
            **options,
        )

    # -- DML --------------------------------------------------------------

    def _execute_insert(
        self, statement: InsertStatement, session: DbSession | None = None
    ) -> QueryResult:
        table = self.table(statement.table)
        resolver = SchemaResolver([], self.functions)
        rows_to_insert: list[tuple] = []
        for value_row in statement.rows:
            values = [compile_expr(expr, resolver)(()) for expr in value_row]
            rows_to_insert.append(
                self._shape_row(table, statement.columns, values)
            )
        with self._dml_txn(session) as txn:
            for row in rows_to_insert:
                self._insert_row(table, row, txn)
        return QueryResult(rowcount=len(rows_to_insert))

    def insert_rows(
        self, table_name: str, rows: Sequence[tuple], txn: Transaction | None = None
    ) -> int:
        """Bulk append (used by loaders); one transaction for the batch.

        Pass ``txn`` to make the batch part of a caller-managed transaction
        (the Sinew loader does, so its catalog delta and heap rows commit
        atomically).
        """
        table = self.table(table_name)
        if txn is not None:
            for row in rows:
                self._insert_row(table, tuple(row), txn)
        else:
            with self._dml_txn() as dml:
                for row in rows:
                    self._insert_row(table, tuple(row), dml)
        return len(rows)

    def _insert_row(self, table: HeapTable, row: tuple, txn: Transaction) -> int:
        rid = table.insert(row)
        txn.log_insert(
            table.name,
            rid,
            table.tuple_bytes(row),
            undo=lambda: table.delete(rid),
            payload=row,
        )
        return rid

    def _shape_row(
        self,
        table: HeapTable,
        columns: tuple[str, ...] | None,
        values: list[Any],
    ) -> tuple:
        if columns is None:
            if len(values) != len(table.schema):
                raise ExecutionError(
                    f"INSERT arity mismatch for table {table.name!r}"
                )
            return tuple(values)
        if len(columns) != len(values):
            raise ExecutionError("INSERT column list / VALUES arity mismatch")
        row: list[Any] = [None] * len(table.schema)
        for name, value in zip(columns, values):
            row[table.schema.position_of(name)] = value
        return tuple(row)

    def matching_rids(self, table: HeapTable, where: Expr | None) -> list[int]:
        """Row ids of the live rows ``where`` is TRUE for, in heap order.

        The read half of UPDATE and DELETE, over the access path a SELECT
        with the same WHERE takes: a probe of the index (on a column or an
        expression) the planner finds cheaper, else a scan.  Complete before the first
        write, so a statement never observes its own writes.
        """
        if where is None:
            return [rid for rid, _row in table.scan()]
        resolver = SchemaResolver(
            [(table.name, c.name) for c in table.schema], self.functions
        )
        predicate = compile_expr(where, resolver)
        access = self._planner().index_access(table, where)
        pairs = table.scan() if access is None else table.index_fetch(*access)
        return [rid for rid, row in pairs if predicate(row) is True]

    def _execute_update(
        self, statement: UpdateStatement, session: DbSession | None = None
    ) -> QueryResult:
        table = self.table(statement.table)
        resolver = SchemaResolver(
            [(statement.table, c.name) for c in table.schema], self.functions
        )
        assignments: list[tuple[int, Callable]] = []
        for name, expr in statement.assignments:
            position = table.schema.position_of(name)
            assignments.append((position, compile_expr(expr, resolver)))

        updated = 0
        with self._dml_txn(session) as txn:
            for rid in self.matching_rids(table, statement.where):
                row = table.fetch(rid)
                if row is None:
                    continue
                new_row = list(row)
                for position, value_fn in assignments:
                    new_row[position] = value_fn(row)
                replacement = tuple(new_row)
                old = table.update(rid, replacement)
                txn.log_update(
                    table.name,
                    rid,
                    table.tuple_bytes(replacement),
                    undo=lambda rid=rid, old=old: table.update(rid, old),
                    payload=replacement,
                )
                updated += 1
        return QueryResult(rowcount=updated)

    def _execute_delete(
        self, statement: DeleteStatement, session: DbSession | None = None
    ) -> QueryResult:
        table = self.table(statement.table)
        deleted = 0
        with self._dml_txn(session) as txn:
            for rid in self.matching_rids(table, statement.where):
                old = table.delete(rid)
                txn.log_delete(
                    table.name,
                    rid,
                    table.tuple_bytes(old),
                    undo=lambda rid=rid, old=old: table.undo_delete(rid, old),
                )
                deleted += 1
        return QueryResult(rowcount=deleted)

    # -- DDL ----------------------------------------------------------------

    def _execute_create_table(self, statement: CreateTableStatement) -> QueryResult:
        if statement.table in self.tables:
            if statement.if_not_exists:
                return QueryResult()
            raise CatalogError(f"table already exists: {statement.table!r}")
        self.create_table(
            statement.table,
            [(c.name, c.sql_type) for c in statement.columns],
        )
        return QueryResult()

    def _execute_alter(self, statement: AlterTableStatement) -> QueryResult:
        if statement.action == "add":
            assert statement.sql_type is not None
            self.alter_add_column(
                statement.table, statement.column_name, statement.sql_type
            )
        elif statement.action == "drop":
            self.alter_drop_column(statement.table, statement.column_name)
        else:  # pragma: no cover - parser prevents this
            raise PlanningError(f"unknown ALTER action {statement.action!r}")
        return QueryResult()

    # ------------------------------------------------------------------
    # durability: recovery, checkpointing, lifecycle
    # ------------------------------------------------------------------

    def recover(
        self,
        extra_restore: Callable[[Any], None] | None = None,
        catalog_apply: Callable[[Any], None] | None = None,
    ) -> dict[str, Any] | None:
        """Rebuild state from disk: checkpoint image + WAL redo.

        Protocol (ARIES redo-only -- undo is unnecessary because rollbacks
        apply compensating heap writes at runtime and uncommitted work is
        simply never redone):

        1. load the checkpoint (if any) and restore heap tables from it;
        2. scan the WAL segments, truncating a torn final frame;
        3. classify transactions: a txn is committed iff its COMMIT record
           survived (DDL/standalone-catalog records are always committed);
        4. replay records with ``lsn > checkpoint_lsn`` in log order --
           committed data/DDL records are redone, uncommitted INSERTs burn
           their row id as a dead slot so later rids stay aligned, and
           everything else from uncommitted transactions is discarded;
        5. resume LSN/txn-id counters past everything seen and activate
           the WAL for appending.

        ``extra_restore`` receives the checkpoint's opaque ``extra`` blob
        (the Sinew catalog); ``catalog_apply`` receives each committed
        CATALOG record's payload in log order.
        """
        if self.path is None:
            return None
        if self.tables or self.wal.active:
            raise RecoveryError("recover() must run on a freshly opened database")
        assert self.checkpointer is not None
        checkpoint_lsn = 0
        next_txn_id = 1
        checkpoint = self.checkpointer.load()
        self._replaying = True
        try:
            if checkpoint is not None:
                checkpoint_lsn = checkpoint["lsn"]
                next_txn_id = checkpoint.get("next_txn_id", 1)
                for table_name, table_state in checkpoint["tables"].items():
                    table = self.create_table(
                        table_name,
                        [(n, SqlType(v)) for n, v in table_state["columns"]],
                    )
                    table.restore_state(table_state)
                if extra_restore is not None:
                    extra_restore(checkpoint.get("extra"))
            scan = scan_wal(self.wal.directory)
            # Stale records at or below the checkpoint LSN can exist when a
            # crash hit between the checkpoint rename and segment
            # truncation; their effects are already in the snapshot.
            records = [r for r in scan.records if r.lsn > checkpoint_lsn]
            committed = {DDL_TXN_ID}
            for record in records:
                if record.record_type is WalRecordType.COMMIT:
                    committed.add(record.txn_id)
            replayed = 0
            discarded = 0
            for record in records:
                if self._replay_record(
                    record, record.txn_id in committed, catalog_apply
                ):
                    replayed += 1
                elif record.record_type not in (
                    WalRecordType.BEGIN,
                    WalRecordType.COMMIT,
                    WalRecordType.ABORT,
                ):
                    discarded += 1
        finally:
            self._replaying = False
        max_lsn = max([checkpoint_lsn] + [r.lsn for r in scan.records])
        max_txn = max([next_txn_id - 1] + [r.txn_id for r in records])
        self.txn_manager.reset_next_txn_id(max_txn + 1)
        self.checkpointer.last_checkpoint_lsn = checkpoint_lsn
        self.wal.activate(max_lsn + 1)
        self.analyze()
        txns = {r.txn_id for r in records if r.txn_id != DDL_TXN_ID}
        self.last_recovery = {
            "had_checkpoint": checkpoint is not None,
            "checkpoint_lsn": checkpoint_lsn,
            "segments_scanned": scan.segments_scanned,
            "frames_decoded": scan.frames_decoded,
            "records_replayed": replayed,
            "records_discarded": discarded,
            "txns_committed": len(committed & txns),
            "txns_discarded": len(txns - committed),
            "torn_segment": scan.torn_segment,
            "torn_offset": scan.torn_offset,
            "segments_dropped": scan.segments_dropped,
        }
        return self.last_recovery

    def _replay_record(
        self,
        record: WalRecord,
        committed: bool,
        catalog_apply: Callable[[Any], None] | None,
    ) -> bool:
        """Redo one WAL record; returns True when it mutated state."""
        rt = record.record_type
        if rt in (WalRecordType.BEGIN, WalRecordType.COMMIT, WalRecordType.ABORT):
            return False
        if rt is WalRecordType.INSERT:
            table = self.tables.get(record.table)
            if table is None:
                # the table was dropped later in the log; nothing to align
                return False
            if committed:
                if record.payload is None:
                    raise RecoveryError(
                        f"committed INSERT at lsn {record.lsn} carries no row image"
                    )
                rid = table.insert(tuple(record.payload))
            else:
                # Uncommitted/aborted insert: the row must not reappear but
                # its rid must stay consumed so later records still align.
                rid = table.alloc_dead_slot()
            if rid != record.rid:
                raise RecoveryError(
                    f"row id drift replaying {record.table!r}: log says "
                    f"{record.rid}, heap allocated {rid} (lsn {record.lsn})"
                )
            return committed
        if not committed:
            # Uncommitted UPDATE/DELETE/CATALOG: skipping *is* the undo --
            # compensating writes were never logged, so the pre-images from
            # the checkpoint / earlier committed records remain in place.
            return False
        if rt is WalRecordType.UPDATE:
            table = self.tables.get(record.table)
            if table is None or record.payload is None:
                return False
            table.update(record.rid, tuple(record.payload))
            return True
        if rt is WalRecordType.DELETE:
            table = self.tables.get(record.table)
            if table is None:
                return False
            table.delete(record.rid)
            return True
        if rt is WalRecordType.CREATE_TABLE:
            if record.table not in self.tables:
                self.create_table(
                    record.table,
                    [(n, SqlType(v)) for n, v in record.payload],
                )
            return True
        if rt is WalRecordType.DROP_TABLE:
            self.drop_table(record.table, if_exists=True)
            return True
        if rt is WalRecordType.ADD_COLUMN:
            table = self.tables.get(record.table)
            if table is not None:
                name, type_value = record.payload
                if name not in table.schema:
                    table.add_column(Column(name, SqlType(type_value)))
            return True
        if rt is WalRecordType.DROP_COLUMN:
            table = self.tables.get(record.table)
            if table is not None and record.payload in table.schema:
                table.drop_column(record.payload)
            return True
        if rt is WalRecordType.TRUNCATE:
            table = self.tables.get(record.table)
            if table is not None:
                table.truncate()
            return True
        if rt is WalRecordType.CATALOG:
            if catalog_apply is not None:
                catalog_apply(record.payload)
            return True
        return False  # pragma: no cover - all record types handled above

    def checkpoint(self, extra: Any = None) -> CheckpointInfo:
        """Snapshot every heap table (+ ``extra``) and truncate dead WAL.

        Ordering: fsync + rotate the WAL first, so the snapshot LSN is the
        exact boundary -- everything at or below it is inside the snapshot
        and lives only in segments the checkpoint then deletes; everything
        above it starts in the fresh segment.  Callers must quiesce writers
        first (the Sinew layer holds the catalog's exclusive latch).
        """
        if self.path is None or self.checkpointer is None:
            raise TransactionError("an in-memory database cannot checkpoint")
        if not self.wal.active:
            raise TransactionError("recover() must run before checkpoint()")
        if self.wal.degraded:
            raise DegradedError(
                "cannot checkpoint: WAL is in read-only degraded mode",
                reason=self.wal.degraded_reason,
            )
        if self.txn_manager.active:
            # session transactions live in txn_manager.active too, so this
            # covers every connection's open BEGIN, not just the default's
            raise TransactionError("cannot checkpoint with transactions in flight")
        wal = self.wal
        wal.sync()
        wal.rotate()
        lsn = wal.last_lsn
        if self._faults is not None:
            self._faults.fire("checkpoint.pages", lsn=lsn)
        tables_state = {
            name: table.snapshot_state() for name, table in self.tables.items()
        }
        if self._faults is not None:
            self._faults.fire("checkpoint.catalog", lsn=lsn)
        state = {
            "lsn": lsn,
            "next_txn_id": self.txn_manager.next_txn_id,
            "tables": tables_state,
            "extra": extra,
        }
        return self.checkpointer.write(state, wal)

    def close(self, checkpoint: bool = True) -> None:
        """Flush and close the durable log."""
        if self.path is None:
            return
        if checkpoint and self.wal.active and not self.wal.degraded:
            self.checkpoint()
        self.wal.close()

    def wal_status(self) -> dict[str, Any]:
        """WAL + checkpoint + last-recovery counters (status surface)."""
        status = self.wal.status()
        if self.checkpointer is not None:
            status.update(self.checkpointer.status())
        status["last_recovery"] = self.last_recovery
        return status

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def create_session(self, name: str = "session") -> DbSession:
        """Allocate an independent transaction scope (one per connection)."""
        return DbSession(name)

    def _begin(self, session: DbSession | None = None) -> None:
        session = session or self._default_session
        if session.txn is not None:
            raise TransactionError(
                f"session {session.name!r} already has a transaction in progress"
            )
        session.txn = self.txn_manager.begin()

    def _commit(self, session: DbSession | None = None) -> None:
        session = session or self._default_session
        if session.txn is None:
            raise TransactionError("no transaction in progress")
        self.txn_manager.finish(session.txn, commit=True)
        session.txn = None

    def _rollback(self, session: DbSession | None = None) -> None:
        session = session or self._default_session
        if session.txn is None:
            raise TransactionError("no transaction in progress")
        self.txn_manager.finish(session.txn, commit=False)
        session.txn = None

    def abort_session(self, session: DbSession) -> bool:
        """Roll back a session's open transaction, if any.

        The service layer's disconnect path: a client that dies mid-
        transaction must never leave its writes pending (or its undo
        chain pinned) in the shared engine.  Returns True when there was
        a transaction to abort.
        """
        if session.txn is None:
            return False
        self.txn_manager.finish(session.txn, commit=False)
        session.txn = None
        return True

    def _dml_txn(self, session: DbSession | None = None):
        """Session transaction when open, else per-statement autocommit."""
        session = session or self._default_session
        if session.txn is not None:
            return _NoopTxnContext(session.txn)
        return self.txn_manager.autocommit()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def total_table_bytes(self) -> int:
        """Total modelled on-disk size of every table (Table 3 metric)."""
        return sum(table.total_bytes for table in self.tables.values())

    def modelled_io_seconds(self) -> float:
        return self.config.io_model.modelled_io_seconds(self.counters)


class _NoopTxnContext:
    """Adapter exposing an already-open transaction as a context manager."""

    def __init__(self, txn: Transaction):
        self.txn = txn

    def __enter__(self) -> Transaction:
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False
