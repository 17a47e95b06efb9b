"""``SinewDB`` -- the complete system facade.

Wires together every component of Figure 1: the underlying RDBMS, the
catalog, the loader, the schema analyzer, the column materializer, the
query rewriter, and the optional inverted text index.  A typical session::

    from repro.core import SinewDB

    sdb = SinewDB("demo")
    sdb.create_collection("webrequests")
    sdb.load("webrequests", [{"url": "www.sample-site.com", "hits": 22}])
    sdb.query("SELECT url FROM webrequests WHERE hits > 20")

Users only ever see the logical universal relation; the physical hybrid
schema (which attributes are materialized, which are dirty mid-move) is
invisible except through :meth:`logical_schema`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from ..analysis.binder import Binder, BoundStatement, literal_type
from ..analysis.checker import CheckReport, IntegrityChecker, validate_document
from ..rdbms.database import Database, DatabaseConfig, DbSession, QueryResult
from ..rdbms.errors import CatalogError, PlanningError, SemanticError
from ..rdbms.transactions import CheckpointInfo
from ..rdbms.expressions import ColumnRef, FunctionCall, Literal, Star
from ..rdbms.sql.ast import (
    DeleteStatement,
    ExplainStatement,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from ..rdbms.sql.parser import parse
from ..rdbms.types import SqlType
from . import serializer
from .background import (
    DEFAULT_IDLE_SLEEP,
    DEFAULT_STEP_ROWS,
    BackgroundWorker,
    MaterializerDaemon,
    SupervisorPolicy,
)
from .catalog import ColumnState, SinewCatalog, column_state_payload
from .extractors import ReservoirExtractor, register_extraction_udfs
from .loader import ID_COLUMN, RESERVOIR_COLUMN, LoadReport, SinewLoader
from .materializer import ColumnMaterializer, MaterializerReport
from .plan_cache import PlanCache, PreparedSelect, normalize_sql
from .rewriter import QueryRewriter
from .schema_analyzer import (
    AnalyzerReport,
    MaterializationPolicy,
    SchemaAnalyzer,
)
from .text_index import InvertedTextIndex


@dataclass
class SinewConfig:
    """Configuration for a :class:`SinewDB` instance."""

    database: DatabaseConfig = field(default_factory=DatabaseConfig)
    policy: MaterializationPolicy = field(default_factory=MaterializationPolicy)
    enable_text_index: bool = False
    #: section 4.3: automatically prefilter equality predicates on virtual
    #: text columns through the inverted index (requires enable_text_index)
    rewrite_predicates_with_index: bool = False
    #: row budget of one background-materializer slice (section 3.1.4);
    #: smaller values yield the catalog latch to the loader more often
    daemon_step_rows: int = DEFAULT_STEP_ROWS
    #: how long the idle daemon sleeps between backlog checks (seconds)
    daemon_idle_sleep: float = DEFAULT_IDLE_SLEEP
    #: per-query decoded-document cursor cache: parse each row's reservoir
    #: header at most once per query no matter how many virtual columns,
    #: predicates, or COALESCE bridges touch it (DESIGN.md section 8)
    enable_extraction_cache: bool = True
    #: prepared-plan cache capacity; 0 disables caching entirely (the
    #: embedded default).  The service layer enables it so repeated
    #: statements skip parse + bind + rewrite; entries invalidate on
    #: schema-epoch or data-epoch movement (DESIGN.md section 12)
    plan_cache_size: int = 0


class SinewDB:
    """A Sinew instance: SQL over multi-structured data, no schema needed."""

    def __init__(
        self,
        name: str = "sinew",
        config: SinewConfig | None = None,
        *,
        path: str | Path | None = None,
    ):
        self.name = name
        self.config = config or SinewConfig()
        # recovery is deferred so the Sinew catalog hooks below exist before
        # any WAL CATALOG record needs them
        self.db = Database(name, self.config.database, path=path, defer_recovery=True)
        self.catalog = SinewCatalog()
        self.extractor = ReservoirExtractor(self.catalog)
        self.loader = SinewLoader(self.db, self.catalog)
        self.analyzer = SchemaAnalyzer(self.db, self.catalog, self.config.policy)
        self.materializer = ColumnMaterializer(self.db, self.catalog, self.extractor)
        self.analyzer.prepare_column = self.materializer.prepare_column
        self._collections: set[str] = set()
        self.daemon = MaterializerDaemon(
            self.materializer,
            self.catalog,
            self.collections,
            step_rows=self.config.daemon_step_rows,
            idle_sleep=self.config.daemon_idle_sleep,
        )
        self.faults = None
        #: restart policy of the background workers (see :meth:`supervise`);
        #: None by default so the freeze-on-crash daemon contract holds
        self.supervisor: SupervisorPolicy | None = None
        #: this engine's background workers by name (the service adds its
        #: checkpointer while it runs)
        self.workers: dict[str, BackgroundWorker] = {self.daemon.name: self.daemon}
        self.plan_cache = (
            PlanCache(self.config.plan_cache_size)
            if self.config.plan_cache_size > 0
            else None
        )
        self.text_index = InvertedTextIndex() if self.config.enable_text_index else None
        self._matches_cache: dict[tuple[str, str], set[int]] = {}
        register_extraction_udfs(self.db.functions, self.extractor)
        # a cached set-membership probe, not reservoir extraction work, so
        # it stays out of the udf_calls extraction counter
        self.db.create_function(
            "sinew_matches", self._sinew_matches, SqlType.BOOLEAN, counts_as_udf=False
        )
        # per-row structural audit of one serialized document; a header
        # probe, not extraction work, so it stays out of udf_calls
        self.db.create_function(
            "sinew_check", self._sinew_check, SqlType.TEXT, counts_as_udf=False
        )
        #: recovery stats from the last reopen (None = fresh database)
        self.last_recovery: dict[str, Any] | None = None
        if path is not None:
            self._recover_from_disk()

    # ------------------------------------------------------------------
    # durability lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        name: str = "sinew",
        config: SinewConfig | None = None,
    ) -> "SinewDB":
        """Open (or create) a durable Sinew instance rooted at ``path``.

        On an existing directory this replays the WAL from the last
        checkpoint: committed transactions are redone, uncommitted tails
        discarded, and a torn final record truncated.  The recovered
        instance resumes exactly where the crashed one stopped -- including
        mid-flight column materialization (see :meth:`start_daemon`).
        """
        return cls(name, config, path=path)

    def close(self) -> None:
        """Checkpoint and shut down cleanly (stops the background workers first).

        A closed database reopens without any WAL replay; killing the
        process *without* calling close is also safe -- that is what the
        WAL is for -- it just makes the next open do recovery work.
        """
        for worker in list(self.workers.values()):
            if worker.is_alive():
                worker.stop()
        if self.db.path is not None and self.db.wal.active and not self.db.wal.degraded:
            self.checkpoint()
        self.db.close(checkpoint=False)

    def checkpoint(self) -> CheckpointInfo:
        """Snapshot heap + catalog and truncate dead WAL segments.

        Takes the catalog latch, so the materializer daemon is quiesced for
        the duration -- the snapshot is a transactionally consistent cut.
        """
        with self.catalog.exclusive_latch("checkpointer"):
            return self.db.checkpoint(
                extra={
                    "catalog": self.catalog.snapshot_state(),
                    "collections": sorted(self._collections),
                }
            )

    def _recover_from_disk(self) -> None:
        stats = self.db.recover(
            extra_restore=self._restore_checkpoint_extra,
            catalog_apply=self._apply_catalog_record,
        )
        self.last_recovery = stats
        had_state = stats is not None and (
            stats["had_checkpoint"] or stats["frames_decoded"]
        )
        if not had_state:
            return
        # Validate materializer cursors against the recovered row horizon
        # so a restarted daemon resumes mid-column (never past the end).
        self.daemon.recover()
        if self.text_index is not None:
            # the inverted index is in-memory-only: rebuild it from the
            # recovered documents
            for table_name in self.collections():
                for doc_id, document in self.documents(table_name):
                    self.text_index.index_document(doc_id, document)

    def _restore_checkpoint_extra(self, extra: Any) -> None:
        """Rebuild the Sinew catalog from the checkpoint's ``extra`` blob."""
        if not extra:
            return
        self.catalog.restore_state(extra["catalog"])
        self._collections.update(extra["collections"])

    def _apply_catalog_record(self, payload: Mapping[str, Any]) -> None:
        """Redo one committed CATALOG WAL record (see the emitting sites:
        loader batches, column-state flips, cursor advances, UPDATE count
        corrections, collection DDL)."""
        op = payload.get("op")
        if op == "load":
            for attr_id, key_name, type_value in payload["attrs"]:
                self.catalog.ensure_attribute(attr_id, key_name, SqlType(type_value))
            table_catalog = self.catalog.table(payload["table"])
            for attr_id, occurrences in payload["counts"].items():
                table_catalog.state(attr_id).count += occurrences
            for attr_id in payload["dirtied"]:
                table_catalog.state(attr_id).dirty = True
            table_catalog.n_documents = payload["n_documents"]
        elif op == "state":
            state = self.catalog.table(payload["table"]).state(payload["attr_id"])
            state.count = payload["count"]
            # dirty before materialized (SNW402): recovery replays with no
            # concurrent planners today, but the redo path must still obey
            # the live write protocol rather than silently inverting it
            state.dirty = payload["dirty"]
            state.materialized = payload["materialized"]
            state.physical_name = payload["physical_name"]
            state.cursor = payload["cursor"]
        elif op == "cursor":
            state = self.catalog.table(payload["table"]).state(payload["attr_id"])
            state.cursor = payload["cursor"]
        elif op == "counts":
            for attr_id, key_name, type_value in payload.get("attrs", ()):
                self.catalog.ensure_attribute(attr_id, key_name, SqlType(type_value))
            table_catalog = self.catalog.table(payload["table"])
            for attr_id, count in payload["counts"].items():
                table_catalog.state(attr_id).count = count
        elif op == "collection":
            if payload["action"] == "add":
                self.catalog.table(payload["table"])
                self._collections.add(payload["table"])
            else:
                self.catalog.tables.pop(payload["table"], None)
                self._collections.discard(payload["table"])

    # ------------------------------------------------------------------
    # collections and loading
    # ------------------------------------------------------------------

    def create_collection(self, table_name: str) -> None:
        """Create a Sinew table: ``(_id integer, data bytea)`` to start."""
        self.db.create_table(
            table_name, [(ID_COLUMN, SqlType.INTEGER), (RESERVOIR_COLUMN, SqlType.BYTEA)]
        )
        self.catalog.table(table_name)
        self._collections.add(table_name)
        self.catalog.bump_data_epoch()
        self.db.log_catalog(
            {"op": "collection", "action": "add", "table": table_name}
        )

    def drop_collection(self, table_name: str) -> None:
        self.db.drop_table(table_name)
        self.catalog.tables.pop(table_name, None)
        self._collections.discard(table_name)
        self.catalog.bump_data_epoch()
        self.db.log_catalog(
            {"op": "collection", "action": "drop", "table": table_name}
        )

    def collections(self) -> list[str]:
        return sorted(self._collections)

    def load(
        self, table_name: str, documents: Iterable[str | Mapping[str, Any]]
    ) -> LoadReport:
        """Bulk-load documents (JSON strings or mappings)."""
        self._require_collection(table_name)
        documents = list(documents)
        report = self.loader.load(table_name, documents)
        if self.text_index is not None:
            base = self.catalog.table(table_name).n_documents - report.n_documents
            from .document import parse_document

            for offset, document in enumerate(documents):
                self.text_index.index_document(base + offset, parse_document(document))
        self._matches_cache.clear()
        # new attributes / occurrence counts stale any cached plan
        self.catalog.bump_data_epoch()
        # a load dirties every materialized column: wake the daemon
        self.daemon.kick()
        return report

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------

    def analyze_schema(self, table_name: str) -> AnalyzerReport:
        """Run the schema analyzer pass (decides what to (de)materialize)."""
        self._require_collection(table_name)
        return self.analyzer.analyze(table_name)

    def materialize(self, table_name: str, key_name: str, key_type: SqlType) -> None:
        """Explicitly mark an attribute for materialization.

        The analyzer normally decides this; the explicit form exists for
        experiments like Table 2 that pin a specific hybrid layout.
        """
        self._require_collection(table_name)
        attr_id = self.catalog.lookup_id(key_name, key_type)
        if attr_id is None:
            raise CatalogError(f"unknown attribute: {key_name!r} ({key_type})")
        state = self.catalog.table(table_name).state(attr_id)
        if not state.materialized:
            # The latch serializes the flip with in-flight materializer
            # slices: a direction change must reset the progress cursor to
            # 0 (a mid-pass cursor would skip rows whose values already
            # moved the other way), and a concurrent slice would otherwise
            # overwrite that reset when it commits its own cursor.  ADD
            # COLUMN widens every row, so it runs under the latch too: a
            # slice that had fetched a row would write it back narrow.
            with self.catalog.exclusive_latch("schema-flip"):
                # column first, flags second: once dirty is visible the
                # daemon may start moving rows, and the rewriter must
                # already be able to emit the COALESCE bridge over the
                # physical column
                self.materializer.prepare_column(table_name, state)
                self.catalog.stamp_flip(state)
                # dirty first: a query planned between these two writes must
                # see the COALESCE bridge, never a bare (still empty)
                # physical column read (materialized=True + dirty=False
                # would do that)
                state.dirty = True
                state.materialized = True
                self.db.log_catalog(column_state_payload(table_name, state))

    def dematerialize(self, table_name: str, key_name: str, key_type: SqlType) -> None:
        """Explicitly mark a materialized attribute to move back."""
        self._require_collection(table_name)
        attr_id = self.catalog.lookup_id(key_name, key_type)
        if attr_id is None:
            raise CatalogError(f"unknown attribute: {key_name!r} ({key_type})")
        state = self.catalog.table(table_name).state(attr_id)
        if state.materialized:
            # same latch + write ordering as materialize(): the cursor
            # reset makes the reverse pass re-examine every row (values
            # already moved to the physical column live *below* any
            # mid-pass cursor), and dirty becomes visible first so
            # concurrent planning always takes the bridge
            with self.catalog.exclusive_latch("schema-flip"):
                self.catalog.stamp_flip(state)
                state.dirty = True
                state.materialized = False
                self.db.log_catalog(column_state_payload(table_name, state))

    def materializer_step(self, table_name: str, max_rows: int = 1000) -> MaterializerReport:
        """One incremental materializer slice (the background process)."""
        return self.materializer.step(table_name, max_rows)

    def run_materializer(self, table_name: str) -> MaterializerReport:
        """Drive the materializer until no dirty columns remain."""
        report = self.materializer.run_to_completion(table_name)
        self.db.analyze(table_name)
        return report

    def settle(self, table_name: str) -> None:
        """Analyzer + materializer + statistics refresh, in one call."""
        self.analyze_schema(table_name)
        self.run_materializer(table_name)

    # ------------------------------------------------------------------
    # background daemon (the paper's concurrent materialization process)
    # ------------------------------------------------------------------

    def start_daemon(self) -> None:
        """Run the column materializer on a background worker thread.

        Restarting after a crash performs cursor recovery first (see
        :class:`~repro.core.background.MaterializerDaemon`).
        """
        self.daemon.start()

    def stop_daemon(self) -> None:
        self.daemon.stop()

    def supervise(self, policy: SupervisorPolicy | None = None) -> SupervisorPolicy:
        """Opt in to crash supervision of the background workers.

        From now on a crashed worker restarts itself under ``policy``
        (bounded backoff, trip after ``max_restarts``).  Idempotent: a
        second call returns the policy already in force.  The service
        calls this when it starts; embedded users who want auto-restart
        call it explicitly.
        """
        if self.supervisor is None:
            self.supervisor = policy or SupervisorPolicy()
            for worker in self.workers.values():
                worker.policy = self.supervisor
        return self.supervisor

    def supervision(self) -> dict[str, dict[str, Any]] | None:
        """Per-worker restart records, None when nothing is supervised."""
        if self.supervisor is None:
            return None
        return {name: worker.supervision() for name, worker in self.workers.items()}

    def recover_service(self) -> dict[str, Any]:
        """Operator recovery: bring a degraded WAL back and untrip workers.

        The ``\\service recover`` path.  Attempts
        :meth:`WriteAheadLog.try_recover`; when the log is writable again,
        every supervised worker gets a fresh failure budget (one that
        crash-looped on the read-only log deserves it) and a tripped one
        restarts.  An unsupervised crashed daemon is left alone, as
        everywhere else.  Returns a status summary.
        """
        wal = self.db.wal
        recovered = wal.try_recover() if wal.durable else True
        if recovered and self.supervisor is not None:
            for worker in list(self.workers.values()):
                worker.reset()
        return {
            "recovered": recovered,
            "degraded": wal.degraded,
            "last_io_error": wal.last_io_error,
            "supervisor": self.supervision(),
        }

    def health(self) -> dict[str, Any]:
        """Cheap liveness summary: reads flags and counters, no latches.

        The engine half of the service's ``health`` op, and what
        ``\\service status`` renders in embedded mode.
        """
        wal = self.db.wal
        degraded = bool(wal.durable and wal.degraded)
        daemon = self.daemon
        supervision = self.supervision()
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "degraded_reason": wal.degraded_reason if wal.durable else None,
            "daemon": {
                "state": daemon.state,
                "alive": daemon.is_alive(),
                "last_error": daemon.last_error,
                "last_error_at": daemon.last_error_at,
            },
            "supervisor": supervision,
            "tripped": [
                name for name, info in (supervision or {}).items() if info["tripped"]
            ],
        }

    def status(self) -> dict[str, Any]:
        """One-call health snapshot: collections, daemon, latch.

        The daemon block carries the section 3.1.4 observables (rows
        moved, steps, latch waits, last error); the latch block exposes
        the loader/materializer contention counters.
        """
        from dataclasses import asdict

        collections = {}
        for name in self.collections():
            table_catalog = self.catalog.table(name)
            collections[name] = {
                "documents": table_catalog.n_documents,
                "attributes": len(table_catalog.columns),
                "materialized": len(table_catalog.materialized_columns()),
                "dirty": len(table_catalog.dirty_columns()),
            }
        latch = self.catalog.latch_stats
        return {
            "name": self.name,
            "collections": collections,
            "plan_cache": (
                self.plan_cache.stats() if self.plan_cache is not None else None
            ),
            "daemon": asdict(self.daemon.status()),
            "latch": {
                "acquisitions": latch.acquisitions,
                "waits": latch.waits,
                "wait_seconds": latch.wait_seconds,
                "timeouts": latch.timeouts,
                "contentions": latch.contentions,
                "holder": self.catalog.latch_owner,
            },
            # read by benchmarks/suite/embedded.py only (ROADMAP item 2f):
            # every query runs on the calling thread
            "executor": {"parallel_queries": 0},
            "counters": self.db.counters.snapshot(),
            "wal": self.db.wal_status(),
            "supervisor": self.supervision(),
        }

    def attach_faults(self, injector: Any) -> None:
        """Thread a :class:`~repro.testing.faults.FaultInjector` through the
        loader, materializer, daemon, and storage engine (None detaches)."""
        self.faults = injector
        self.loader.faults = injector
        self.materializer.faults = injector
        for worker in self.workers.values():
            worker.faults = injector
        self.db.attach_faults(injector)

    def logical_schema(self, table_name: str) -> list[tuple[str, SqlType, str]]:
        """The user-facing universal relation: (key, type, storage) rows."""
        self._require_collection(table_name)
        return self.catalog.logical_columns(table_name)

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def create_session(self, name: str = "session") -> DbSession:
        """An independent transaction scope (one per service connection).

        Pass the handle back through :meth:`query`/:meth:`execute` so
        ``BEGIN``/``COMMIT``/``ROLLBACK`` and DML statements bind to this
        session's transaction instead of the shared default scope.
        """
        return self.db.create_session(name)

    def query(
        self,
        sql: str,
        *,
        explain_analyze: bool = False,
        use_extraction_cache: bool | None = None,
        session: DbSession | None = None,
        use_plan_cache: bool = True,
    ) -> QueryResult:
        """Run one SQL statement against the logical schema.

        ``explain_analyze=True`` executes the query under instrumentation:
        the result's ``plan_text`` carries per-node actual rows and wall
        time plus the extraction counters, and ``exec_stats`` is always
        populated.  ``use_extraction_cache`` overrides the config default
        for this one query (the uncached path exists for verification).
        ``session`` scopes any transaction interaction to one connection;
        ``use_plan_cache=False`` bypasses the prepared-plan cache for this
        query even when the instance has one enabled.
        """
        return self.execute_statement(
            parse(sql),
            sql if use_plan_cache else None,
            explain_analyze=explain_analyze,
            use_extraction_cache=use_extraction_cache,
            session=session,
        )

    def explain_analyze(self, sql: str) -> str:
        """Execute a SELECT and return its EXPLAIN ANALYZE text."""
        statement = _parse_select(sql, "EXPLAIN ANALYZE")
        return self.execute_statement(statement, explain_analyze=True).plan_text

    def explain(self, sql: str) -> str:
        """EXPLAIN of the statement the RDBMS runs (rewritten, stars expanded)."""
        statement = ExplainStatement(_parse_select(sql, "EXPLAIN"))
        return self.execute_statement(statement).plan_text

    def execute(self, sql: str, *, session: DbSession | None = None) -> QueryResult:
        """Execute DML (UPDATE/DELETE) against the logical schema."""
        return self.execute_statement(parse(sql), session=session)

    def execute_statement(
        self,
        statement: Statement,
        sql: str | None = None,
        *,
        explain_analyze: bool = False,
        use_extraction_cache: bool | None = None,
        session: DbSession | None = None,
    ) -> QueryResult:
        """Run one parsed statement; :meth:`query`, :meth:`execute`,
        :meth:`explain` and :meth:`explain_analyze` all end here.

        ``sql`` is the statement's text: a SELECT looks its prepared form
        up in the plan cache under it, and None bypasses the cache.  The
        service parses each request once and calls this directly.
        """
        if isinstance(statement, SelectStatement):
            sql_key = None
            if sql is not None and self.plan_cache is not None:
                sql_key = normalize_sql(sql)
            return self._execute_select(
                statement,
                explain_analyze=explain_analyze,
                use_extraction_cache=use_extraction_cache,
                sql_key=sql_key,
                session=session,
            )
        if isinstance(statement, ExplainStatement):
            return self._explain_select(statement.inner)
        if isinstance(statement, UpdateStatement) and statement.table in self._collections:
            return self._execute_update(statement, session=session)
        if isinstance(statement, DeleteStatement) and statement.table in self._collections:
            bound = self._bind(statement)
            where = self._rewriter().rewrite_where(bound)
            result = self.db.execute_statement(
                DeleteStatement(statement.table, where), session=session
            )
            self._matches_cache.clear()
            self.catalog.bump_data_epoch()
            return self._attach_diagnostics(result, bound)
        return self.db.execute_statement(statement, session=session)

    # -- SELECT ----------------------------------------------------------

    def _rewriter(self) -> QueryRewriter:
        tables = {name: self.db.table(name) for name in self._collections}
        return QueryRewriter(
            self.catalog,
            tables,
            use_text_index=(
                self.config.rewrite_predicates_with_index
                and self.text_index is not None
            ),
        )

    def _bind(self, statement: Statement) -> BoundStatement:
        """Bind a statement before rewriting (parse -> bind -> rewrite).

        Errors raise :class:`SemanticError`; the bound statement (with its
        warnings and pruned provably-NULL predicates) is what the rewrite
        reads and what the query result's diagnostics come from.
        """
        bound = self.lint(statement)
        if not bound.ok:
            raise SemanticError(bound.diagnostics)
        return bound

    @staticmethod
    def _attach_diagnostics(result: QueryResult, bound: BoundStatement) -> QueryResult:
        warnings = bound.warnings
        if warnings:
            result.diagnostics = warnings
        return result

    def _prepare_select(
        self, statement: SelectStatement, token: tuple[int, int]
    ) -> PreparedSelect:
        """The cacheable prepare phase: bind + rewrite + star expansion.

        Must run inside :meth:`SinewCatalog.query_scope` with ``token``
        read after registration, so the prepared statement's view of the
        catalog flags is exactly the one the token certifies.
        """
        bound = self._bind(statement)
        rewriter = self._rewriter()
        rewritten = rewriter.rewrite_select(bound)
        # the multi-key tag: only meaningful when one reservoir binding
        # feeds more than one extraction site
        keys_per_row = rewriter.max_extraction_keys()
        expanded, program = self._expand_stars(rewritten)
        return PreparedSelect(
            statement=expanded,
            analysis=bound,
            extraction_hint=keys_per_row if keys_per_row > 1 else None,
            program=program,
            token=token,
        )

    def _execute_select(
        self,
        statement: SelectStatement,
        *,
        explain_analyze: bool = False,
        use_extraction_cache: bool | None = None,
        sql_key: str | None = None,
        session: DbSession | None = None,
    ) -> QueryResult:
        # Register before the rewriter reads the catalog flags: the plan
        # bakes those flags in, and the materializer defers row moves for
        # columns whose direction flips while this query is in flight
        # (catalog.query_scope docs).  Registering first makes the race
        # benign in both orders -- a flip after registration blocks moves;
        # a flip before it means the rewriter already saw the new flags.
        # The same registration covers a cached plan: serving it requires
        # the live plan token to equal the entry's, i.e. no flip happened
        # since its prepare, and any flip after our registration defers.
        with self.catalog.query_scope():
            token = self.catalog.plan_token()
            prepared = None
            if self.plan_cache is not None and sql_key is not None:
                prepared = self.plan_cache.lookup(sql_key, token)
            if prepared is None:
                prepared = self._prepare_select(statement, token)
                if self.plan_cache is not None and sql_key is not None:
                    self.plan_cache.store(sql_key, prepared)
            if use_extraction_cache is None:
                use_extraction_cache = self.config.enable_extraction_cache
            result = self.db.execute_statement(
                prepared.statement,
                analyze=explain_analyze,
                extraction_hint=prepared.extraction_hint,
                use_extraction_cache=use_extraction_cache,
                session=session,
            )
            if prepared.program is not None:
                result = self._assemble_stars(result, prepared.program)
        return self._attach_diagnostics(result, prepared.analysis)

    def _explain_select(self, statement: SelectStatement) -> QueryResult:
        """EXPLAIN: plan the statement execution would run, without running
        it; the plan cache is neither read nor filled."""
        with self.catalog.query_scope():
            prepared = self._prepare_select(statement, self.catalog.plan_token())
            plan_text = self.db._plan(prepared.statement).explain()
        return self._attach_diagnostics(
            QueryResult(plan_text=plan_text), prepared.analysis
        )

    def _expand_stars(
        self, statement: SelectStatement
    ) -> tuple[SelectStatement, list[tuple] | None]:
        """Expand each ``*`` over Sinew tables for the RDBMS.

        Each star becomes the table's materialized physical columns plus
        ``sinew_to_json(data)``; the returned program tells
        :meth:`_assemble_stars` how to merge both back into complete
        documents -- reconstructing exactly what was loaded.  A statement
        over plain tables only keeps its stars for the RDBMS to expand.
        """
        sinew_bindings = {
            (ref.alias or ref.name): ref.name
            for ref in statement.from_tables
            if ref.name in self._collections
        }
        if not sinew_bindings or not any(
            isinstance(item.expr, Star) for item in statement.items
        ):
            return statement, None
        items: list[SelectItem] = []
        # ("doc", binding, phys_specs, json_index) or ("col", source_index, alias)
        program: list[tuple] = []
        for item in statement.items:
            if not isinstance(item.expr, Star):
                program.append(("col", len(items), item.alias))
                items.append(item)
                continue
            if item.expr.table is None:
                if len(sinew_bindings) < len(statement.from_tables):
                    raise PlanningError(
                        "SELECT * mixing Sinew and plain tables is not supported; "
                        "project columns explicitly"
                    )
                expand_over = list(sinew_bindings)
            elif item.expr.table in sinew_bindings:
                expand_over = [item.expr.table]
            else:
                raise PlanningError(
                    f"SELECT {item.expr.table}.* does not name a Sinew table"
                )
            for binding in expand_over:
                phys_specs: list[tuple[str, SqlType, int]] = []
                table_name = sinew_bindings[binding]
                schema = self.db.table(table_name).schema
                for state, placement in self.catalog.table(table_name).placements(schema):
                    attribute = self.catalog.attribute(state.attr_id)
                    phys_specs.append(
                        (attribute.key_name, attribute.key_type, len(items))
                    )
                    items.append(
                        SelectItem(
                            ColumnRef(binding, placement.name),
                            f"__{binding}__{attribute.key_name}",
                        )
                    )
                program.append(("doc", binding, phys_specs, len(items)))
                items.append(
                    SelectItem(
                        FunctionCall(
                            "sinew_to_json", (ColumnRef(binding, RESERVOIR_COLUMN),)
                        ),
                        f"__{binding}__json",
                    )
                )
        return replace(statement, items=tuple(items)), program

    def _assemble_stars(self, raw: QueryResult, program: list[tuple]) -> QueryResult:
        """Run a star program over the RDBMS result: one document per star."""
        single_star = sum(1 for step in program if step[0] == "doc") == 1
        columns: list[str] = []
        for step in program:
            if step[0] == "doc":
                columns.append("document" if single_star else step[1])
            else:
                columns.append(step[2] or raw.columns[step[1]])

        rows: list[tuple] = []
        for raw_row in raw.rows:
            out: list[Any] = []
            for step in program:
                if step[0] == "doc":
                    text = raw_row[step[3]]
                    document = json.loads(text) if text else {}
                    out.append(self._assemble_document(document, step[2], raw_row))
                else:
                    out.append(raw_row[step[1]])
            rows.append(tuple(out))
        return QueryResult(
            columns=columns,
            rows=rows,
            plan_text=raw.plan_text,
            exec_stats=raw.exec_stats,
        )

    def _assemble_document(
        self,
        document: dict[str, Any],
        phys_specs: list[tuple[str, SqlType, int]],
        row: tuple,
    ) -> dict[str, Any]:
        """Merge materialized physical values into a reservoir document.

        The one row-to-document step: ``SELECT *`` results and stored heap
        rows (:meth:`documents`, text-index upkeep) both end here.  Each
        spec is ``(key name, key type, position of its value in row)``.
        """
        for key_name, key_type, index in phys_specs:
            value = row[index]
            if value is None:
                continue
            if key_type is SqlType.BYTEA:
                value = self.extractor.to_dict(value, prefix=key_name + ".")
            elif key_type is SqlType.ARRAY:
                # object elements were serialized under the array key's
                # dotted prefix; strip it when rebuilding them
                value = self.extractor._array_to_plain(value, prefix=key_name + ".")
            self._insert_path(document, key_name, value)
        return document

    @staticmethod
    def _insert_path(document: dict, dotted_key: str, value: Any) -> None:
        parts = dotted_key.split(".")
        node = document
        for part in parts[:-1]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = {}
                node[part] = child
            node = child
        node[parts[-1]] = value

    # -- UPDATE ------------------------------------------------------------

    def _execute_update(
        self, statement: UpdateStatement, session: DbSession | None = None
    ) -> QueryResult:
        """UPDATE against the logical schema.

        A key is written under its literal's type, as a load of the same
        value would store it, and its occurrences of every other type are
        dropped, so each row holds the key once (a NULL literal drops them
        all).  Assignments to clean physical columns write the column;
        assignments to virtual columns rewrite the serialized reservoir
        value, row by row, inside one transaction.  A dirty column is
        mid-move, so each row's write goes where the COALESCE bridge reads
        it: the physical cell when it holds the value (non-NULL), else the
        reservoir.
        """
        table_name = statement.table
        table = self.db.table(table_name)
        table_catalog = self.catalog.table(table_name)
        bound = self._bind(statement)
        where = self._rewriter().rewrite_where(bound)

        # (key, type, value) of each assignment; where each of the key's
        # types is written is decided under the latch below
        assignments: list[tuple[str, SqlType, Any]] = []
        for target, (_name, value_expr) in zip(bound.targets, statement.assignments):
            if not isinstance(value_expr, Literal):
                raise PlanningError(
                    "Sinew UPDATE currently supports literal assignments on "
                    "logical columns"
                )
            state = target.primary()
            sql_type = literal_type(value_expr) or (
                self.catalog.type_of(state.attr_id) if state is not None else SqlType.TEXT
            )
            assignments.append((target.key_name, sql_type, value_expr.value))

        updated = 0
        touched_attrs: dict[int, tuple[str, str]] = {}
        with self.db._dml_txn(session) as txn:
            matched = self.db.matching_rids(table, where)
            # That read ran beside the materializer, which rewrites a row
            # when it moves one of its values.  Every write goes on the
            # row as it is *now*, under the latch that keeps the
            # materializer (and the loader) out -- writing back the image
            # the read saw would undo a move made since, or be undone by
            # one made from an image fetched before this write.
            with self.catalog.exclusive_latch("update"):
                schema = table.schema
                physical_assignments, reservoir_assignments = self._update_writes(
                    assignments, schema, table_catalog
                )
                data_position = schema.position_of(RESERVOIR_COLUMN)
                id_position = schema.position_of(ID_COLUMN)
                for rid in matched:
                    row = table.fetch(rid)
                    if row is None:
                        continue
                    new_row = list(row)
                    for position, value, state in physical_assignments:
                        held = new_row[position] is not None
                        new_row[position] = value
                        if held != (value is not None):
                            state.count += 1 if value is not None else -1
                            attribute = self.catalog.attribute(state.attr_id)
                            touched_attrs[state.attr_id] = (
                                attribute.key_name, attribute.key_type.value
                            )
                    data = None
                    for key_name, sql_type, value, moving in reservoir_assignments:
                        if moving is not None and new_row[moving] is not None:
                            # the physical cell holds this row's value
                            new_row[moving] = value
                            if value is None:
                                attr_id = self.catalog.attribute_id(key_name, sql_type)
                                table_catalog.state(attr_id).count -= 1
                                touched_attrs[attr_id] = (key_name, sql_type.value)
                            continue
                        if data is None:
                            data = new_row[data_position]
                            if data is None:
                                data = serializer.serialize([])
                        had_value = (
                            self.extractor.extract_typed(data, key_name, sql_type)
                            is not None
                        )
                        if value is None and not had_value:
                            continue  # another type's occurrence this row lacks
                        data = self.extractor.set_path(data, key_name, sql_type, value)
                        attr_id = self.catalog.attribute_id(key_name, sql_type)
                        touched_attrs[attr_id] = (key_name, sql_type.value)
                        if value is not None and not had_value:
                            table_catalog.state(attr_id).count += 1
                        elif value is None and had_value:
                            table_catalog.state(attr_id).count -= 1
                    if data is not None:
                        new_row[data_position] = data
                    replacement = tuple(new_row)
                    size = table.tuple_bytes(replacement)
                    old = table.update(rid, replacement, size)
                    txn.log_update(
                        table_name,
                        rid,
                        size,
                        undo=lambda rid=rid, old=old: table.update(rid, old),
                        payload=replacement,
                    )
                    if self.text_index is not None:
                        doc = self._document_of_row(table, replacement)
                        self.text_index.index_document(replacement[id_position], doc)
                    updated += 1
            if touched_attrs:
                # absolute post-statement counts: replay sets them verbatim,
                # so the redo is idempotent no matter the per-row history
                self.db.log_catalog(
                    {
                        "op": "counts",
                        "table": table_name,
                        "attrs": [
                            (attr_id, key_name, type_value)
                            for attr_id, (key_name, type_value) in touched_attrs.items()
                        ],
                        "counts": {
                            attr_id: table_catalog.state(attr_id).count
                            for attr_id in touched_attrs
                        },
                    },
                    txn=txn,
                )
        self._matches_cache.clear()
        self.catalog.bump_data_epoch()
        return self._attach_diagnostics(QueryResult(rowcount=updated), bound)

    def _update_writes(
        self,
        assignments: list[tuple[str, SqlType, Any]],
        schema,
        table_catalog,
    ) -> tuple[list[tuple[int, Any, ColumnState]], list[tuple[str, SqlType, Any, int | None]]]:
        """Split UPDATE assignments by where each is written: the value
        under its own type, NULL under each other type the key has in the
        table (which drops that occurrence).

        Called under the catalog latch, so the column states and the
        schema are the ones the write meets: the materializer may have
        moved, or dropped, a column since the statement was bound.
        Returns ``(position, value, state)`` of clean physical columns
        and ``(key, type, value, position of a dirty column's physical
        cell or None)`` of the rest.
        """
        physical: list[tuple[int, Any, ColumnState]] = []
        reservoir: list[tuple[str, SqlType, Any, int | None]] = []
        for key_name, sql_type, value in assignments:
            writes = [(sql_type, value)] + [
                (attribute.key_type, None)
                for attribute in self.catalog.attributes_named(key_name)
                if attribute.key_type is not sql_type
                and attribute.attr_id in table_catalog.columns
            ]
            for key_type, cell in writes:
                attr_id = self.catalog.lookup_id(key_name, key_type)
                state = None if attr_id is None else table_catalog.columns.get(attr_id)
                placement = None if state is None else state.placement(schema)
                if placement is not None and placement.settled:
                    physical.append((placement.position, cell, state))
                    continue
                moving = None if placement is None else placement.position
                reservoir.append((key_name, key_type, cell, moving))
        return physical, reservoir

    def _document_of_row(self, table, row: tuple) -> dict[str, Any]:
        """The stored document of one heap row of a collection."""
        data = row[table.schema.position_of(RESERVOIR_COLUMN)]
        phys_specs: list[tuple[str, SqlType, int]] = []
        for state, placement in self.catalog.table(table.name).placements(table.schema):
            attribute = self.catalog.attribute(state.attr_id)
            phys_specs.append((attribute.key_name, attribute.key_type, placement.position))
        document = self.extractor.to_dict(data) if data else {}
        return self._assemble_document(document, phys_specs, row)

    # ------------------------------------------------------------------
    # documents and text search
    # ------------------------------------------------------------------

    def documents(self, table_name: str) -> Iterator[tuple[int, dict[str, Any]]]:
        """Iterate ``(_id, reconstructed document)`` over a collection."""
        self._require_collection(table_name)
        table = self.db.table(table_name)
        id_position = table.schema.position_of(ID_COLUMN)
        for _rid, row in table.scan():
            yield row[id_position], self._document_of_row(table, row)

    def _sinew_check(self, data: Any) -> str:
        """The UDF behind ``sinew_check(data)``: per-document audit."""
        if data is None:
            return "no reservoir document"
        problem = validate_document(data)
        return "ok" if problem is None else problem

    def _sinew_matches(self, doc_id: int, keys: str, query: str) -> bool:
        """The UDF behind ``matches()``: membership in the index result."""
        if self.text_index is None:
            raise PlanningError(
                "matches() requires the text index "
                "(SinewConfig.enable_text_index=True)"
            )
        cache_key = (keys, query)
        if cache_key not in self._matches_cache:
            self._matches_cache[cache_key] = self.text_index.matches(keys, query)
        return doc_id in self._matches_cache[cache_key]

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def analyze(self, table_name: str | None = None) -> None:
        """Refresh RDBMS optimizer statistics (physical columns only)."""
        self.db.analyze(table_name)

    def check(self, table_name: str | None = None) -> list[CheckReport]:
        """``CHECK``-style catalog/storage integrity audit (``\\check``).

        Scans one collection (or all of them) and reports every violated
        invariant as an SNW3xx diagnostic: occurrence counts vs. stored
        rows, reservoir residue under clean materialized columns,
        serialization-header well-formedness, unknown attribute ids, and
        catalog row counts vs. the heap.
        """
        if table_name is not None:
            self._require_collection(table_name)
            names = [table_name]
        else:
            names = self.collections()
        return IntegrityChecker(self.db, self.catalog).check(names)

    def lint(self, sql: str | Statement) -> BoundStatement:
        """Bind a query for its diagnostics, without executing it (the
        shell's ``\\lint``)."""
        return Binder(self.catalog, self._collections, self.db).bind(sql)

    def storage_bytes(self, table_name: str) -> int:
        """Modelled on-disk size of a collection (Table 3 metric)."""
        return self.db.table(table_name).total_bytes

    def sync_catalog(self) -> None:
        """Reflect the catalog into queryable ``_sinew_*`` relations."""
        self.catalog.sync_to_rdbms(self.db)

    def _require_collection(self, table_name: str) -> None:
        if table_name not in self._collections:
            raise CatalogError(f"no such Sinew collection: {table_name!r}")


def _parse_select(sql: str, what: str) -> SelectStatement:
    statement = parse(sql)
    if not isinstance(statement, SelectStatement):
        raise PlanningError(f"{what} supports only SELECT statements")
    return statement

