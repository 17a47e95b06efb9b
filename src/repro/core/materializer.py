"""The column materializer (paper section 3.1.4).

Maintains the dynamic physical schema by moving attribute values between
the column reservoir and physical columns.  Design requirements carried
over from the paper:

* **Incremental and interruptible** -- materialization proceeds row by
  row; ``step(max_rows)`` can stop at any point and resume later, so the
  process can yield to foreground queries.  A partially moved column is
  *dirty*, and the query rewriter wraps it in ``COALESCE(physical,
  extract(...))`` until the move completes.
* **Per-row atomicity** -- each row move is one atomic update (a
  transaction here), but the materialization as a whole is not a
  transaction.
* **Mutual exclusion with the loader** -- via the catalog latch, so that
  once the row cursor reaches the end of the table every value is in its
  correct location and the dirty bit can be cleared.  Acquisition blocks
  (bounded) by default so the materializer and a concurrent loader take
  turns instead of failing.
* **Crash safety** -- the per-column progress cursor lives in the catalog
  (:attr:`~repro.core.catalog.ColumnState.cursor`) and is advanced only
  *after* each row move commits, so a crash at any instant leaves a state
  from which re-running ``step`` converges: re-examining an already-moved
  row is a no-op (the value is no longer on the source side).  The named
  ``materializer.*`` fault-injection points (see
  :mod:`repro.testing.faults`) let tests kill the process between any two
  of these transitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..latching import requires_latch
from ..rdbms.database import Database
from ..rdbms.errors import CatalogError
from ..rdbms.types import SqlType
from .catalog import (
    DEFAULT_LATCH_TIMEOUT,
    ColumnState,
    SinewCatalog,
    column_state_payload,
)
from .extractors import ReservoirExtractor
from .loader import ID_COLUMN, RESERVOIR_COLUMN


@dataclass
class MaterializerReport:
    """Progress accounting for materializer activity."""

    rows_examined: int = 0
    rows_moved: int = 0
    columns_completed: list[str] = field(default_factory=list)


class ColumnMaterializer:
    """Moves data between the reservoir and physical columns."""

    def __init__(self, db: Database, catalog: SinewCatalog, extractor: ReservoirExtractor):
        self.db = db
        self.catalog = catalog
        self.extractor = extractor
        #: optional FaultInjector (duck-typed); tests attach one to crash
        #: the process at the ``materializer.*`` injection points
        self.faults = None
        #: latch acquisition mode for :meth:`step`
        self.latch_blocking = True
        self.latch_timeout = DEFAULT_LATCH_TIMEOUT

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def pending(self, table_name: str) -> list[ColumnState]:
        """Dirty columns of a table, in attribute-id order."""
        return sorted(
            self.catalog.table(table_name).dirty_columns(), key=lambda s: s.attr_id
        )

    def step(self, table_name: str, max_rows: int = 1000) -> MaterializerReport:
        """Process up to ``max_rows`` row-moves, then stop.

        Works on one dirty column at a time (lowest attribute id first).
        Returns a report; when no dirty column remains the report is empty.
        """
        report = MaterializerReport()
        with self.catalog.exclusive_latch(
            "materializer",
            blocking=self.latch_blocking,
            timeout=self.latch_timeout,
        ):
            self._fire("materializer.before_step", table=table_name)
            budget = max_rows
            for state in self.pending(table_name):
                if budget <= 0:
                    break
                budget -= self._process_column(table_name, state, budget, report)
        return report

    def run_to_completion(self, table_name: str, batch_rows: int = 10000) -> MaterializerReport:
        """Loop :meth:`step` until no dirty columns remain.

        When every dirty column is blocked behind the query drain barrier
        (see :meth:`_blocked_by_queries`), waits -- bounded by the latch
        timeout -- for the in-flight queries to finish rather than
        returning with work left undone.
        """
        total = MaterializerReport()
        deadline = None
        while True:
            report = self.step(table_name, batch_rows)
            total.rows_examined += report.rows_examined
            total.rows_moved += report.rows_moved
            total.columns_completed.extend(report.columns_completed)
            if report.rows_examined or report.columns_completed:
                deadline = None
                continue
            pending = self.pending(table_name)
            if pending and any(self._blocked_by_queries(s) for s in pending):
                now = time.monotonic()
                if deadline is None:
                    deadline = now + self.latch_timeout
                elif now >= deadline:
                    raise CatalogError(
                        f"materializer blocked for {self.latch_timeout:.1f}s "
                        "waiting for pre-flip queries to drain"
                    )
                time.sleep(0.001)
                continue
            break
        return total

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    @requires_latch("catalog")
    def _process_column(
        self,
        table_name: str,
        state: ColumnState,
        budget: int,
        report: MaterializerReport,
    ) -> int:
        """Advance one dirty column by up to ``budget`` rows; returns the
        number of rows examined."""
        attribute = self.catalog.attribute(state.attr_id)
        table = self.db.table(table_name)

        if state.materialized:
            self._ensure_physical_column(table_name, state)
        physical_name = state.physical_name
        if physical_name is None or physical_name not in table.schema:
            if state.materialized:
                raise CatalogError(
                    f"column {attribute.key_name!r} marked materialized but has "
                    "no physical column"
                )
            # Dematerialization finished earlier and column was dropped.
            state.physical_name = None
            state.cursor = 0
            state.dirty = False
            self.db.log_catalog(column_state_payload(table_name, state))
            return 0

        if self._blocked_by_queries(state):
            # A query planned before this column's direction flip is still
            # running; its plan cannot see the destination side of a move,
            # so moving rows now would hide values from its scan.  Skip the
            # slice -- the daemon (or run_to_completion) retries once the
            # pre-flip queries drain.
            return 0

        data_position = table.schema.position_of(RESERVOIR_COLUMN)
        column_position = table.schema.position_of(physical_name)
        host = self.catalog.host(table_name, attribute.key_name, table.schema)
        host_position = None if host is None else host.position
        cursor = min(state.cursor, self._max_rid(table))
        examined = 0
        n_rids = self._max_rid(table)

        while cursor < n_rids and examined < budget:
            row = table.fetch(cursor)
            examined += 1
            if row is not None:
                self._fire(
                    "materializer.before_row_move",
                    table=table_name, key=attribute.key_name, rid=cursor,
                )
                moved = self._move_row_value(
                    table, cursor, row, state, attribute.key_type,
                    data_position, column_position, host_position,
                )
                if moved:
                    report.rows_moved += 1
                self._fire(
                    "materializer.after_row_move",
                    table=table_name, key=attribute.key_name, rid=cursor,
                )
            cursor += 1
            # Persist progress after every committed row move so a crash
            # resumes mid-column instead of restarting it.
            state.cursor = cursor
        report.rows_examined += examined

        if cursor >= n_rids:
            # Cursor reached the end under the latch: the column is clean.
            self._finish_column(table_name, state, attribute.key_name)
            report.columns_completed.append(attribute.key_name)
        return examined

    @requires_latch("catalog")
    def _move_row_value(
        self,
        table,
        rid: int,
        row: tuple,
        state: ColumnState,
        key_type: SqlType,
        data_position: int,
        column_position: int,
        host_position: int | None,
    ) -> bool:
        """Move one row's value to its correct location (atomic update).

        A dotted key whose ancestor object is itself materialized (section
        4.2: a nested object stored as its own serialized column, at
        ``host_position``) may live in that ancestor's physical cell rather
        than the reservoir, so the move sources from -- and returns values
        to -- whichever side holds the parent document for this row.
        """
        attribute = self.catalog.attribute(state.attr_id)
        data = row[data_position]
        new_row = list(row)
        if state.materialized:
            value = None
            if data is not None:
                value = self.extractor.extract_typed(
                    data, attribute.key_name, key_type
                )
            if value is not None:
                new_row[data_position] = self.extractor.remove_path(
                    data, attribute.key_name, key_type
                )
            else:
                # not in the reservoir: the parent object may already have
                # moved to its own physical column for this row
                cell = row[host_position] if host_position is not None else None
                if cell is None:
                    return False
                value = self.extractor.extract_typed(
                    cell, attribute.key_name, key_type
                )
                if value is None:
                    return False
                new_row[host_position] = self.extractor.remove_path(
                    cell, attribute.key_name, key_type
                )
            new_row[column_position] = value
        else:
            value = row[column_position]
            if value is None:
                return False
            cell = row[host_position] if host_position is not None else None
            if cell is not None:
                # the parent document lives in its physical column for this
                # row; returning the value there keeps the nesting intact
                new_row[host_position] = self.extractor.set_path(
                    cell, attribute.key_name, key_type, value
                )
            else:
                if data is None:
                    from . import serializer

                    data = serializer.serialize([])
                new_row[data_position] = self.extractor.set_path(
                    data, attribute.key_name, key_type, value
                )
            new_row[column_position] = None
        with self.db.txn_manager.autocommit() as txn:
            replacement = tuple(new_row)
            old = table.update(rid, replacement)
            txn.log_update(
                table.name,
                rid,
                table.tuple_bytes(replacement),
                undo=lambda rid=rid, old=old: table.update(rid, old),
                payload=replacement,
            )
            # The progress cursor rides in the same transaction as the row
            # move, so a recovered database resumes from exactly the rows
            # whose moves became durable.
            self.db.log_catalog(
                {
                    "op": "cursor",
                    "table": table.name,
                    "attr_id": state.attr_id,
                    "cursor": rid + 1,
                },
                txn=txn,
            )
        return True

    def _blocked_by_queries(self, state: ColumnState) -> bool:
        """True while some in-flight query predates this column's flip."""
        oldest = self.catalog.oldest_active_epoch()
        return oldest is not None and oldest < state.flip_epoch

    @requires_latch("catalog")
    def _finish_column(self, table_name: str, state: ColumnState, key_name: str) -> None:
        """Clear the dirty bit (and drop the source column when dematerializing).

        Ordered so that a crash between any two statements leaves a state
        ``step`` converges from: the dirty bit is cleared *last*, after the
        physical side is consistent.
        """
        self._fire(
            "materializer.before_clear_dirty", table=table_name, key=key_name
        )
        if not state.materialized and state.physical_name:
            # Dematerialization complete: drop the now-empty physical column.
            self.db.alter_drop_column(table_name, state.physical_name)
            state.physical_name = None
        state.cursor = 0
        state.dirty = False
        self.db.log_catalog(column_state_payload(table_name, state))
        # a finished dematerialization dropped the physical column above:
        # any cached plan still bridging through it must re-prepare
        self.catalog.bump_data_epoch()

    def prepare_column(self, table_name: str, state: ColumnState) -> None:
        """Allocate the physical column for a column about to be marked.

        Callers mark a column for materialization by flipping its dirty
        bit; the physical column must exist *before* that flip becomes
        visible, or a query planned in the gap sees ``physical_name`` unset,
        omits the COALESCE bridge, and loses any value the background
        materializer moves before the scan reaches its row.
        """
        self._ensure_physical_column(table_name, state)

    def _ensure_physical_column(self, table_name: str, state: ColumnState) -> None:
        """ALTER TABLE ADD COLUMN for a newly materialized attribute.

        Idempotent: the chosen name is recorded in the catalog *before* the
        column is added, so a crash in between re-runs the ADD (not the
        name allocation) on recovery.
        """
        table = self.db.table(table_name)
        if state.physical_name is None:
            attribute = self.catalog.attribute(state.attr_id)
            name = attribute.key_name
            if name in (ID_COLUMN, RESERVOIR_COLUMN) or name in table.schema:
                name = f"{name}__{attribute.key_type.value}"
            if name in table.schema:
                raise CatalogError(f"cannot allocate physical column name for {name!r}")
            state.physical_name = name
        if state.physical_name not in table.schema:
            attribute = self.catalog.attribute(state.attr_id)
            column_type = (
                SqlType.BYTEA
                if attribute.key_type is SqlType.BYTEA
                else attribute.key_type
            )
            self.db.alter_add_column(table_name, state.physical_name, column_type)

    def _fire(self, point: str, **context) -> None:
        if self.faults is not None:
            self.faults.fire(point, **context)

    @staticmethod
    def _max_rid(table) -> int:
        """Upper bound of allocated row ids (the row-cursor horizon)."""
        return table.allocated_rids
