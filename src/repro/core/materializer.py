"""The column materializer (paper section 3.1.4).

Maintains the dynamic physical schema by moving attribute values between
the column reservoir and physical columns.  Design requirements carried
over from the paper:

* **Incremental and interruptible** -- materialization proceeds in
  *slices*: ``step(max_rows)`` walks up to ``max_rows`` row ids once,
  from the lowest cursor of the table's dirty columns, and then stops, so
  the process can yield to foreground queries.  A partially moved column
  is *dirty*, and the query rewriter wraps it in ``COALESCE(physical,
  extract(...))`` until the move completes.
* **Per-slice transaction; each row atomic** -- a slice rewrites each
  row once for every dirty column whose cursor has reached it (one
  fetch, one heap update, one WAL UPDATE record) and commits all its
  rows as one transaction, together with the columns' progress cursors.
  The paper makes each row move its own transaction; what it requires
  holds either way: no row is ever seen half moved, and the
  materialization as a whole is not a transaction.
* **Mutual exclusion with the loader** -- via the catalog latch, so that
  once the row cursor reaches the end of the table every value is in its
  correct location and the dirty bit can be cleared.  Acquisition blocks
  (bounded) by default so the materializer and a concurrent loader take
  turns instead of failing.
* **Crash safety** -- the per-column progress cursor lives in the catalog
  (:attr:`~repro.core.catalog.ColumnState.cursor`); a slice logs each
  advanced cursor inside its own transaction and publishes it in memory
  only after that commits, so a crash (or a fault) mid-slice discards
  the whole slice and re-running ``step`` resumes from the previous
  slice's end: re-examining an already-moved row is a no-op (the value
  is no longer on the source side).  The named ``materializer.*``
  fault-injection points (see :mod:`repro.testing.faults`) let tests
  kill the process between any two of these transitions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..latching import requires_latch
from ..rdbms.database import Database
from ..rdbms.errors import CatalogError
from ..rdbms.storage import Schema
from ..rdbms.types import SqlType
from . import serializer
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
    #: values moved: a row counts once for each key it moved
    rows_moved: int = 0
    columns_completed: list[str] = field(default_factory=list)


@dataclass
class _ColumnMove:
    """One dirty column as a slice applies it: where its value lives in
    a row image, and the column's cursor when the slice began."""

    state: ColumnState
    key: str
    key_type: SqlType
    position: int
    host: int | None
    cursor: int


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
        """Run one slice over up to ``max_rows`` row ids, then stop.

        Every dirty column the query drain barrier does not hold rides
        along; returns a report, empty when no dirty column remains.
        """
        report = MaterializerReport()
        with self.catalog.exclusive_latch(
            "materializer",
            blocking=self.latch_blocking,
            timeout=self.latch_timeout,
        ):
            self._fire("materializer.before_step", table=table_name)
            if max_rows > 0:
                self._slice(table_name, max_rows, report)
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
    def _slice(self, table_name: str, max_rows: int, report: MaterializerReport) -> None:
        """Walk rids from the lowest cursor of the slice's columns, apply
        each column whose cursor is at or below the rid, and commit the
        rewritten rows and the advanced cursors as one transaction."""
        table = self.db.table(table_name)
        # A column a query planned before its direction flip still reads is
        # left out: that plan cannot see the destination side of a move, so
        # moving its rows now would hide values from the scan.  The daemon
        # (or run_to_completion) takes it once the pre-flip queries drain.
        states = [
            state
            for state in self.pending(table_name)
            if self._ready(table_name, state) and not self._blocked_by_queries(state)
        ]
        if not states:
            return
        schema = table.schema
        data_position = schema.position_of(RESERVOIR_COLUMN)
        n_rids = self._max_rid(table)
        moves = [self._column_move(table_name, schema, state, n_rids) for state in states]
        start = min(move.cursor for move in moves)
        end = min(n_rids, start + max_rows)

        manager = self.db.txn_manager
        txn = None
        try:
            for rid in range(start, end):
                row = table.fetch(rid)
                if row is None:
                    continue
                image = row
                moved_keys = []
                for move in moves:
                    if move.cursor <= rid:
                        moved = self._move_value(image, move, data_position)
                        if moved is not None:
                            image = moved
                            moved_keys.append(move.key)
                if not moved_keys:
                    continue
                keys = tuple(moved_keys)
                self._fire("materializer.before_row_move", table=table_name, keys=keys, rid=rid)
                if txn is None:
                    txn = manager.begin()
                size = table.tuple_bytes(image)
                old = table.update(rid, image, size)
                txn.log_update(
                    table.name,
                    rid,
                    size,
                    undo=lambda rid=rid, old=old: table.update(rid, old),
                    payload=image,
                )
                report.rows_moved += len(keys)
                self._fire("materializer.after_row_move", table=table_name, keys=keys, rid=rid)
            if txn is not None:
                # The progress cursors ride in the slice's transaction, so a
                # recovered database resumes from exactly the slices whose
                # moves became durable.
                for move in moves:
                    if move.cursor < end:
                        self.db.log_catalog(
                            {
                                "op": "cursor",
                                "table": table.name,
                                "attr_id": move.state.attr_id,
                                "cursor": end,
                            },
                            txn=txn,
                        )
        except BaseException:
            if txn is not None:
                manager.finish(txn, commit=False)
            raise
        if txn is not None:
            manager.finish(txn)
        report.rows_examined += end - start

        for move in moves:
            move.state.cursor = max(move.cursor, end)
            if move.state.cursor >= n_rids:
                # Cursor reached the end under the latch: the column is clean.
                self._finish_column(table_name, move.state, move.key)
                report.columns_completed.append(move.key)

    @requires_latch("catalog")
    def _ready(self, table_name: str, state: ColumnState) -> bool:
        """Make sure a dirty column's physical side exists; False (after
        clearing the column) when a dematerialization already dropped it."""
        if state.materialized:
            self._ensure_physical_column(table_name, state)
        physical_name = state.physical_name
        if physical_name is not None and physical_name in self.db.table(table_name).schema:
            return True
        if state.materialized:
            key_name = self.catalog.attribute(state.attr_id).key_name
            raise CatalogError(
                f"column {key_name!r} marked materialized but has no physical column"
            )
        # Dematerialization finished earlier and column was dropped.
        state.physical_name = None
        state.cursor = 0
        state.dirty = False
        self.db.log_catalog(column_state_payload(table_name, state))
        return False

    def _column_move(
        self, table_name: str, schema: Schema, state: ColumnState, n_rids: int
    ) -> _ColumnMove:
        attribute = self.catalog.attribute(state.attr_id)
        host = self.catalog.host(table_name, attribute.key_name, schema)
        assert state.physical_name is not None
        return _ColumnMove(
            state=state,
            key=attribute.key_name,
            key_type=attribute.key_type,
            position=schema.position_of(state.physical_name),
            host=None if host is None else host.position,
            cursor=min(state.cursor, n_rids),
        )

    def _move_value(self, row: tuple, move: _ColumnMove, data_position: int) -> tuple | None:
        """The row image with one column's value moved to its correct
        side, or None when the row has nothing to move for it.

        A dotted key whose ancestor object is itself materialized (section
        4.2: a nested object stored as its own serialized column, at
        ``move.host``) may live in that ancestor's physical cell rather
        than the reservoir, so the move sources from -- and returns values
        to -- whichever side holds the parent document for this row.
        """
        host = move.host
        data = row[data_position]
        new_row = list(row)
        if move.state.materialized:
            taken = None if data is None else self._take(data, move)
            if taken is not None:
                value, new_row[data_position] = taken
            else:
                # not in the reservoir: the parent object may already have
                # moved to its own physical column for this row
                cell = row[host] if host is not None else None
                taken = None if cell is None else self._take(cell, move)
                if taken is None:
                    return None
                value, new_row[host] = taken
            new_row[move.position] = value
        else:
            value = row[move.position]
            if value is None:
                return None
            extractor, key, key_type = self.extractor, move.key, move.key_type
            cell = row[host] if host is not None else None
            if cell is not None:
                # the parent document lives in its physical column for this
                # row; returning the value there keeps the nesting intact
                new_row[host] = extractor.set_path(cell, key, key_type, value)
            else:
                if data is None:
                    data = serializer.serialize([])
                new_row[data_position] = extractor.set_path(data, key, key_type, value)
            new_row[move.position] = None
        return tuple(new_row)

    def _take(self, document: bytes, move: _ColumnMove) -> tuple[Any, bytes] | None:
        """``(value, document without it)`` when ``document`` holds the
        column's attribute, else None.  A top-level key is the column's
        own attr id in the document's header; a dotted one may sit in a
        nested document, which the extractor walks."""
        key, key_type = move.key, move.key_type
        if "." in key:
            value = self.extractor.extract_typed(document, key, key_type)
            if value is None:
                return None
            return value, self.extractor.remove_path(document, key, key_type)
        attr_id = move.state.attr_id
        value = serializer.extract(document, attr_id, key_type)
        if value is None:
            return None
        return value, serializer.remove_attribute(document, attr_id)

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
