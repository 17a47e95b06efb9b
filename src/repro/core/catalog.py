"""Sinew's catalog (paper section 3.1.2).

The catalog has two parts, exactly as in Figure 4:

* a **global attribute dictionary** mapping ``(key_name, key_type)`` pairs
  -- *attributes* -- to compact integer ids.  The ids are what the
  serialization format stores, so the dictionary doubles as the
  dictionary-encoding of key names that makes Sinew's representation the
  most compact in Table 3;
* a **per-table catalog** recording, for every attribute seen in a table:
  its occurrence count, whether it is stored as a physical column or
  virtually in the column reservoir, and the ``dirty`` flag that marks
  partially-materialized columns.

The catalog also owns the loader/materializer **latch** ("the materializer
and loader are not allowed to run concurrently, which we implement via a
latch in the catalog" -- section 3.1.4).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from ..latching import TrackedLock, latch_tracker, requires_latch
from ..rdbms.errors import CatalogError, ConcurrencyError
from ..rdbms.types import SqlType

#: Default bound on how long a blocking latch acquisition may wait before
#: giving up with a clear :class:`ConcurrencyError` (seconds).
DEFAULT_LATCH_TIMEOUT = 10.0


@dataclass
class LatchStats:
    """Accounting for the loader/materializer latch (``\\daemon`` surface)."""

    acquisitions: int = 0
    #: acquisitions that found the latch held and had to block
    waits: int = 0
    wait_seconds: float = 0.0
    #: blocking acquisitions that gave up after their timeout
    timeouts: int = 0
    #: non-blocking acquisitions that failed immediately
    contentions: int = 0


@dataclass(frozen=True)
class Attribute:
    """One entry of the global dictionary: an id for a (key, type) pair."""

    attr_id: int
    key_name: str
    key_type: SqlType


@dataclass
class ColumnState:
    """Per-table bookkeeping for one attribute (Figure 4b)."""

    attr_id: int
    count: int = 0
    materialized: bool = False
    dirty: bool = False
    #: physical column name once materialized (usually the key name; may be
    #: suffixed on a name/type collision).
    physical_name: str | None = None
    #: materializer progress cursor: next rid to examine while this column
    #: is dirty.  Lives in the catalog (not the materializer) so a crashed
    #: materialization resumes mid-column on restart (section 3.1.4's
    #: interruptible background process).
    cursor: int = 0
    #: queries that referenced this attribute since the last analyzer pass
    #: (the "query patterns" input of section 3.1.3; the rewriter maintains
    #: it, the analyzer consumes and resets it).
    access_count: int = 0
    #: schema epoch at this column's most recent direction flip.  The
    #: materializer refuses to move rows while any in-flight query was
    #: planned before this epoch: such a plan predates the COALESCE bridge
    #: (or still reads the physical side bare after a dematerialize flip),
    #: so a move could hide values from it mid-scan.  Runtime-only -- not
    #: logged; recovery restarts with no in-flight queries.
    flip_epoch: int = 0

    def density(self, n_documents: int) -> float:
        """Fraction of the table's documents containing this attribute."""
        if n_documents <= 0:
            return 0.0
        return self.count / n_documents


def column_state_payload(table_name: str, state: "ColumnState") -> dict:
    """WAL CATALOG payload capturing one column's full state.

    Logged by everything that flips materialization flags (the analyzer,
    ``SinewDB.materialize``/``dematerialize``, the materializer's
    finish path) so recovery replays the flips in log order.
    """
    return {
        "op": "state",
        "table": table_name,
        "attr_id": state.attr_id,
        "count": state.count,
        "materialized": state.materialized,
        "dirty": state.dirty,
        "physical_name": state.physical_name,
        "cursor": state.cursor,
    }


@dataclass
class TableCatalog:
    """All catalog state for one Sinew table."""

    table_name: str
    n_documents: int = 0
    columns: dict[int, ColumnState] = field(default_factory=dict)

    def state(self, attr_id: int) -> ColumnState:
        if attr_id not in self.columns:
            self.columns[attr_id] = ColumnState(attr_id)
        return self.columns[attr_id]

    def dirty_columns(self) -> list[ColumnState]:
        return [state for state in self.columns.values() if state.dirty]

    def materialized_columns(self) -> list[ColumnState]:
        return [state for state in self.columns.values() if state.materialized]


class SinewCatalog:
    """Global dictionary + per-table catalogs + the loader latch."""

    def __init__(self):
        self._attributes: dict[tuple[str, SqlType], Attribute] = {}
        self._by_id: dict[int, Attribute] = {}
        self._by_name: dict[str, list[Attribute]] = {}
        self._next_id = 1
        self.tables: dict[str, TableCatalog] = {}
        self._latch = threading.Lock()
        self.latch_stats = LatchStats()
        #: owner label while the latch is held (status/debugging surface)
        self.latch_owner: str | None = None
        #: bumped on every materialization direction flip; queries register
        #: the epoch they were planned under (see :meth:`query_scope`)
        self.schema_epoch = 0
        #: bumped on anything that can change a *rewritten* query without
        #: being a direction flip: loads (new attributes / occurrence
        #: counts), logical UPDATE/DELETE, collection DDL, and the
        #: materializer's finish path (which may drop a physical column).
        #: Cached plans validate against :meth:`plan_token`, which folds
        #: both epochs together.
        self.data_epoch = 0
        self._active_queries: dict[int, int] = {}
        self._active_lock = TrackedLock("catalog.active")
        self._next_query_token = 0

    # ------------------------------------------------------------------
    # global attribute dictionary
    # ------------------------------------------------------------------

    def attribute_id(self, key_name: str, key_type: SqlType) -> int:
        """Get-or-create the id of an attribute.

        This is the loader's hot path: "the cost of adding a new attribute
        to the schema is just the cost to insert the new attribute into the
        catalog during serialization the first time it appears".
        """
        key = (key_name, key_type)
        attribute = self._attributes.get(key)
        if attribute is None:
            attribute = Attribute(self._next_id, key_name, key_type)
            self._next_id += 1
            self._attributes[key] = attribute
            self._by_id[attribute.attr_id] = attribute
            self._by_name.setdefault(key_name, []).append(attribute)
        return attribute.attr_id

    def ensure_attribute(self, attr_id: int, key_name: str, key_type: SqlType) -> None:
        """Install an attribute under a *forced* id (WAL/checkpoint replay).

        Serialized documents store attribute ids, so recovery must rebuild
        the dictionary with the exact ids the log recorded -- a drifted id
        would silently rebind every stored key.  Raises on a conflicting
        existing binding.
        """
        existing = self._by_id.get(attr_id)
        if existing is not None:
            if (existing.key_name, existing.key_type) != (key_name, key_type):
                raise CatalogError(
                    f"attribute id {attr_id} is already bound to "
                    f"{existing.key_name!r} ({existing.key_type}), cannot "
                    f"rebind to {key_name!r} ({key_type})"
                )
            return
        attribute = Attribute(attr_id, key_name, key_type)
        self._attributes[(key_name, key_type)] = attribute
        self._by_id[attr_id] = attribute
        self._by_name.setdefault(key_name, []).append(attribute)
        if attr_id >= self._next_id:
            self._next_id = attr_id + 1

    def lookup_id(self, key_name: str, key_type: SqlType) -> int | None:
        """Id of an existing attribute, or None (read-only lookup)."""
        attribute = self._attributes.get((key_name, key_type))
        return attribute.attr_id if attribute else None

    def attribute(self, attr_id: int) -> Attribute:
        if attr_id not in self._by_id:
            raise CatalogError(f"unknown attribute id: {attr_id}")
        return self._by_id[attr_id]

    def type_of(self, attr_id: int) -> SqlType:
        return self.attribute(attr_id).key_type

    def attributes_named(self, key_name: str) -> list[Attribute]:
        """Every attribute sharing a key name (multi-typed keys)."""
        return list(self._by_name.get(key_name, ()))

    def all_attributes(self) -> Iterator[Attribute]:
        return iter(self._by_id.values())

    def __len__(self) -> int:
        return len(self._by_id)

    # ------------------------------------------------------------------
    # per-table catalogs
    # ------------------------------------------------------------------

    def table(self, table_name: str) -> TableCatalog:
        if table_name not in self.tables:
            self.tables[table_name] = TableCatalog(table_name)
        return self.tables[table_name]

    def record_occurrence(self, table_name: str, attr_id: int, count: int = 1) -> None:
        self.table(table_name).state(attr_id).count += count

    def logical_columns(self, table_name: str) -> list[tuple[str, SqlType, str]]:
        """The universal-relation view of a table.

        Returns ``(key_name, type, storage)`` triples where storage is
        ``physical``, ``dirty`` or ``virtual`` -- what the user sees when
        inspecting the evolving logical schema.
        """
        table = self.table(table_name)
        out: list[tuple[str, SqlType, str]] = []
        for attr_id, state in sorted(table.columns.items()):
            attribute = self.attribute(attr_id)
            if state.materialized and not state.dirty:
                storage = "physical"
            elif state.dirty:
                storage = "dirty"
            else:
                storage = "virtual"
            out.append((attribute.key_name, attribute.key_type, storage))
        return out

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Checkpoint image of the dictionary + every per-table catalog."""
        return {
            "attributes": [
                (a.attr_id, a.key_name, a.key_type.value)
                for a in self._by_id.values()
            ],
            "next_id": self._next_id,
            "tables": {
                name: {
                    "n_documents": table.n_documents,
                    "columns": [
                        (
                            s.attr_id,
                            s.count,
                            s.materialized,
                            s.dirty,
                            s.physical_name,
                            s.cursor,
                            s.access_count,
                        )
                        for s in table.columns.values()
                    ],
                }
                for name, table in self.tables.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild a fresh catalog from a checkpoint image."""
        for attr_id, key_name, type_value in state["attributes"]:
            self.ensure_attribute(attr_id, key_name, SqlType(type_value))
        self._next_id = max(self._next_id, state["next_id"])
        for name, table_state in state["tables"].items():
            table = self.table(name)
            table.n_documents = table_state["n_documents"]
            for (
                attr_id,
                count,
                materialized,
                dirty,
                physical_name,
                cursor,
                access_count,
            ) in table_state["columns"]:
                table.columns[attr_id] = ColumnState(
                    attr_id,
                    count=count,
                    materialized=materialized,
                    dirty=dirty,
                    physical_name=physical_name,
                    cursor=cursor,
                    access_count=access_count,
                )

    # ------------------------------------------------------------------
    # loader / materializer latch
    # ------------------------------------------------------------------

    @contextmanager
    def exclusive_latch(
        self,
        owner: str,
        *,
        blocking: bool = True,
        timeout: float = DEFAULT_LATCH_TIMEOUT,
    ):
        """Mutual exclusion between the loader and the materializer.

        By default acquisition **waits** (bounded by ``timeout`` seconds)
        when the other of loader/materializer holds the latch -- the paper's
        concurrent-but-mutually-exclusive protocol.  ``blocking=False``
        keeps the old fail-fast mode (raise immediately on contention),
        which tests use to assert the exclusion itself.

        Raises :class:`ConcurrencyError` on contention (non-blocking) or on
        timeout (blocking); the latch is *always* released on exception
        unwind inside the body, so a crash while holding it can never wedge
        the system.
        """
        tracker = latch_tracker()
        if tracker is not None:
            # Report intent before the attempt so ordering is validated
            # even when the fast path succeeds without contention.
            tracker.before_acquire("catalog", blocking=blocking)
        acquired = self._latch.acquire(blocking=False)
        if not acquired:
            if not blocking:
                self.latch_stats.contentions += 1
                raise ConcurrencyError(
                    f"catalog latch is held by {self.latch_owner or 'unknown'}; "
                    f"{owner} must wait for the other of loader/materializer "
                    "to finish"
                )
            self.latch_stats.waits += 1
            started = time.monotonic()
            acquired = self._latch.acquire(timeout=timeout)
            self.latch_stats.wait_seconds += time.monotonic() - started
            if not acquired:
                self.latch_stats.timeouts += 1
                raise ConcurrencyError(
                    f"{owner} timed out after {timeout:.3f}s waiting for the "
                    f"catalog latch (held by {self.latch_owner or 'unknown'})"
                )
        try:
            self.latch_stats.acquisitions += 1
            self.latch_owner = owner
            if tracker is not None:
                tracker.after_acquire("catalog")
            yield
        finally:
            self.latch_owner = None
            self._latch.release()
            if tracker is not None:
                tracker.released("catalog")

    @requires_latch("catalog")
    def stamp_flip(self, state: ColumnState) -> None:
        """Reset a column's migration cursor and stamp its flip epoch.

        The shared first half of every materialization direction flip:
        the caller holds the exclusive latch, calls this, then writes the
        flags (``dirty`` before ``materialized`` -- rule SNW402) and logs
        the catalog record.
        """
        state.cursor = 0
        state.flip_epoch = self.bump_schema_epoch()

    # ------------------------------------------------------------------
    # schema epochs (query-vs-materializer drain barrier)
    # ------------------------------------------------------------------

    def bump_schema_epoch(self) -> int:
        """Record a materialization direction flip; returns the new epoch.

        Callers flip the catalog flags under :meth:`exclusive_latch` and
        stamp the column's :attr:`ColumnState.flip_epoch` with the result.
        """
        with self._active_lock:
            self.schema_epoch += 1
            return self.schema_epoch

    def bump_data_epoch(self) -> int:
        """Record a non-flip catalog change that can stale cached plans."""
        with self._active_lock:
            self.data_epoch += 1
            return self.data_epoch

    def plan_token(self) -> tuple[int, int]:
        """The plan-cache validity token: ``(schema_epoch, data_epoch)``.

        A cached rewritten plan is valid exactly while this token matches
        the one stamped at prepare time: the rewrite bakes in the catalog
        flags (bare read / COALESCE bridge / pure extraction), the
        attribute dictionary, and the occurrence counts the analyzer used
        for provably-NULL pruning -- any of those moving must force a
        re-prepare (DESIGN.md section 12).
        """
        with self._active_lock:
            return (self.schema_epoch, self.data_epoch)

    @contextmanager
    def query_scope(self):
        """Register an in-flight query at its plan-time schema epoch.

        A query's rewritten plan bakes in the catalog flags it observed
        (bare physical read, COALESCE bridge, or pure extraction).  The
        materializer consults :meth:`oldest_active_epoch` and defers row
        moves for any column whose direction flipped *after* some active
        query was planned -- that query's plan cannot see the destination
        side, so moving a value mid-scan would make it vanish.
        """
        with self._active_lock:
            token = self._next_query_token
            self._next_query_token += 1
            self._active_queries[token] = self.schema_epoch
        try:
            yield
        finally:
            with self._active_lock:
                self._active_queries.pop(token, None)

    def oldest_active_epoch(self) -> int | None:
        """Epoch of the oldest in-flight query, or None when idle."""
        with self._active_lock:
            return min(self._active_queries.values(), default=None)

    # ------------------------------------------------------------------
    # reflection into the RDBMS (introspection tables)
    # ------------------------------------------------------------------

    def sync_to_rdbms(self, db) -> None:
        """Materialise the catalog as ordinary relations, as Figure 4 shows.

        Creates/refreshes ``_sinew_attributes`` (the global dictionary) and
        one ``_sinew_catalog_<table>`` relation per Sinew table so users can
        inspect the catalog with plain SQL.
        """
        from ..rdbms.types import SqlType as T

        if db.has_table("_sinew_attributes"):
            db.truncate_table("_sinew_attributes")
        else:
            db.create_table(
                "_sinew_attributes",
                [("_id", T.INTEGER), ("key_name", T.TEXT), ("key_type", T.TEXT)],
            )
        db.insert_rows(
            "_sinew_attributes",
            [
                (a.attr_id, a.key_name, a.key_type.value)
                for a in self.all_attributes()
            ],
        )
        for table_name, table in self.tables.items():
            reflected = f"_sinew_catalog_{table_name}"
            if db.has_table(reflected):
                db.truncate_table(reflected)
            else:
                db.create_table(
                    reflected,
                    [
                        ("_id", T.INTEGER),
                        ("count", T.INTEGER),
                        ("materialized", T.BOOLEAN),
                        ("dirty", T.BOOLEAN),
                        ("cursor", T.INTEGER),
                    ],
                )
            db.insert_rows(
                reflected,
                [
                    (
                        state.attr_id,
                        state.count,
                        state.materialized,
                        state.dirty,
                        state.cursor,
                    )
                    for state in table.columns.values()
                ],
            )
