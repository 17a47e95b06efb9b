"""Paged heap storage with a buffer pool and byte-accurate size accounting.

The heap is the substrate under every system in this reproduction (Sinew,
EAV, and Postgres-JSON all sit on it; the MongoDB baseline uses its own
collection store but shares the :class:`~repro.rdbms.cost.DiskBudget`).

Model
-----
* A table is a sequence of fixed-capacity **pages**; each page holds whole
  tuples (a tuple never spans pages).
* Tuple byte size = fixed tuple header + per-attribute NULL-tracking
  overhead (bitmap or per-attribute, see
  :class:`~repro.rdbms.types.NullStorageModel`) + the width of each
  non-NULL value.  This makes the sparse-data storage-bloat arithmetic of
  paper section 3.1.1 directly observable.
* Every page access goes through a **buffer pool** with LRU replacement.
  A miss increments ``pages_read`` on the shared cost counters; this is how
  the benchmark harness distinguishes the paper's in-memory (16M-record)
  regime from its I/O-bound (64M-record) regime at reduced scale.

Rows are plain Python tuples; ``None`` is SQL NULL.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence, Union

from ..latching import TrackedLock
from .cost import CostCounters, DiskBudget
from .errors import ExecutionError
from .expressions import Literal
from .types import (
    NUMBER,
    NUMERIC_TYPES,
    ORDERED_TYPES,
    TEXT,
    NullStorageModel,
    SqlType,
    TUPLE_HEADER_BYTES,
    bracket,
    null_overhead_bytes,
    value_size,
)

#: Default page capacity, matching PostgreSQL's 8 KiB heap pages.
DEFAULT_PAGE_BYTES = 8192


@dataclass(frozen=True)
class Column:
    """One attribute of a physical table schema."""

    name: str
    sql_type: SqlType

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} {self.sql_type}"


class Schema:
    """Ordered list of :class:`Column` with O(1) name lookup."""

    __slots__ = ("columns", "_index")

    def __init__(self, columns: Sequence[Column]):
        self.columns: tuple[Column, ...] = tuple(columns)
        self._index: dict[str, int] = {}
        for position, column in enumerate(self.columns):
            if column.name in self._index:
                raise ExecutionError(f"duplicate column name: {column.name!r}")
            self._index[column.name] = position

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def position_of(self, name: str) -> int:
        """Ordinal position of a column, raising if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise ExecutionError(f"no such column: {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.position_of(name)]

    def names(self) -> list[str]:
        return [column.name for column in self.columns]

    def with_column(self, column: Column) -> "Schema":
        """New schema with ``column`` appended."""
        return Schema(self.columns + (column,))

    def without_column(self, name: str) -> "Schema":
        """New schema with the named column removed."""
        keep = [c for c in self.columns if c.name != name]
        if len(keep) == len(self.columns):
            raise ExecutionError(f"no such column: {name!r}")
        return Schema(keep)


class Page:
    """One heap page: a list of tuple slots plus a byte-usage gauge.

    A slot is ``None`` after the tuple was deleted (dead tuple); the row id
    of a live tuple is stable for its lifetime.
    """

    __slots__ = ("slots", "used_bytes", "capacity_bytes")

    def __init__(self, capacity_bytes: int = DEFAULT_PAGE_BYTES):
        self.slots: list[tuple | None] = []
        self.used_bytes = 0
        self.capacity_bytes = capacity_bytes

    def has_room(self, tuple_bytes: int) -> bool:
        return self.used_bytes + tuple_bytes <= self.capacity_bytes

    def append(self, row: tuple, tuple_bytes: int) -> int:
        """Store ``row``; returns the slot number within the page."""
        self.slots.append(row)
        self.used_bytes += tuple_bytes
        return len(self.slots) - 1


class BufferPool:
    """LRU cache of ``(table_name, page_no)`` keys with miss accounting.

    The pool does not hold page *contents* (the heap keeps those in process
    memory regardless); it tracks *residency* so that scans over data sets
    larger than the pool register page reads on the shared counters, exactly
    like a real buffer manager would issue real I/O.
    """

    def __init__(self, capacity_pages: int, counters: CostCounters):
        if capacity_pages < 1:
            raise ExecutionError("buffer pool needs at least one page")
        self.capacity_pages = capacity_pages
        self.counters = counters
        self._resident: OrderedDict[tuple[str, int], None] = OrderedDict()
        # Service sessions query on several threads and share the pool; the
        # LRU check-then-move sequence is not atomic without this lock (a key
        # evicted between ``in`` and ``move_to_end`` would raise KeyError).
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._resident)

    def access(self, table_name: str, page_no: int) -> bool:
        """Touch a page; returns True on a hit, False on a miss (a 'read')."""
        key = (table_name, page_no)
        with self._lock:
            if key in self._resident:
                self._resident.move_to_end(key)
                self.counters.page_cache_hits += 1
                return True
            self.counters.pages_read += 1
            self._resident[key] = None
            if len(self._resident) > self.capacity_pages:
                self._resident.popitem(last=False)
            return False

    def mark_dirty_write(self, table_name: str, page_no: int) -> None:
        """Record that a page was (re)written."""
        key = (table_name, page_no)
        with self._lock:
            self.counters.pages_written += 1
            self._resident[key] = None
            self._resident.move_to_end(key)
            if len(self._resident) > self.capacity_pages:
                self._resident.popitem(last=False)

    def invalidate_table(self, table_name: str) -> None:
        """Drop every cached page of a table (DROP TABLE, TRUNCATE)."""
        with self._lock:
            stale = [key for key in self._resident if key[0] == table_name]
            for key in stale:
                del self._resident[key]


def index_key_test(sql_type: SqlType) -> Callable[[Any], bool] | None:
    """Which values an index on a column of ``sql_type`` holds -- and which
    literals may probe it: those of the column's own type bracket
    (:func:`~repro.rdbms.types.bracket`: numbers with numbers, text with
    text), the only ones a comparison with such a literal can be TRUE
    for, less NaN, which equals and orders against nothing.  None for a
    type without an ordering to index."""
    if sql_type not in ORDERED_TYPES:
        return None
    rank = NUMBER if sql_type in NUMERIC_TYPES else TEXT
    return lambda value: bracket(value) == rank and value == value


#: one bound of an index probe: ``(low, low_inclusive, high, high_inclusive)``,
#: ``None`` for an open side
KeyRange = tuple[Any, bool, Any, bool]

#: sorts after every row id, so ``(key, _LAST_RID)`` is past all of ``key``
_LAST_RID = float("inf")


@dataclass(frozen=True)
class IndexExpression:
    """What an expression index orders rows by: ``function(column, *args)``.

    ``function`` is a non-volatile scalar with a ``specializer`` hook and
    ``args`` are literals -- the calls the expression compiler hands the
    hook, so a build and every maintained write evaluate keys through the
    same batch kernel a scan's filter uses.  Sinew's
    ``extract_key_num(data, 'k')`` over the reservoir is the case this
    exists for.  Identity is the function object, the column and the args.
    """

    function: Any
    column: str
    args: tuple

    def key_function(self) -> Callable[[list], list]:
        family, tag = self.function.specializer
        request = [(tag, self.args)]
        return lambda values: family.bind(request).columns(values)[0]

    def __str__(self) -> str:
        args = "".join(f", {Literal(arg)}" for arg in self.args)
        return f"{self.function.name}({self.column}{args})"


@dataclass(frozen=True)
class ShapeTarget:
    """What a shape index groups rows by: ``group`` of ``column``'s
    values (a batch of values in, one hashable tuple or None per value
    out).  Sinew's reservoir is the case: the group is a document's
    attr-id run, its *shape*, and one index on ``data`` serves every
    top-level key (:meth:`~repro.core.extractors.ReservoirExtractor.shapes`).
    """

    group: Callable[[list], list]
    column: str

    def __str__(self) -> str:
        return f"shapes({self.column})"


@dataclass(frozen=True)
class UnionTarget:
    """The rows any of ``members`` -- columns or expressions over one, of
    one table -- lists for the same key ranges.  Nothing is built for the
    union itself: each member is an index of its own, and a probe reads
    them all under one hold of the index lock
    (:meth:`HeapTable.index_fetch`).  Sinew's COALESCE bridge over a
    dirty column is the case: ``COALESCE(num, extract_key_num(data,
    'num'))`` is in range only where its first non-NULL argument is, and
    that argument's index lists the row.
    """

    members: tuple

    def __str__(self) -> str:
        return " | ".join(str(member) for member in self.members)


#: what an index is on: a column name, an expression over one column, the
#: shapes of one column, or a union of the first two
IndexTarget = Union[str, IndexExpression, ShapeTarget, UnionTarget]


class ColumnIndex:
    """Ordered secondary index over one column: a sorted run of ``(key, rid)``.

    A row's key is its value at ``position`` -- or, for an expression
    index, ``function`` applied to a list of such values.  Keys
    :func:`index_key_test` rejects (NULLs, NaN, values of another type
    bracket; a plain table does not enforce its column types, an
    extraction returns NULL for an absent or mistyped key) are left out,
    because no index condition selects them.

    ``entries`` is None while the index is being built; writes made
    meanwhile are kept in ``pending`` as ``(rid, key)`` and folded in by
    the build.  Both are guarded by the table's index lock.
    """

    __slots__ = ("position", "holds", "function", "entries", "pending")

    def __init__(
        self,
        position: int,
        holds: Callable[[Any], bool],
        function: Callable[[list], list] | None = None,
    ):
        self.position = position
        self.holds = holds
        self.function = function
        self.entries: list[tuple[Any, int]] | None = None
        self.pending: list[tuple[int, Any]] = []

    def keys(self, values: list) -> list:
        """The key of each value, None where the index leaves it out.
        Evaluated outside the index lock: an extraction may consult the
        catalog, and that lock is a leaf."""
        if self.function is not None:
            values = self.function(values)
        holds = self.holds
        return [value if holds(value) else None for value in values]

    def fill(self, pairs: list[tuple[int, Any]]) -> None:
        """Finish a build from its ``(rid, key)`` pairs."""
        self.entries = sorted((key, rid) for rid, key in pairs if key is not None)

    @staticmethod
    def resolve(ranges: Sequence[KeyRange]) -> Sequence[KeyRange]:
        """What :meth:`rids` and :meth:`count` take for ``ranges``."""
        return ranges

    def write(self, rid: int, before: Any, after: Any) -> None:
        """Move row ``rid`` from key ``before`` to key ``after`` (either
        None: not listed)."""
        entries = self.entries
        if entries is None:
            self.pending.append((rid, after))
            return
        if before is not None:
            at = bisect_left(entries, (before, rid))
            if at == len(entries) or entries[at] != (before, rid):
                raise ExecutionError(f"index entry of row {rid} is missing")
            del entries[at]
        if after is not None:
            insort(entries, (after, rid))

    def _spans(self, ranges: Sequence[KeyRange]) -> Iterator[tuple[int, int]]:
        entries = self.entries
        for low, low_inclusive, high, high_inclusive in ranges:
            if low is None:
                start = 0
            elif low_inclusive:
                start = bisect_left(entries, (low,))
            else:
                start = bisect_right(entries, (low, _LAST_RID))
            if high is None:
                stop = len(entries)
            elif high_inclusive:
                stop = bisect_right(entries, (high, _LAST_RID))
            else:
                stop = bisect_left(entries, (high,))
            yield start, stop

    def count(self, ranges: Sequence[KeyRange]) -> int:
        """Entries inside ``ranges`` (an entry in two of them counts twice)."""
        return sum(max(0, stop - start) for start, stop in self._spans(ranges))

    def rids(self, ranges: Sequence[KeyRange]) -> list[int]:
        """Row ids with a key inside any of ``ranges``, in heap order."""
        entries = self.entries
        found: set[int] = set()
        for start, stop in self._spans(ranges):
            found.update(rid for _key, rid in entries[start:stop])
        return sorted(found)


class ShapeIndex:
    """Rows grouped by shape: each group (a tuple) maps to the sorted run
    of the rids in it, and each member of a group to the groups holding
    it, so the rows whose group holds any of a few members are the union
    of a few runs.

    A probe names a call (:class:`~repro.core.extractors.KeyShapes`),
    whose members -- the attr ids of its key -- :meth:`resolve` looks up
    outside the index lock, at probe time.  ``entries`` (group -> run) and
    ``pending`` follow :class:`ColumnIndex`: None and a list of writes
    while the index is being built, both guarded by the table's index
    lock.  Equal groups come back from :meth:`keys` as one tuple, so each
    shape is kept once, also while a build collects them.
    """

    __slots__ = ("position", "function", "entries", "pending", "known", "holding", "dead")

    def __init__(self, position: int, function: Callable[[list], list]):
        self.position = position
        self.function = function
        self.entries: dict[tuple, list[int]] | None = None
        self.pending: list[tuple[int, Any]] = []
        #: group -> the one tuple kept for it
        self.known: dict[tuple, tuple] = {}
        #: member -> the groups holding it, as lists (a set per member
        #: costs five times the memory); a group whose run emptied stays
        #: listed until more groups have emptied than are live
        self.holding: dict[Any, list[tuple]] = {}
        self.dead = 0

    def keys(self, values: list) -> list:
        """The group of each value (None for NULL), outside the lock."""
        known = self.known
        return [None if group is None else known.setdefault(group, group)
                for group in self.function(values)]

    def fill(self, pairs: list[tuple[int, Any]]) -> None:
        entries: dict[tuple, list[int]] = {}
        for rid, group in pairs:
            if group is not None:
                entries.setdefault(group, []).append(rid)
        for run in entries.values():
            run.sort()
        self.entries = entries
        self._list_members()

    def _list_members(self) -> None:
        holding: dict[Any, list[tuple]] = {}
        for group in self.entries or ():
            for member in group:
                holding.setdefault(member, []).append(group)
        self.holding, self.dead = holding, 0

    def write(self, rid: int, before: Any, after: Any) -> None:
        """Move row ``rid`` from group ``before`` to group ``after``."""
        entries = self.entries
        if entries is None:
            self.pending.append((rid, after))
            return
        if before == after:
            return
        if before is not None:
            run = entries.get(before, [])
            at = bisect_left(run, rid)
            if at == len(run) or run[at] != rid:
                raise ExecutionError(f"shape entry of row {rid} is missing")
            del run[at]
            if not run:
                del entries[before]
                self.known.pop(before, None)
                self.dead += 1
                if self.dead > len(entries):
                    self._list_members()
        if after is not None:
            run = entries.get(after)
            if run is None:
                entries[after] = [rid]
                for member in after:
                    self.holding.setdefault(member, []).append(after)
            else:
                insort(run, rid)

    @staticmethod
    def resolve(keys: Any) -> tuple:
        """The members a probe for the call ``keys`` asks for."""
        return keys.holders()

    def _groups(self, members: Sequence[Any]) -> set[tuple]:
        entries, holding = self.entries or {}, self.holding
        return {group for member in members for group in holding.get(member, ())
                if group in entries}

    def count(self, members: Sequence[Any]) -> int:
        """Rows whose group holds one of ``members``."""
        entries = self.entries or {}
        return sum(len(entries[group]) for group in self._groups(members))

    def rids(self, members: Sequence[Any]) -> list[int]:
        """Row ids whose group holds one of ``members``, in heap order."""
        entries = self.entries or {}
        return sorted(rid for group in self._groups(members) for rid in entries[group])


class HeapTable:
    """Append-mostly heap of tuples with stable row ids.

    Row id encoding: ``rid = page_no * slots_per_page_estimate`` is *not*
    used -- instead a flat ``(page_no, slot_no)`` pair is packed into a
    single integer via an internal directory, keeping ids stable across
    page-boundary irregularities.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        counters: CostCounters,
        buffer_pool: BufferPool,
        disk: DiskBudget,
        null_model: NullStorageModel = NullStorageModel.BITMAP,
        page_bytes: int = DEFAULT_PAGE_BYTES,
    ):
        self.name = name
        self.schema = schema
        self.counters = counters
        self.buffer_pool = buffer_pool
        self.disk = disk
        self.null_model = null_model
        self.page_bytes = page_bytes
        self.pages: list[Page] = []
        self._rid_directory: list[tuple[int, int]] = []  # rid -> (page, slot)
        self.live_rows = 0
        self.total_bytes = 0
        #: optional FaultInjector (duck-typed, see repro.testing.faults);
        #: fires "storage.write_row" *before* a row write mutates the page,
        #: so an injected crash never leaves a half-applied write.
        self.faults = None
        #: index target -> its ordered or shape index, built by the first
        #: probe of that target (:meth:`index_fetch`) and kept exact by
        #: every mutator below; a schema change or TRUNCATE drops them all.
        #: Replaced, never changed in place, so a writer can tell whether
        #: the set it computed keys for is still the live one.
        self._indexes: dict[IndexTarget, ColumnIndex | ShapeIndex] = {}
        #: a leaf: held over a row write together with its index entries,
        #: over the two ends of a build and over a probe, never while
        #: taking another latch (or evaluating a key)
        self._index_lock = TrackedLock("heap.index")
        #: one build at a time; held over a build's scan, never by a writer
        self._build_lock = TrackedLock("heap.index_build")

    # -- size accounting ----------------------------------------------------

    def tuple_bytes(self, row: tuple) -> int:
        """Modelled on-disk size of one row under this table's schema."""
        size = TUPLE_HEADER_BYTES + null_overhead_bytes(
            len(self.schema), self.null_model
        )
        for value, column in zip(row, self.schema.columns):
            if value is not None:
                size += value_size(value, column.sql_type)
        return size

    # -- mutation -----------------------------------------------------------

    def insert(self, row: tuple, size: int | None = None) -> int:
        """Append a row, returning its row id.  A caller that logs the
        write passes the row's :meth:`tuple_bytes` as ``size``, so it is
        computed once."""
        if self.faults is not None:
            self.faults.fire("storage.write_row", table=self.name, op="insert")
        if len(row) != len(self.schema):
            raise ExecutionError(
                f"row arity {len(row)} does not match schema arity "
                f"{len(self.schema)} of table {self.name!r}"
            )
        if size is None:
            size = self.tuple_bytes(row)
        if not self.pages or not self.pages[-1].has_room(size):
            self.pages.append(Page(self.page_bytes))
            self.disk.charge(self.page_bytes)
        page_no = len(self.pages) - 1

        def place() -> int:
            slot_no = self.pages[page_no].append(row, size)
            self._rid_directory.append((page_no, slot_no))
            return len(self._rid_directory) - 1

        rid = self._write(None, row, place)
        self.buffer_pool.mark_dirty_write(self.name, page_no)
        self.counters.tuples_written += 1
        self.live_rows += 1
        self.total_bytes += size
        return rid

    def update(self, rid: int, row: tuple, size: int | None = None) -> tuple:
        """Replace the row at ``rid`` in place; returns the old row.
        ``size`` is the new row's :meth:`tuple_bytes`, as for :meth:`insert`."""
        if self.faults is not None:
            self.faults.fire("storage.write_row", table=self.name, op="update")
        page_no, slot_no = self._locate(rid)
        page = self.pages[page_no]
        old = page.slots[slot_no]
        if old is None:
            raise ExecutionError(f"row {rid} of {self.name!r} is deleted")
        old_size = self.tuple_bytes(old)
        new_size = self.tuple_bytes(row) if size is None else size
        self._write(old, row, lambda: self._place(page, slot_no, row, rid))
        page.used_bytes += new_size - old_size
        self.total_bytes += new_size - old_size
        if new_size > old_size:
            self.disk.charge(new_size - old_size)
        self.buffer_pool.mark_dirty_write(self.name, page_no)
        self.counters.tuples_written += 1
        return old

    def delete(self, rid: int) -> tuple:
        """Mark the row at ``rid`` dead; returns the old row."""
        page_no, slot_no = self._locate(rid)
        page = self.pages[page_no]
        old = page.slots[slot_no]
        if old is None:
            raise ExecutionError(f"row {rid} of {self.name!r} is already deleted")
        self._write(old, None, lambda: self._place(page, slot_no, None, rid))
        size = self.tuple_bytes(old)
        page.used_bytes -= size
        self.total_bytes -= size
        self.live_rows -= 1
        self.buffer_pool.mark_dirty_write(self.name, page_no)
        return old

    def undo_delete(self, rid: int, row: tuple) -> None:
        """Transaction rollback helper: resurrect a deleted row."""
        page_no, slot_no = self._locate(rid)
        page = self.pages[page_no]
        if page.slots[slot_no] is not None:
            raise ExecutionError(f"row {rid} of {self.name!r} is not deleted")
        self._write(None, row, lambda: self._place(page, slot_no, row, rid))
        size = self.tuple_bytes(row)
        page.used_bytes += size
        self.total_bytes += size
        self.live_rows += 1

    @staticmethod
    def _place(page: Page, slot_no: int, row: tuple | None, rid: int) -> int:
        page.slots[slot_no] = row
        return rid

    def _write(
        self, old: tuple | None, row: tuple | None, place: Callable[[], int]
    ) -> int:
        """Run ``place`` (the slot write, which returns the row id) under
        the index lock together with the entry changes it makes.

        The keys are computed first, without the lock.  If an index
        appeared or went away meanwhile they are computed again, so a
        write racing a build still reaches the new index.  A column
        whose value object the write keeps keeps its key.
        """
        while True:
            indexes = self._indexes
            changes = []
            for index in indexes.values():
                position = index.position
                if old is not None and row is not None and old[position] is row[position]:
                    continue
                before = None if old is None else index.keys([old[position]])[0]
                after = None if row is None else index.keys([row[position]])[0]
                changes.append((index, before, after))
            with self._index_lock:
                if self._indexes is indexes:
                    rid = place()
                    for index, before, after in changes:
                        index.write(rid, before, after)
                    return rid

    def alloc_dead_slot(self) -> int:
        """Allocate a row id whose slot is born dead.

        Crash recovery uses this for WAL INSERT records of *uncommitted*
        transactions: their rows must not reappear, but the row ids they
        consumed must stay consumed so every later record's rid still
        points at the same physical slot.
        """
        if not self.pages:
            self.pages.append(Page(self.page_bytes))
            self.disk.charge(self.page_bytes)
        page_no = len(self.pages) - 1
        page = self.pages[page_no]
        page.slots.append(None)
        slot_no = len(page.slots) - 1
        self._rid_directory.append((page_no, slot_no))
        return len(self._rid_directory) - 1

    # -- checkpointing --------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Checkpoint image: schema + every slot in row-id order.

        Dead slots are kept as ``None`` so a restore reproduces the exact
        rid layout -- WAL records after the checkpoint address rows by rid.
        """
        rows: list[tuple | None] = []
        for page_no, slot_no in self._rid_directory:
            rows.append(self.pages[page_no].slots[slot_no])
        return {
            "columns": [(c.name, c.sql_type.value) for c in self.schema.columns],
            "null_model": self.null_model.value,
            "page_bytes": self.page_bytes,
            "rows": rows,
        }

    def restore_state(self, state: dict) -> None:
        """Refill a freshly created (empty) table from a checkpoint image."""
        for row in state["rows"]:
            if row is None:
                self.alloc_dead_slot()
            else:
                self.insert(tuple(row))

    # -- schema evolution ---------------------------------------------------

    def add_column(self, column: Column) -> None:
        """``ALTER TABLE ADD COLUMN``: widen every stored row with NULL.

        Cheap in PostgreSQL (NULL default adds only catalog metadata); here
        the rows are physically widened but the NULL values cost only the
        per-attribute presence overhead, which the size gauge re-reflects.
        The wider schema is published after the rows (:meth:`_publish`).
        """
        schema = self.schema.with_column(column)
        delta_per_row = null_overhead_bytes(
            len(schema), self.null_model
        ) - null_overhead_bytes(len(self.schema), self.null_model)
        with self._index_lock:
            self._indexes = {}
            for page in self.pages:
                for slot_no, row in enumerate(page.slots):
                    if row is not None:
                        page.slots[slot_no] = row + (None,)
                        page.used_bytes += delta_per_row
            self._publish(schema, "add_column")
        self.total_bytes += delta_per_row * self.live_rows

    def drop_column(self, name: str) -> None:
        """``ALTER TABLE DROP COLUMN``: physically narrow every row, then
        publish the narrower schema (:meth:`_publish`)."""
        position = self.schema.position_of(name)
        column = self.schema.columns[position]
        schema = self.schema.without_column(name)
        delta_header = null_overhead_bytes(
            len(self.schema), self.null_model
        ) - null_overhead_bytes(len(schema), self.null_model)
        with self._index_lock:
            self._indexes = {}
            for page in self.pages:
                for slot_no, row in enumerate(page.slots):
                    if row is None:
                        continue
                    value = row[position]
                    page.slots[slot_no] = row[:position] + row[position + 1 :]
                    freed = delta_header
                    if value is not None:
                        freed += value_size(value, column.sql_type)
                    page.used_bytes -= freed
                    self.total_bytes -= freed
            self._publish(schema, "drop_column")

    def _publish(self, schema: Schema, op: str) -> None:
        """Make ``schema`` the table's, after its rows were changed to fit
        it (index lock held).  Readers do not lock: a plan compiled before
        this line reads rows by the old schema's positions, which an ADD
        COLUMN keeps, and one compiled after it finds every row already
        in the new shape -- never a row shorter than its schema.
        ``storage.alter_table`` fires in between."""
        if self.faults is not None:
            self.faults.fire("storage.alter_table", table=self.name, op=op)
        self.schema = schema

    def truncate(self) -> None:
        """Drop every row and page, releasing the disk budget."""
        self.disk.release(len(self.pages) * self.page_bytes)
        self.buffer_pool.invalidate_table(self.name)
        with self._index_lock:
            self._indexes = {}
            self.pages.clear()
            self._rid_directory.clear()
        self.live_rows = 0
        self.total_bytes = 0

    # -- access -------------------------------------------------------------

    def _page_runs(
        self, start_rid: int, end_rid: int
    ) -> Iterator[tuple[int, list[tuple | None]]]:
        """``(first_rid, slots)`` per page visit of a rid range.

        Row ids are allocated in append order, so a page's slots are one
        contiguous run of them; ``slots`` is the part of that run inside
        the range, dead slots (``None``) included.  Each page is pulled
        through the buffer pool once per contiguous visit, so scanning a
        table larger than the pool registers reads on the cost counters.
        """
        directory = self._rid_directory
        end = min(end_rid, len(directory))
        rid = max(0, start_rid)
        while rid < end:
            page_no, slot_no = directory[rid]
            self.buffer_pool.access(self.name, page_no)
            slots = self.pages[page_no].slots
            stop = min(len(slots), slot_no + end - rid)
            yield rid, slots[slot_no:stop]
            rid += stop - slot_no

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, row)`` for every live row, page by page."""
        return self.scan_range(0, len(self._rid_directory))

    def scan_range(
        self,
        start_rid: int,
        end_rid: int,
        counters: CostCounters | None = None,
    ) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, row)`` for live rows with ``start_rid <= rid < end_rid``.

        Dead slots (deleted rows, recovery filler from
        :meth:`alloc_dead_slot`) are skipped.  Pass ``counters`` to charge
        tuple accounting to a private bundle instead of the shared one --
        page accounting always goes through the (locked) buffer pool.
        """
        counters = self.counters if counters is None else counters
        for rid, slots in self._page_runs(start_rid, end_rid):
            for row in slots:
                if row is not None:
                    counters.tuples_scanned += 1
                    yield rid, row
                rid += 1

    def scan_batches(
        self,
        start_rid: int,
        end_rid: int,
        counters: CostCounters | None = None,
    ) -> Iterator[list[tuple]]:
        """The batch pipeline's page walk: :meth:`scan_range` without the
        row ids, handed over as one list of live rows per page and charged to
        the tuple counter per page."""
        counters = self.counters if counters is None else counters
        for _rid, slots in self._page_runs(start_rid, end_rid):
            rows = [row for row in slots if row is not None]
            counters.tuples_scanned += len(rows)
            yield rows

    def fetch(self, rid: int) -> tuple | None:
        """Random access to one row (through the buffer pool)."""
        page_no, slot_no = self._locate(rid)
        self.buffer_pool.access(self.name, page_no)
        row = self.pages[page_no].slots[slot_no]
        if row is not None:
            self.counters.tuples_scanned += 1
        return row

    def index_fetch(self, target: IndexTarget, ranges: Any) -> Iterator[tuple[int, tuple]]:
        """Yield ``(rid, row)``, in heap order, for the live rows the index
        on ``target`` lists for ``ranges``: key ranges of an ordered
        index, the call a shape index is probed for.

        The first probe of a target builds its index with one scan; a
        union builds each member it lacks and reads every member's rows
        under one hold of the index lock, so a writer that moves a row
        from one member to another (the materializer moving a value out
        of the reservoir) is seen before or after, never half-way.  Rows
        are fetched after the lock is released, so beside a writer a row
        can have changed since it was listed: the caller evaluates its
        predicate on the row it gets, as it would on a scanned one.
        """
        members = target.members if isinstance(target, UnionTarget) else (target,)
        while True:
            indexes = [self._built(member) for member in members]
            probes = [index.resolve(ranges) for index in indexes]
            with self._index_lock:
                # a schema change in between dropped them: build again
                if all(self._indexes.get(m) is index for m, index in zip(members, indexes)):
                    self.counters.index_probes += 1
                    rids = indexes[0].rids(probes[0])
                    for index, probe in zip(indexes[1:], probes[1:]):
                        if self.faults is not None:
                            self.faults.fire("storage.index_probe", table=self.name)
                        rids = sorted({*rids, *index.rids(probe)})
                    break
        for rid in rids:
            row = self.fetch(rid)
            if row is not None:
                yield rid, row

    def _built(self, target: IndexTarget) -> ColumnIndex | ShapeIndex:
        """The index on ``target``, built first if it is not."""
        index = self._indexes.get(target)
        if index is None or index.entries is None:
            with self._build_lock:
                index = self._indexes.get(target) or self._build(target)
        return index

    def index_count(self, target: IndexTarget, ranges: Any) -> int | None:
        """How many rows the index on ``target`` lists for ``ranges`` (an
        entry in two ranges, or of two members of a union, counts twice);
        None while it, or a member, is not built."""
        members = target.members if isinstance(target, UnionTarget) else (target,)
        indexes = [self._indexes.get(member) for member in members]
        if any(index is None or index.entries is None for index in indexes):
            return None
        probes = [index.resolve(ranges) for index in indexes]
        with self._index_lock:
            if any(index.entries is None for index in indexes):
                return None
            return sum(index.count(probe) for index, probe in zip(indexes, probes))

    def _build(self, target: IndexTarget) -> ColumnIndex | ShapeIndex:
        """Build the index on ``target`` with one scan (build lock held).

        The index is registered first, so every write from then on is
        kept in its ``pending`` list; the scan evaluates keys page by page
        without the index lock, and the writes it may have missed or seen
        half of replace its keys for their rows at the end.
        """
        index: ColumnIndex | ShapeIndex
        if isinstance(target, ShapeTarget):
            position = self.schema.position_of(target.column)
            index = ShapeIndex(position, target.group)
        else:
            if isinstance(target, IndexExpression):
                column, sql_type = target.column, target.function.return_type
                function = target.key_function()
            else:
                column, function = target, None
                sql_type = self.schema.column(column).sql_type
            position = self.schema.position_of(column)
            holds = index_key_test(sql_type)
            if holds is None:
                raise ExecutionError(f"{target} on {self.name!r} has no ordering to index")
            index = ColumnIndex(position, holds, function)
        with self._index_lock:
            self._indexes = {**self._indexes, target: index}
            end = len(self._rid_directory)
        pairs: list[tuple[int, Any]] = []
        try:
            for rid, slots in self._page_runs(0, end):
                rids = [rid + offset for offset, row in enumerate(slots) if row is not None]
                self.counters.tuples_scanned += len(rids)
                values = [row[position] for row in slots if row is not None]
                pairs.extend(zip(rids, index.keys(values)))
        except BaseException:
            with self._index_lock:  # a key that raised: no half-built index
                self._indexes = {t: i for t, i in self._indexes.items() if i is not index}
            raise
        with self._index_lock:
            if index.pending:
                keys = dict(pairs)
                keys.update(index.pending)
                pairs = list(keys.items())
            index.fill(pairs)
            index.pending = []
            self.counters.index_builds += 1
        return index

    def _locate(self, rid: int) -> tuple[int, int]:
        if not 0 <= rid < len(self._rid_directory):
            raise ExecutionError(f"row id {rid} out of range for {self.name!r}")
        return self._rid_directory[rid]

    # -- reporting ----------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self.pages)

    @property
    def allocated_rids(self) -> int:
        """Total row ids ever allocated (live + dead); the scan horizon for
        incremental processes like Sinew's column materializer."""
        return len(self._rid_directory)

    def __len__(self) -> int:
        return self.live_rows
