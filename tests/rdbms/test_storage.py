"""Unit tests for heap storage, pages, and the buffer pool."""

import pytest

from repro.rdbms.cost import CostCounters, DiskBudget
from repro.rdbms.errors import DiskFullError, ExecutionError
from repro.rdbms.storage import BufferPool, Column, HeapTable, Schema
from repro.rdbms.types import NullStorageModel, SqlType


def make_table(
    columns=None,
    buffer_pages: int = 128,
    disk_budget: int | None = None,
    page_bytes: int = 8192,
) -> HeapTable:
    columns = columns or [Column("a", SqlType.INTEGER), Column("b", SqlType.TEXT)]
    counters = CostCounters()
    return HeapTable(
        "t",
        Schema(columns),
        counters,
        BufferPool(buffer_pages, counters),
        DiskBudget(disk_budget),
        page_bytes=page_bytes,
    )


class TestSchema:
    def test_position_and_lookup(self):
        schema = Schema([Column("x", SqlType.INTEGER), Column("y", SqlType.TEXT)])
        assert schema.position_of("y") == 1
        assert "x" in schema
        assert schema.names() == ["x", "y"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(ExecutionError):
            Schema([Column("x", SqlType.INTEGER), Column("x", SqlType.TEXT)])

    def test_missing_column_raises(self):
        schema = Schema([Column("x", SqlType.INTEGER)])
        with pytest.raises(ExecutionError):
            schema.position_of("nope")

    def test_with_and_without_column(self):
        schema = Schema([Column("x", SqlType.INTEGER)])
        widened = schema.with_column(Column("y", SqlType.TEXT))
        assert widened.names() == ["x", "y"]
        narrowed = widened.without_column("x")
        assert narrowed.names() == ["y"]
        with pytest.raises(ExecutionError):
            widened.without_column("zzz")


class TestHeapBasics:
    def test_insert_and_scan(self):
        table = make_table()
        rids = [table.insert((i, f"v{i}")) for i in range(10)]
        assert rids == list(range(10))
        assert [(rid, row) for rid, row in table.scan()] == [
            (i, (i, f"v{i}")) for i in range(10)
        ]
        assert len(table) == 10

    def test_arity_mismatch_rejected(self):
        table = make_table()
        with pytest.raises(ExecutionError):
            table.insert((1,))

    def test_update_preserves_rid(self):
        table = make_table()
        rid = table.insert((1, "old"))
        old = table.update(rid, (1, "new"))
        assert old == (1, "old")
        assert table.fetch(rid) == (1, "new")

    def test_delete_and_undo_delete(self):
        table = make_table()
        rid = table.insert((1, "x"))
        old = table.delete(rid)
        assert old == (1, "x")
        assert len(table) == 0
        with pytest.raises(ExecutionError):
            table.delete(rid)
        table.undo_delete(rid, old)
        assert table.fetch(rid) == (1, "x")
        assert len(table) == 1

    def test_scan_skips_dead_rows(self):
        table = make_table()
        for i in range(5):
            table.insert((i, "v"))
        table.delete(2)
        assert [rid for rid, _row in table.scan()] == [0, 1, 3, 4]

    def test_fetch_out_of_range(self):
        table = make_table()
        with pytest.raises(ExecutionError):
            table.fetch(0)

    def test_truncate_resets_everything(self):
        table = make_table()
        for i in range(100):
            table.insert((i, "x" * 50))
        table.truncate()
        assert len(table) == 0
        assert table.total_bytes == 0
        assert table.n_pages == 0
        assert list(table.scan()) == []


class TestSizeAccounting:
    def test_total_bytes_tracks_mutations(self):
        table = make_table()
        table.insert((1, "abcdef"))
        initial = table.total_bytes
        assert initial > 0
        table.update(0, (1, "abcdefabcdef"))
        assert table.total_bytes == initial + 6
        table.delete(0)
        assert table.total_bytes == 0

    def test_null_values_cost_only_bitmap(self):
        table = make_table()
        table.insert((None, None))
        table.insert((1, "abc"))
        null_row = table.tuple_bytes((None, None))
        full_row = table.tuple_bytes((1, "abc"))
        assert full_row == null_row + 8 + (4 + 3)

    def test_per_attribute_model_charges_more(self):
        columns = [Column(f"c{i}", SqlType.INTEGER) for i in range(150)]
        counters = CostCounters()
        bitmap = HeapTable(
            "a", Schema(columns), counters, BufferPool(8, counters), DiskBudget(),
            null_model=NullStorageModel.BITMAP,
        )
        innodb = HeapTable(
            "b", Schema(columns), counters, BufferPool(8, counters), DiskBudget(),
            null_model=NullStorageModel.PER_ATTRIBUTE,
        )
        row = tuple([None] * 150)
        # 300 bytes of per-attribute header vs a 19-byte bitmap
        assert innodb.tuple_bytes(row) - bitmap.tuple_bytes(row) == 300 - 19

    def test_pages_allocated_by_size(self):
        table = make_table(page_bytes=1024)
        for i in range(100):
            table.insert((i, "x" * 100))
        assert table.n_pages > 5


class TestSchemaEvolution:
    def test_add_column_widens_rows(self):
        table = make_table()
        table.insert((1, "x"))
        table.add_column(Column("c", SqlType.REAL))
        assert table.fetch(0) == (1, "x", None)
        table.update(0, (1, "x", 2.5))
        assert table.fetch(0)[2] == 2.5

    def test_drop_column_narrows_rows_and_frees_bytes(self):
        table = make_table()
        table.insert((1, "hello"))
        before = table.total_bytes
        table.drop_column("b")
        assert table.fetch(0) == (1,)
        assert table.total_bytes < before


class TestBufferPool:
    def test_miss_then_hit(self):
        counters = CostCounters()
        pool = BufferPool(4, counters)
        assert pool.access("t", 0) is False
        assert counters.pages_read == 1
        assert pool.access("t", 0) is True
        assert counters.page_cache_hits == 1

    def test_lru_eviction(self):
        counters = CostCounters()
        pool = BufferPool(2, counters)
        pool.access("t", 0)
        pool.access("t", 1)
        pool.access("t", 2)  # evicts page 0
        assert pool.access("t", 0) is False  # miss again

    def test_scan_larger_than_pool_registers_reads(self):
        table = make_table(buffer_pages=2, page_bytes=512)
        for i in range(200):
            table.insert((i, "x" * 40))
        assert table.n_pages > 4
        table.counters.reset()
        list(table.scan())
        first_scan_reads = table.counters.pages_read
        assert first_scan_reads >= table.n_pages - 2
        list(table.scan())
        # the pool is too small: the second scan misses again
        assert table.counters.pages_read >= 2 * first_scan_reads - 2

    def test_small_table_stays_resident(self):
        table = make_table(buffer_pages=64)
        for i in range(20):
            table.insert((i, "v"))
        table.counters.reset()
        list(table.scan())
        list(table.scan())
        assert table.counters.pages_read <= 1


class TestRangeScans:
    """``scan_range`` (rows with rids) and ``scan_batches`` (one list of
    live rows per page) walk the same pages and charge the same counters."""

    def table_with_holes(self) -> HeapTable:
        table = make_table(page_bytes=256)
        for i in range(60):
            table.insert((i, "v" * 10))
        assert table.n_pages > 5
        for rid in (0, 7, 8, 9, 31, 59):
            table.delete(rid)
        # recovery filler: a rid whose slot was born dead
        table.alloc_dead_slot()
        table.insert((60, "tail"))
        return table

    @pytest.mark.parametrize(
        "bounds", [(0, 10**6), (0, 0), (5, 6), (7, 10), (3, 33), (30, 62), (-4, 12), (61, 62)]
    )
    def test_same_rows_pages_and_tuple_counts(self, bounds):
        table = self.table_with_holes()
        start, end = bounds
        table.counters.reset()
        private = CostCounters()
        by_row = list(table.scan_range(start, end, private))
        hits_by_row = table.counters.page_cache_hits + table.counters.pages_read

        table.counters.reset()
        batched = CostCounters()
        pages = list(table.scan_batches(start, end, batched))
        hits_batched = table.counters.page_cache_hits + table.counters.pages_read

        rows = [row for page in pages for row in page]
        assert rows == [row for _rid, row in by_row]
        assert all(row is not None for row in rows)
        assert batched.tuples_scanned == private.tuples_scanned == len(rows)
        assert hits_batched == hits_by_row == len(pages)
        # private counters were charged, not the table's shared bundle
        assert table.counters.tuples_scanned == 0
        low, high = max(0, start), min(end, 62)
        dead = {0, 7, 8, 9, 31, 59, 60}
        assert [rid for rid, _row in by_row] == [
            rid for rid in range(low, high) if rid not in dead
        ]
        assert rows == [table.fetch(rid) for rid, _row in by_row]

    def test_empty_table_has_no_batches(self):
        table = make_table()
        assert list(table.scan_batches(0, 10)) == []
        assert list(table.scan_range(0, 10)) == list(table.scan()) == []
        assert table.counters.tuples_scanned == 0
        assert table.counters.page_cache_hits + table.counters.pages_read == 0

    def test_full_scan_is_the_whole_range(self):
        table = self.table_with_holes()
        assert list(table.scan()) == list(table.scan_range(0, table.allocated_rids))
        assert table.counters.tuples_scanned == 2 * len(table)


class TestDiskBudget:
    def test_budget_exhaustion_raises(self):
        table = make_table(disk_budget=3 * 8192)
        with pytest.raises(DiskFullError):
            for i in range(10000):
                table.insert((i, "x" * 100))

    def test_release_on_truncate(self):
        table = make_table(disk_budget=1 << 20)
        for i in range(100):
            table.insert((i, "x" * 100))
        used = table.disk.used_bytes
        assert used > 0
        table.truncate()
        assert table.disk.used_bytes == 0
