"""Unit tests for WAL and transactions."""

import threading

import pytest

from repro.rdbms.cost import CostCounters
from repro.rdbms.errors import TransactionError
from repro.rdbms.transactions import (
    TransactionManager,
    TxnState,
    WalRecord,
    WalRecordType,
    WriteAheadLog,
    scan_wal,
)


def make_manager() -> tuple[TransactionManager, CostCounters]:
    counters = CostCounters()
    return TransactionManager(counters), counters


def make_durable_manager(directory) -> TransactionManager:
    """A manager over an on-disk log (fsync batched away), which keeps the
    records an in-memory log only counts."""
    counters = CostCounters()
    wal = WriteAheadLog(counters, directory, group_commit_every=1_000_000)
    wal.activate()
    return TransactionManager(counters, wal)


def logged(manager: TransactionManager) -> list[WalRecord]:
    return scan_wal(manager.wal.directory).records


class TestWal:
    def test_lsn_monotonic(self, tmp_path):
        manager = make_durable_manager(tmp_path)
        txn = manager.begin()
        txn.log_insert("t", 0, 10, undo=lambda: None)
        txn.log_insert("t", 1, 10, undo=lambda: None)
        manager.finish(txn)
        lsns = [record.lsn for record in logged(manager)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == len(lsns)

    def test_record_types_for_committed_txn(self, tmp_path):
        manager = make_durable_manager(tmp_path)
        txn = manager.begin()
        txn.log_update("t", 3, 20, undo=lambda: None)
        manager.finish(txn)
        types = [
            record.record_type for record in logged(manager) if record.txn_id == txn.txn_id
        ]
        assert types == [
            WalRecordType.BEGIN,
            WalRecordType.UPDATE,
            WalRecordType.COMMIT,
        ]

    def test_wal_counters(self):
        manager, counters = make_manager()
        txn = manager.begin()
        txn.log_insert("t", 0, 100, undo=lambda: None)
        manager.finish(txn)
        assert counters.wal_records == 3  # BEGIN, INSERT, COMMIT
        assert counters.wal_bytes > 100


class TestTransactionLifecycle:
    def test_abort_runs_undo_in_reverse(self):
        manager, _counters = make_manager()
        order: list[int] = []
        txn = manager.begin()
        txn.log_insert("t", 0, 1, undo=lambda: order.append(0))
        txn.log_insert("t", 1, 1, undo=lambda: order.append(1))
        txn.log_insert("t", 2, 1, undo=lambda: order.append(2))
        manager.finish(txn, commit=False)
        assert order == [2, 1, 0]
        assert txn.state is TxnState.ABORTED

    def test_commit_discards_undo(self):
        manager, _counters = make_manager()
        called = []
        txn = manager.begin()
        txn.log_delete("t", 0, 1, undo=lambda: called.append(1))
        manager.finish(txn, commit=True)
        assert called == []
        assert txn.state is TxnState.COMMITTED

    def test_double_commit_rejected(self):
        manager, _counters = make_manager()
        txn = manager.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.commit()

    def test_log_after_commit_rejected(self):
        manager, _counters = make_manager()
        txn = manager.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.log_insert("t", 0, 1, undo=lambda: None)


class TestAutocommit:
    def test_commits_on_clean_exit(self):
        manager, _counters = make_manager()
        with manager.autocommit() as txn:
            txn.log_insert("t", 0, 1, undo=lambda: None)
        assert txn.state is TxnState.COMMITTED
        assert not manager.active

    def test_rolls_back_on_exception(self):
        manager, _counters = make_manager()
        undone = []
        with pytest.raises(ValueError):
            with manager.autocommit() as txn:
                txn.log_insert("t", 0, 1, undo=lambda: undone.append(1))
                raise ValueError("boom")
        assert undone == [1]
        assert txn.state is TxnState.ABORTED


class TestTransactionManagerThreadSafety:
    def test_concurrent_begin_finish_allocates_unique_ids(self, tmp_path):
        # regression: next_txn_id was an unsynchronized read-modify-write
        # and `active` was mutated without a lock; the service layer calls
        # begin() from worker threads concurrently with the materializer
        # daemon's autocommit, and a duplicated txn_id corrupts recovery
        # replay
        manager = make_durable_manager(tmp_path)
        n_threads, per_thread = 8, 200
        barrier = threading.Barrier(n_threads)
        ids: list[int] = []
        ids_lock = threading.Lock()
        errors: list[BaseException] = []

        def worker() -> None:
            barrier.wait()
            try:
                for _ in range(per_thread):
                    txn = manager.begin()
                    with ids_lock:
                        ids.append(txn.txn_id)
                    manager.finish(txn, commit=True)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert len(ids) == n_threads * per_thread
        assert len(set(ids)) == len(ids)
        assert not manager.active
        # WAL BEGIN frames match the handed-out ids one-to-one
        begin_ids = [
            record.txn_id
            for record in logged(manager)
            if record.record_type is WalRecordType.BEGIN
        ]
        assert sorted(begin_ids) == sorted(ids)
