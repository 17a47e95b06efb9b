"""Write-ahead logging, transactions, and on-disk durability.

The update experiment (paper Figure 8) depends on the RDBMS-based systems
paying a transactional cost that MongoDB does not: every row mutation is
WAL-logged and committed, while the MongoDB baseline mutates documents with
no durability bookkeeping.  The paper found that Sinew's cheaper predicate
evaluation outweighed this overhead; reproducing that requires the overhead
to actually exist, which this module provides.

Two modes
---------
* **In-memory** (the default, ``directory=None``): the WAL counts records
  and bytes but keeps none (the counts flow into the shared
  :class:`~repro.rdbms.cost.CostCounters` so the harness can model fsync
  latency).  Rollback is implemented with per-transaction undo entries
  applied in reverse order.  A process exit loses everything.
* **Durable** (``directory=<path>``): every record is additionally written
  to an on-disk *segment file* as a CRC32-framed, length-prefixed frame.
  Commits are fsync barriers (grouped: one fsync per
  ``group_commit_every`` commits); segments rotate at ``segment_bytes``
  and are deleted once a checkpoint makes them dead.  On reopen,
  :meth:`~repro.rdbms.database.Database.recover` replays the log from the
  last checkpoint -- ARIES-style redo of committed transactions, with
  uncommitted tails discarded and a torn final frame (partial write)
  detected via the length/CRC envelope and truncated.

Frame format (one WAL record)::

    +----------------+----------------+------------------------+
    | body length u32| CRC32(body) u32| body (pickled tuple)   |
    +----------------+----------------+------------------------+

The body is ``(lsn, txn_id, record_type, table, rid, payload_bytes,
payload)``; ``payload`` carries the physical redo image (the full row for
INSERT/UPDATE, the schema for DDL, a catalog delta for CATALOG records).
"""

from __future__ import annotations

import enum
import itertools
import os
import pickle
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .cost import CostCounters
from .errors import DegradedError, TransactionError

#: Default size at which a durable WAL rotates to a fresh segment file.
DEFAULT_SEGMENT_BYTES = 512 * 1024

#: Durable segment files are named ``<seq:016d>.wal`` inside the WAL dir.
WAL_SUFFIX = ".wal"

_FRAME_HEADER = struct.Struct("<II")


class WalRecordType(enum.Enum):
    BEGIN = "begin"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    # DDL redo records (durable mode): the physical schema must replay in
    # log order so later row images land in tables that exist again.
    CREATE_TABLE = "create_table"
    DROP_TABLE = "drop_table"
    ADD_COLUMN = "add_column"
    DROP_COLUMN = "drop_column"
    TRUNCATE = "truncate"
    #: An opaque upper-layer (Sinew catalog) delta, replayed via a callback.
    CATALOG = "catalog"


@dataclass(frozen=True)
class WalRecord:
    """One record in the write-ahead log."""

    lsn: int
    txn_id: int
    record_type: WalRecordType
    table: str | None = None
    rid: int | None = None
    payload_bytes: int = 0
    #: physical redo image (row tuple, DDL description, or catalog delta);
    #: only serialized to disk in durable mode
    payload: Any = None


def encode_frame(record: WalRecord) -> bytes:
    """Serialize one record into its length-prefixed, CRC-framed form."""
    body = pickle.dumps(
        (
            record.lsn,
            record.txn_id,
            record.record_type.value,
            record.table,
            record.rid,
            record.payload_bytes,
            record.payload,
        ),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frames(data: bytes) -> tuple[list[WalRecord], int | None]:
    """Decode consecutive frames from one segment's bytes.

    Returns ``(records, torn_offset)``: ``torn_offset`` is the byte
    position of the first incomplete or corrupt frame (a torn write --
    short header, short body, or CRC mismatch), or ``None`` when the
    segment decodes cleanly to its end.  Decoding stops at the first bad
    frame; anything after it is unreachable by construction (frames are
    appended strictly in order) and treated as garbage.
    """
    records: list[WalRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME_HEADER.size > total:
            return records, offset
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        body_start = offset + _FRAME_HEADER.size
        body = data[body_start : body_start + length]
        if len(body) < length or zlib.crc32(body) != crc:
            return records, offset
        lsn, txn_id, type_value, table, rid, payload_bytes, payload = pickle.loads(body)
        records.append(
            WalRecord(
                lsn=lsn,
                txn_id=txn_id,
                record_type=WalRecordType(type_value),
                table=table,
                rid=rid,
                payload_bytes=payload_bytes,
                payload=payload,
            )
        )
        offset = body_start + length
    return records, None


@dataclass
class WalScanResult:
    """What :func:`scan_wal` found on disk (recovery-report surface)."""

    records: list[WalRecord] = field(default_factory=list)
    segments_scanned: int = 0
    frames_decoded: int = 0
    #: segment file name + byte offset of a torn final frame (if any)
    torn_segment: str | None = None
    torn_offset: int | None = None
    #: segments after a torn/corrupt frame, deleted as unreachable garbage
    segments_dropped: int = 0


def _segment_files(directory: Path) -> list[Path]:
    return sorted(p for p in directory.iterdir() if p.suffix == WAL_SUFFIX)


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry (segment creation/rename durability)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fsync
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def scan_wal(directory: Path, truncate_torn: bool = True) -> WalScanResult:
    """Read every WAL segment in order, handling a torn final record.

    A torn frame ends the log: the file is truncated at the tear (when
    ``truncate_torn``) and any later segment files -- which cannot contain
    reachable records -- are deleted.
    """
    result = WalScanResult()
    segments = _segment_files(directory)
    torn_found = False
    for segment in segments:
        if torn_found:
            if truncate_torn:
                segment.unlink()
            result.segments_dropped += 1
            continue
        data = segment.read_bytes()
        records, torn_offset = decode_frames(data)
        result.segments_scanned += 1
        result.frames_decoded += len(records)
        result.records.extend(records)
        if torn_offset is not None:
            torn_found = True
            result.torn_segment = segment.name
            result.torn_offset = torn_offset
            if truncate_torn:
                with open(segment, "r+b") as handle:
                    handle.truncate(torn_offset)
                    os.fsync(handle.fileno())
    return result


class WriteAheadLog:
    """Append-only log with monotonically increasing LSNs.

    In durable mode every record is framed and written to the current
    segment file (flushed to the OS immediately, so an abrupt process death
    loses at most the final partially-written frame); COMMIT records are
    fsync barriers subject to group commit.  A durable WAL must be
    :meth:`activate`-d (normally by ``Database.recover``) before appending,
    so recovery always reads the log before new records interleave.
    """

    #: Fixed modelled overhead per WAL record (header, CRC, alignment);
    #: the cost counters use this regardless of the physical frame size so
    #: in-memory and durable runs report comparable ``wal_bytes``.
    RECORD_HEADER_BYTES = 26

    def __init__(
        self,
        counters: CostCounters,
        directory: str | Path | None = None,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        group_commit_every: int = 1,
    ):
        self.counters = counters
        self.directory = Path(directory) if directory is not None else None
        self.segment_bytes = max(1024, segment_bytes)
        self.group_commit_every = max(1, group_commit_every)
        self._lsn = itertools.count(1)
        self._lock = threading.RLock()
        #: optional FaultInjector; fires ``wal.append`` / ``wal.fsync`` /
        #: ``wal.torn_write`` on the durable path
        self.faults = None
        # -- durable-mode state --------------------------------------------
        self._fh = None
        self._fh_bytes = 0
        self._segment_seq = 0
        self._commits_since_sync = 0
        self.last_lsn = 0
        self.total_records = 0
        self.commits = 0
        self.fsyncs = 0
        self.segments_created = 0
        self.bytes_written = 0
        # -- degraded (read-only) mode -------------------------------------
        # An OSError from a WAL write or fsync flips ``degraded``: the log
        # stops accepting records (ABORTs are bookkeeping-only), reads keep
        # working, and :meth:`try_recover` is the only way back.
        self.degraded = False
        self.degraded_reason: str | None = None
        self.degraded_since: float | None = None
        self.io_errors = 0
        self.last_io_error: str | None = None
        self.suppressed_aborts = 0
        self.degraded_recoveries = 0
        #: bytes of the live segment covered by the last successful fsync;
        #: anything beyond it is untrusted once an I/O error hits
        self._fh_synced = 0
        self._degraded_trim: tuple[Path, int] | None = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # lifecycle (durable mode)
    # ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.directory is not None

    @property
    def active(self) -> bool:
        """Whether the log accepts appends (always true in-memory)."""
        return self.directory is None or self._fh is not None

    def activate(self, next_lsn: int = 1) -> None:
        """Open the durable log for appending, continuing at ``next_lsn``.

        Called by recovery *after* the existing segments were scanned and
        any torn tail truncated; appending before activation raises, which
        is what makes "recover before write" an enforced invariant.
        """
        if self.directory is None:
            raise TransactionError("cannot activate an in-memory WAL")
        with self._lock:
            self._lsn = itertools.count(next_lsn)
            self.last_lsn = next_lsn - 1
            segments = _segment_files(self.directory)
            if segments:
                last = segments[-1]
                self._segment_seq = int(last.stem)
                size = last.stat().st_size
                if size < self.segment_bytes:
                    self._fh = open(last, "ab")
                    self._fh_bytes = size
                    self._fh_synced = size
                else:
                    self._open_segment(self._segment_seq + 1)
            else:
                self._open_segment(1)

    def _open_segment(self, seq: int) -> None:
        self._segment_seq = seq
        path = self.directory / f"{seq:016d}{WAL_SUFFIX}"
        self._fh = open(path, "ab")
        self._fh_bytes = self._fh.tell()
        self._fh_synced = self._fh_bytes
        self.segments_created += 1
        _fsync_dir(self.directory)

    def rotate(self) -> None:
        """Close the current segment and start a fresh one (checkpointing
        rotates first so every older segment becomes dead afterwards)."""
        with self._lock:
            if self._fh is None:
                return
            if self.degraded:
                raise DegradedError(
                    "WAL is in read-only degraded mode; cannot rotate",
                    reason=self.degraded_reason,
                )
            self._sync_locked()
            self._fh.close()
            self._open_segment(self._segment_seq + 1)

    def truncate_segments_before(self, seq: int) -> int:
        """Delete every segment numbered below ``seq``; returns the count."""
        if self.directory is None:
            return 0
        removed = 0
        with self._lock:
            for segment in _segment_files(self.directory):
                if int(segment.stem) < seq:
                    segment.unlink()
                    removed += 1
            if removed:
                _fsync_dir(self.directory)
        return removed

    @property
    def current_segment_seq(self) -> int:
        return self._segment_seq

    def sync(self) -> None:
        """Force an fsync barrier now (close/checkpoint path)."""
        with self._lock:
            if self._fh is not None and not self.degraded:
                self._sync_locked()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                if not self.degraded:
                    try:
                        self._sync_locked()
                    except DegradedError:
                        pass  # untrusted tail; recovery truncates via CRC
                try:
                    self._fh.close()
                except OSError:
                    pass
                self._fh = None

    def _sync_locked(self) -> None:
        if self.degraded:
            return
        try:
            if self.faults is not None:
                self.faults.fire("wal.fsync", lsn=self.last_lsn)
                self.faults.fire("wal.io_error", op="fsync", lsn=self.last_lsn)
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
        except OSError as error:
            raise self._enter_degraded_locked("fsync", error) from error
        self.fsyncs += 1
        self.counters.wal_fsyncs += 1
        self._commits_since_sync = 0
        self._fh_synced = self._fh_bytes

    def _enter_degraded_locked(self, op: str, error: OSError) -> DegradedError:
        """Record an I/O failure, flip into degraded mode, build the error.

        Returns (rather than raises) so call sites can ``raise ... from``
        the original ``OSError``.  Remembers the fsync-acknowledged prefix
        of the live segment: bytes past it may or may not have reached the
        disk, so :meth:`try_recover` truncates them before trusting the
        log again (otherwise a later crash-recovery could resurrect a
        commit whose fsync failed and whose effects were undone in memory).
        """
        self.io_errors += 1
        self.last_io_error = f"{op}: {error}"
        if not self.degraded:
            self.degraded = True
            self.degraded_reason = self.last_io_error
            self.degraded_since = time.time()
            if self._fh is not None:
                path = self.directory / f"{self._segment_seq:016d}{WAL_SUFFIX}"
                self._degraded_trim = (path, self._fh_synced)
        return DegradedError(
            f"WAL {op} failed ({error}); engine is read-only until recovery",
            reason=str(error),
        )

    def try_recover(self) -> bool:
        """Attempt to leave degraded mode; True when the log is read-write.

        Recovery must prove the disk is healthy again before any write is
        accepted: the untrusted tail of the failed segment (bytes past the
        last acknowledged fsync) is truncated away, then a fresh segment is
        opened and fsynced as a write probe.  Any of those steps failing
        leaves the log degraded and returns False, so operators can retry
        (``\\service recover``) until the underlying problem is fixed.
        """
        with self._lock:
            if not self.degraded:
                return True
            try:
                if self.faults is not None:
                    self.faults.fire("wal.io_error", op="recover")
                if self._fh is not None:
                    try:
                        self._fh.close()
                    except OSError:
                        pass
                    self._fh = None
                if self._degraded_trim is not None:
                    path, synced = self._degraded_trim
                    if path.exists():
                        with open(path, "r+b") as handle:
                            handle.truncate(synced)
                            handle.flush()
                            os.fsync(handle.fileno())
                self._open_segment(self._segment_seq + 1)
                self._fh.flush()
                os.fsync(self._fh.fileno())
            except OSError as error:
                self.io_errors += 1
                self.last_io_error = f"recover: {error}"
                return False
            self._degraded_trim = None
            self.degraded = False
            self.degraded_reason = None
            self.degraded_since = None
            self.degraded_recoveries += 1
            self._commits_since_sync = 0
            return True

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(
        self,
        txn_id: int,
        record_type: WalRecordType,
        table: str | None = None,
        rid: int | None = None,
        payload_bytes: int = 0,
        payload: Any = None,
    ) -> WalRecord:
        with self._lock:
            if (
                self.durable
                and self.degraded
                and record_type is not WalRecordType.ABORT
            ):
                # Read-only degraded mode: no new work may enter the log.
                # ABORT falls through (bookkeeping-only, suppressed below)
                # so in-flight transactions can still undo cleanly.
                raise DegradedError(
                    "WAL is in read-only degraded mode; writes are rejected "
                    "until recovery",
                    reason=self.degraded_reason,
                )
            if self.durable and self.faults is not None:
                try:
                    self.faults.fire(
                        "wal.append",
                        record_type=record_type.value,
                        table=table,
                        txn_id=txn_id,
                    )
                except OSError as error:
                    raise self._enter_degraded_locked("append", error) from error
            record = WalRecord(
                lsn=next(self._lsn),
                txn_id=txn_id,
                record_type=record_type,
                table=table,
                rid=rid,
                payload_bytes=payload_bytes,
                payload=payload,
            )
            self.last_lsn = record.lsn
            self.total_records += 1
            self.counters.wal_records += 1
            self.counters.wal_bytes += self.RECORD_HEADER_BYTES + payload_bytes
            if not self.durable:
                # counted only: an abort undoes through its undo list
                return record
            if self.degraded:
                # Only ABORT reaches here while degraded (guard above); its
                # undo already ran in memory and recovery discards the
                # uncommitted transaction anyway, so skip the physical write.
                self.suppressed_aborts += 1
                return record
            self._write_frame(record)
            if record_type is WalRecordType.COMMIT:
                self.commits += 1
                self._commits_since_sync += 1
                if self._commits_since_sync >= self.group_commit_every:
                    self._sync_locked()
            return record

    def _write_frame(self, record: WalRecord) -> None:
        if self._fh is None:
            raise TransactionError(
                "durable WAL was not activated; run Database.recover() "
                "before writing"
            )
        frame = encode_frame(record)
        if self._fh_bytes and self._fh_bytes + len(frame) > self.segment_bytes:
            self.rotate()
        if record.record_type is WalRecordType.COMMIT and self.faults is not None:
            try:
                self.faults.fire("wal.torn_write", txn_id=record.txn_id)
            except BaseException:
                # Simulate the torn write this point exists to test: a
                # prefix of the commit frame reaches the OS, then we die.
                half = frame[: max(1, len(frame) // 2)]
                self._fh.write(half)
                self._fh.flush()
                self._fh_bytes += len(half)
                raise
        try:
            if self.faults is not None:
                self.faults.fire(
                    "wal.io_error", op="append", record_type=record.record_type.value
                )
            self._fh.write(frame)
            self._fh.flush()  # to the OS: an abrupt exit keeps whole frames
        except OSError as error:
            raise self._enter_degraded_locked("append", error) from error
        self._fh_bytes += len(frame)
        self.bytes_written += len(frame)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.total_records

    def segment_count(self) -> int:
        if self.directory is None:
            return 0
        return len(_segment_files(self.directory))

    def bytes_on_disk(self) -> int:
        if self.directory is None:
            return 0
        return sum(p.stat().st_size for p in _segment_files(self.directory))

    def status(self) -> dict[str, Any]:
        """Counters for ``SinewDB.status()`` / the shell's ``\\wal``."""
        return {
            "durable": self.durable,
            "records": self.total_records,
            "last_lsn": self.last_lsn,
            "commits": self.commits,
            "fsyncs": self.fsyncs,
            "group_commit_every": self.group_commit_every,
            "segments": self.segment_count(),
            "segment_bytes_cap": self.segment_bytes,
            "bytes_on_disk": self.bytes_on_disk(),
            "segments_created": self.segments_created,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "io_errors": self.io_errors,
            "last_io_error": self.last_io_error,
            "suppressed_aborts": self.suppressed_aborts,
            "degraded_recoveries": self.degraded_recoveries,
        }


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """A unit of atomic work.  Undo actions run in reverse on abort."""

    txn_id: int
    wal: WriteAheadLog
    state: TxnState = TxnState.ACTIVE
    _undo: list[Callable[[], None]] = field(default_factory=list)

    def log_insert(
        self,
        table: str,
        rid: int,
        payload_bytes: int,
        undo: Callable[[], None],
        payload: Any = None,
    ) -> None:
        self._require_active()
        self.wal.append(
            self.txn_id, WalRecordType.INSERT, table, rid, payload_bytes, payload
        )
        self._undo.append(undo)

    def log_update(
        self,
        table: str,
        rid: int,
        payload_bytes: int,
        undo: Callable[[], None],
        payload: Any = None,
    ) -> None:
        self._require_active()
        self.wal.append(
            self.txn_id, WalRecordType.UPDATE, table, rid, payload_bytes, payload
        )
        self._undo.append(undo)

    def log_delete(
        self,
        table: str,
        rid: int,
        payload_bytes: int,
        undo: Callable[[], None],
        payload: Any = None,
    ) -> None:
        self._require_active()
        self.wal.append(
            self.txn_id, WalRecordType.DELETE, table, rid, payload_bytes, payload
        )
        self._undo.append(undo)

    def log_catalog(self, payload: Any, payload_bytes: int = 0) -> None:
        """Log an upper-layer catalog delta (no undo: catalog publication
        is deliberately redo-only, see the loader's crash-ordering notes)."""
        self._require_active()
        self.wal.append(
            self.txn_id,
            WalRecordType.CATALOG,
            payload_bytes=payload_bytes,
            payload=payload,
        )

    def commit(self) -> None:
        self._require_active()
        self.wal.append(self.txn_id, WalRecordType.COMMIT)
        self.state = TxnState.COMMITTED
        self._undo.clear()

    def abort(self) -> None:
        self._require_active()
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        self.wal.append(self.txn_id, WalRecordType.ABORT)
        self.state = TxnState.ABORTED

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )


class TransactionManager:
    """Hands out transactions and owns the WAL.

    ``autocommit()`` is a context manager wrapping a single statement, which
    is how the executor runs DML issued outside an explicit transaction.
    """

    def __init__(self, counters: CostCounters, wal: WriteAheadLog | None = None):
        self.wal = wal if wal is not None else WriteAheadLog(counters)
        #: guards txn-id allocation and the ``active`` dict: ``begin()``
        #: runs concurrently from service worker threads (explicit BEGIN,
        #: autocommit DML) and the materializer daemon's autocommit, and
        #: a duplicated txn_id would corrupt recovery replay
        self._lock = threading.Lock()
        self.next_txn_id = 1
        self.active: dict[int, Transaction] = {}

    def reset_next_txn_id(self, next_id: int) -> None:
        """Continue transaction numbering after recovery."""
        with self._lock:
            self.next_txn_id = next_id

    def begin(self) -> Transaction:
        # the BEGIN frame is appended inside the allocation lock so WAL
        # order matches id order; the lock order manager -> WAL-RLock is
        # one-way (the WAL never calls back into the manager)
        with self._lock:
            txn_id = self.next_txn_id
            self.next_txn_id += 1
            txn = Transaction(txn_id, self.wal)
            self.wal.append(txn.txn_id, WalRecordType.BEGIN)
            self.active[txn.txn_id] = txn
        return txn

    def finish(self, txn: Transaction, commit: bool = True) -> None:
        # commit/abort run outside the lock (a commit may fsync); a txn
        # whose commit raises intentionally stays in ``active`` so the
        # checkpointer keeps skipping and recovery discards it.  The one
        # exception is a WAL I/O failure (degraded mode): the process
        # keeps serving reads, so leaving the txn active forever would
        # leak it -- instead its effects are undone in memory here and the
        # caller sees the DegradedError (the write is *not* durable).
        if commit:
            try:
                txn.commit()
            except DegradedError:
                if txn.state is TxnState.ACTIVE:
                    try:
                        txn.abort()  # ABORT record is suppressed while degraded
                    except DegradedError:
                        pass  # undo already ran; the record is advisory
                with self._lock:
                    self.active.pop(txn.txn_id, None)
                raise
        else:
            txn.abort()
        with self._lock:
            self.active.pop(txn.txn_id, None)

    def autocommit(self) -> "_Autocommit":
        return _Autocommit(self)


class _Autocommit:
    """Context manager: commit on clean exit, roll back on exception."""

    def __init__(self, manager: TransactionManager):
        self.manager = manager
        self.txn: Transaction | None = None

    def __enter__(self) -> Transaction:
        self.txn = self.manager.begin()
        return self.txn

    def __exit__(self, exc_type: type | None, exc: Any, tb: Any) -> bool:
        assert self.txn is not None
        if self.txn.state is TxnState.ACTIVE:
            self.manager.finish(self.txn, commit=exc_type is None)
        return False


# ----------------------------------------------------------------------
# checkpointing
# ----------------------------------------------------------------------

#: The checkpoint lives next to the ``wal/`` directory, written atomically
#: (tmp + fsync + rename) so a crash mid-checkpoint preserves the old one.
CHECKPOINT_FILE = "checkpoint.bin"
_CHECKPOINT_TMP = "checkpoint.tmp"
_CHECKPOINT_MAGIC = b"SNWCKPT1"


@dataclass
class CheckpointInfo:
    """Result of one :meth:`Checkpointer.write`."""

    lsn: int = 0
    bytes_written: int = 0
    segments_truncated: int = 0


class Checkpointer:
    """Atomic snapshot writer + dead-segment truncation.

    The *content* of a checkpoint is assembled by the owning database
    (heap pages from :mod:`~repro.rdbms.storage`, the Sinew catalog from
    :mod:`~repro.core.catalog` via the ``extra`` blob); this class owns the
    envelope: CRC-protected serialization, write-to-temp + fsync + atomic
    rename, and deleting WAL segments the new checkpoint made dead.
    Crash-ordering guarantees:

    * a crash before the rename leaves the previous checkpoint intact
      (recovery replays a longer WAL suffix);
    * a crash after the rename but before truncation leaves stale
      segments whose records recovery skips by LSN (the next checkpoint
      deletes them).
    """

    def __init__(self, directory: str | Path, counters: CostCounters | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.counters = counters
        self.faults = None
        self.checkpoints = 0
        self.last_checkpoint_lsn = 0
        self.segments_truncated = 0

    @property
    def path(self) -> Path:
        return self.directory / CHECKPOINT_FILE

    def write(self, state: dict, wal: WriteAheadLog) -> CheckpointInfo:
        """Persist ``state`` atomically, then truncate dead WAL segments.

        ``state`` must contain ``"lsn"``; every WAL record with an LSN at
        or below it is dead once the rename lands.  The WAL must have been
        rotated *before* the snapshot was taken (``Database.checkpoint``
        does this) so dead records and live records never share a segment.
        """
        info = CheckpointInfo(lsn=state["lsn"])
        body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _CHECKPOINT_MAGIC + struct.pack("<I", zlib.crc32(body)) + body
        tmp = self.directory / _CHECKPOINT_TMP
        with open(tmp, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        _fsync_dir(self.directory)
        info.bytes_written = len(blob)
        self.checkpoints += 1
        self.last_checkpoint_lsn = state["lsn"]
        if self.counters is not None:
            self.counters.checkpoints += 1
        if self.faults is not None:
            self.faults.fire("checkpoint.truncate", lsn=state["lsn"])
        info.segments_truncated = wal.truncate_segments_before(
            wal.current_segment_seq
        )
        self.segments_truncated += info.segments_truncated
        return info

    def load(self) -> dict | None:
        """Read the checkpoint back, or ``None`` when absent/corrupt.

        A corrupt checkpoint (bad magic or CRC) is treated as absent: the
        only way one arises is a crash racing the atomic rename at the
        filesystem level, and recovery then replays the whole WAL.
        """
        try:
            blob = self.path.read_bytes()
        except FileNotFoundError:
            return None
        if len(blob) < len(_CHECKPOINT_MAGIC) + 4:
            return None
        if blob[: len(_CHECKPOINT_MAGIC)] != _CHECKPOINT_MAGIC:
            return None
        (crc,) = struct.unpack_from("<I", blob, len(_CHECKPOINT_MAGIC))
        body = blob[len(_CHECKPOINT_MAGIC) + 4 :]
        if zlib.crc32(body) != crc:
            return None
        return pickle.loads(body)

    def status(self) -> dict[str, Any]:
        return {
            "checkpoints": self.checkpoints,
            "last_checkpoint_lsn": self.last_checkpoint_lsn,
            "segments_truncated": self.segments_truncated,
        }
