"""Process-restart crash-recovery matrix.

Each case runs :mod:`repro.testing.crash_child` in a real subprocess with
one durability fault armed, lets it die mid-workload via ``os._exit``
(the in-process equivalent of ``kill -9`` at an exact WAL/checkpoint
instruction), then reopens the database **in this process** and checks
the recovery invariants from the durability design (DESIGN.md section 9):

a. ``SinewDB.check()`` reports no integrity errors;
b. every document committed before the crash is byte-identical to the
   same stage of an uninterrupted control run;
c. no uncommitted data is visible -- the in-flight step is atomic: its
   documents are either all present or all absent (the torn-COMMIT case
   must come back absent);
d. the reopened instance resumes mid-flight materialization from the
   persisted cursors, and finishing the workload converges to exactly
   the control run's settled layout and document set.

When ``RECOVERY_LOG_DIR`` is set, each case writes a JSON record of the
observed crash + recovery (marks, recovery stats, verdicts) there -- CI
uploads these as artifacts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import SinewDB
from repro.rdbms.types import SqlType
from repro.testing.crash_child import (
    BATCH_A,
    BATCH_B,
    COLLECTION,
    CRASH_EXIT,
    SETTLE_SLICE_ROWS,
    UPDATE_SQL,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: the armed workload steps, in order, with the documents each one settles
STEPS = ("load2", "update", "settle2", "ckpt", "close")


def run_child(dbpath: Path, point: str | None = None, at: int = 1):
    """Run the crash child; returns (returncode, marks, stderr, trail),
    ``trail`` being the context of every hit of the armed point up to the
    one that crashed (empty when none did)."""
    cmd = [sys.executable, "-m", "repro.testing.crash_child", str(dbpath)]
    if point is not None:
        cmd += ["--point", point, "--at", str(at)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=120
    )
    marks = [
        line.split(" ", 1)[1]
        for line in proc.stdout.splitlines()
        if line.startswith("MARK ")
    ]
    trail = next(
        (
            json.loads(line.split(" ", 1)[1])
            for line in proc.stdout.splitlines()
            if line.startswith("FAULT ")
        ),
        [],
    )
    return proc.returncode, marks, proc.stderr, trail


def canonical_docs(sdb: SinewDB) -> list[str]:
    """Every logical document, JSON-canonicalized, sorted -- the unit of
    byte-identity comparisons across runs."""
    return sorted(
        json.dumps({"_id": doc_id, **document}, sort_keys=True)
        for doc_id, document in sdb.documents(COLLECTION)
    )


def expected_docs(steps_done: set[str]) -> list[str]:
    """The canonical document set after a given prefix of the workload.

    Only ``load2`` and ``update`` change the logical documents; the
    materializer/checkpoint steps move bytes between storage sides without
    altering any document.
    """
    documents = [dict(d) for d in BATCH_A]
    if "load2" in steps_done:
        documents += [dict(d) for d in BATCH_B]
    if "update" in steps_done:
        for document in documents:
            if document.get("a") == 3:
                document["b"] = "updated"
    return sorted(
        json.dumps({"_id": i, **document}, sort_keys=True)
        for i, document in enumerate(documents)
    )


@pytest.fixture(scope="module")
def control(tmp_path_factory):
    """One uninterrupted run: the reference final state."""
    dbpath = tmp_path_factory.mktemp("control") / "db"
    rc, marks, stderr, _trail = run_child(dbpath)
    assert rc == 0, stderr
    assert marks == ["base", *STEPS]
    sdb = SinewDB.open(dbpath)
    try:
        state = {
            "docs": canonical_docs(sdb),
            "schema": sorted(
                (key, sql_type.value, storage)
                for key, sql_type, storage in sdb.logical_schema(COLLECTION)
            ),
        }
    finally:
        sdb.close()
    return state


def record_log(name: str, payload: dict) -> None:
    log_dir = os.environ.get("RECOVERY_LOG_DIR")
    if not log_dir:
        return
    directory = Path(log_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.json").write_text(json.dumps(payload, indent=2))


MATRIX = [
    # first WAL append of the armed phase: nothing after 'base' survives
    ("wal.append", 1),
    # mid-armed-phase append (lands after load2's commit)
    ("wal.append", 12),
    # deep append: the UPDATE record of row 7, the second row of settle2's
    # second slice (checked below by the fault's context), so the reopened
    # database must resume the column move from the first slice's end
    ("wal.append", 30),
    # the same row, killed after its move: the whole slice is discarded
    ("materializer.after_row_move", SETTLE_SLICE_ROWS + 2),
    # crash at the fsync barrier: the COMMIT frame is already flushed to
    # the OS, so the in-flight transaction may come back fully visible
    ("wal.fsync", 1),
    # torn COMMIT frame: recovery must truncate it and discard the txn
    ("wal.torn_write", 1),
    ("checkpoint.pages", 1),
    ("checkpoint.catalog", 1),
    ("checkpoint.truncate", 1),
]
#: the cases above that crash inside a materializer slice
MID_SLICE = {"wal.append": 30, "materializer.after_row_move": SETTLE_SLICE_ROWS + 2}


@pytest.mark.parametrize("point,at", MATRIX, ids=[f"{p}@{a}" for p, a in MATRIX])
def test_crash_recovery_matrix(tmp_path, control, point, at):
    dbpath = tmp_path / "db"
    rc, marks, stderr, trail = run_child(dbpath, point, at)
    assert rc == CRASH_EXIT, f"fault never fired: rc={rc} stderr={stderr}"
    assert marks and marks[0] == "base"

    done = set(marks) - {"base"}
    in_flight = next((s for s in STEPS if s not in done), None)
    mid_slice = MID_SLICE.get(point) == at
    if mid_slice:
        # the crash hit the second row of settle2's second slice
        assert in_flight == "settle2"
        crashed = trail[-1]
        if point == "wal.append":
            in_txn = [c["record_type"] for c in trail if c["txn_id"] == crashed["txn_id"]]
            assert in_txn == ["begin", "update", "update"]
            assert crashed["table"] == COLLECTION
        else:
            assert crashed == {"table": COLLECTION, "keys": ["b"], "rid": SETTLE_SLICE_ROWS + 1}

    sdb = SinewDB.open(dbpath)
    try:
        # (a) integrity: recovery may leave dead heap slots and stale-high
        # counters, never errors
        reports = sdb.check()
        assert all(report.ok for report in reports), [
            str(f) for report in reports for f in report.errors
        ]

        # (b)+(c) committed steps byte-identical; in-flight step atomic
        observed = canonical_docs(sdb)
        allowed = {tuple(expected_docs(done))}
        if in_flight is not None:
            allowed.add(tuple(expected_docs(done | {in_flight})))
        if point == "wal.torn_write":
            # a torn COMMIT is not durable by definition: the in-flight
            # transaction must have been discarded
            allowed = {tuple(expected_docs(done))}
        assert tuple(observed) in allowed

        if mid_slice:
            # the first slice committed with its cursor, the second is gone
            state = sdb.catalog.table(COLLECTION).state(
                sdb.catalog.lookup_id("b", SqlType.TEXT)
            )
            assert state.dirty and state.cursor == SETTLE_SLICE_ROWS

        recovery = sdb.last_recovery
        assert recovery is not None and recovery["had_checkpoint"]
        if point == "wal.torn_write":
            assert recovery["torn_offset"] is not None
            assert recovery["txns_discarded"] >= 1

        # (d) resume: finish the workload on the recovered instance and
        # converge to the control run's exact final state
        if len(canonical_docs(sdb)) == len(BATCH_A):
            sdb.load(COLLECTION, BATCH_B)
        sdb.query(UPDATE_SQL)
        sdb.materialize(COLLECTION, "b", SqlType.TEXT)
        sdb.run_materializer(COLLECTION)
        status = sdb.status()
        assert status["collections"][COLLECTION]["dirty"] == 0
        final_docs = canonical_docs(sdb)
        final_schema = sorted(
            (key, sql_type.value, storage)
            for key, sql_type, storage in sdb.logical_schema(COLLECTION)
        )
        assert final_docs == control["docs"]
        assert final_schema == control["schema"]
    finally:
        sdb.close()

    # reopen once more: the post-recovery close must have checkpointed
    # into a state that needs no replay
    sdb = SinewDB.open(dbpath)
    try:
        assert canonical_docs(sdb) == control["docs"]
        assert sdb.last_recovery["records_replayed"] == 0
    finally:
        sdb.close()

    record_log(
        f"{point.replace('.', '_')}_at{at}",
        {
            "point": point,
            "at": at,
            "returncode": rc,
            "marks": marks,
            "in_flight": in_flight,
            "recovery": recovery,
            "converged": True,
        },
    )


def test_clean_restart_replays_nothing(tmp_path, control):
    """A cleanly closed database reopens without touching the WAL."""
    dbpath = tmp_path / "db"
    rc, marks, stderr, _trail = run_child(dbpath)
    assert rc == 0, stderr
    sdb = SinewDB.open(dbpath)
    try:
        assert sdb.last_recovery["records_replayed"] == 0
        assert sdb.last_recovery["had_checkpoint"]
        assert canonical_docs(sdb) == control["docs"]
    finally:
        sdb.close()
