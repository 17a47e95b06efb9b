"""Subprocess workload for process-level crash-recovery tests.

``python -m repro.testing.crash_child DBPATH [--point P --at N]`` runs a
fixed, fully deterministic Sinew workload against a durable database at
``DBPATH``.  With ``--point`` it arms one fault plan and the process dies
with :data:`CRASH_EXIT` (via ``os._exit``, so no ``atexit``/destructor
cleanup runs -- the closest a test can get to ``kill -9`` at an exact
instruction) the moment that fault fires.

After every completed workload step the child prints a flushed
``MARK <step>`` line; the parent test reads the marks from stdout to learn
exactly which steps committed before the crash, then reopens ``DBPATH``
in-process and checks the recovery invariants (see
``tests/integration/test_crash_recovery.py``).

The workload is two phases:

* **base** (never armed): create the collection, load 12 documents,
  materialize ``a``, settle, checkpoint.  Every crash case starts from
  this same durable prefix.
* **armed steps**, each followed by its mark: ``load2`` (8 more
  documents), ``update`` (one-row UPDATE), ``settle2`` (materialize ``b``
  + run the materializer in slices of :data:`SETTLE_SLICE_ROWS` rows),
  ``ckpt``, ``close``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..core import SinewDB
from ..rdbms.types import SqlType
from .faults import FaultInjector, InjectedFault

#: Exit status signalling "an injected fault fired" (vs. 0 = clean run).
CRASH_EXIT = 42

COLLECTION = "events"

BATCH_A = [{"a": i, "b": f"s{i}", "tag": "base"} for i in range(12)]
BATCH_B = [{"a": 100 + i, "c": f"c{i}", "tag": "extra"} for i in range(8)]
UPDATE_SQL = "UPDATE events SET b = 'updated' WHERE a = 3"
#: rows per materializer slice in ``settle2``: the 20 rows take four
SETTLE_SLICE_ROWS = 6


class CrashingInjector(FaultInjector):
    """``os._exit`` the instant a planned fault fires.

    Exiting *inside* ``fire`` means nothing after the injection point runs
    in-process -- no transaction abort, no undo, no buffered writes -- which
    is the semantics a real power cut would have.  The one exception is
    ``wal.torn_write``: the WAL's own handler must see the exception first
    (it is what writes the torn half-frame), so there the fault propagates
    and :func:`main` exits at the workload level instead.
    """

    def __init__(self, point: str):
        super().__init__()
        self.point = point
        #: the context of every hit of the armed point, oldest first
        self.trail: list[dict] = []

    def fire(self, point: str, **context) -> None:
        if point == self.point:
            self.trail.append(context)
        try:
            super().fire(point, **context)
        except InjectedFault:
            if point == "wal.torn_write":
                raise
            _crash(self.trail)


def _crash(trail: list[dict] | None = None) -> None:
    if trail is not None:
        # where the fault landed: the parent test checks its context
        print(f"FAULT {json.dumps(trail, default=repr)}")
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(CRASH_EXIT)


def _mark(step: str) -> None:
    print(f"MARK {step}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dbpath", help="database directory (created if absent)")
    parser.add_argument("--point", help="fault-injection point to arm")
    parser.add_argument(
        "--at", type=int, default=1, help="1-based hit index that crashes"
    )
    options = parser.parse_args(argv)

    sdb = SinewDB.open(options.dbpath)

    # ---- base phase (unarmed): identical durable prefix for every case
    sdb.create_collection(COLLECTION)
    sdb.load(COLLECTION, BATCH_A)
    sdb.materialize(COLLECTION, "a", SqlType.INTEGER)
    sdb.run_materializer(COLLECTION)
    sdb.checkpoint()
    _mark("base")

    if options.point:
        injector = CrashingInjector(options.point)
        injector.plan(options.point, "raise", at=options.at)
        sdb.attach_faults(injector)

    try:
        sdb.load(COLLECTION, BATCH_B)
        _mark("load2")
        sdb.query(UPDATE_SQL)
        _mark("update")
        sdb.materialize(COLLECTION, "b", SqlType.TEXT)
        # several slices, so a kill can land after one has committed
        sdb.materializer.run_to_completion(COLLECTION, SETTLE_SLICE_ROWS)
        sdb.run_materializer(COLLECTION)
        _mark("settle2")
        sdb.checkpoint()
        _mark("ckpt")
        sdb.close()
        _mark("close")
    except InjectedFault:
        # only wal.torn_write reaches here (see CrashingInjector); the torn
        # half-frame is already on disk
        _crash()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
