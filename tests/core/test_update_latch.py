"""UPDATE against the materializer: an acknowledged update is never lost.

``SinewDB._execute_update`` finds its rows with an unlatched scan.  It used
to write back the row image that scan saw, so a value the materializer
moved in between was reverted -- or, seen from the other side, the
materializer wrote back an image it had fetched before the update and the
update vanished (found by the oracle of ``benchmarks/suite``).  The write
phase now runs under the catalog latch, on rows fetched again under it.
"""

import sys
import threading
import time

from repro.core import SinewConfig, SinewDB
from repro.rdbms.types import SqlType
from repro.testing.faults import FaultInjector


def document(i: int) -> dict:
    return {"num": i, "tag": f"t{i}", "note": f"n{i}"}


def held(sdb: SinewDB) -> dict[int, dict]:
    return {doc["num"]: doc for _id, doc in sdb.documents("t")}


def test_update_during_a_row_move_survives_it():
    """The materializer has fetched a row and is about to move one of its
    values when an UPDATE of that row arrives (a delay fault holds the
    window open): the update must wait for the move, then land on top."""
    sdb = SinewDB("update_vs_move")
    sdb.create_collection("t")
    sdb.load("t", [document(i) for i in range(4)])
    sdb.materialize("t", "tag", SqlType.TEXT)
    injector = FaultInjector()
    injector.plan("materializer.before_row_move", "delay", at=2, delay=0.3)
    sdb.attach_faults(injector)

    mover = threading.Thread(target=sdb.materializer_step, args=("t", 100))
    mover.start()
    try:
        deadline = time.monotonic() + 10.0
        while (
            injector.hits.get("materializer.before_row_move", 0) < 2
            and time.monotonic() < deadline
        ):
            time.sleep(0.001)
        assert injector.fired("materializer.before_row_move") == 1
        # rid 1 is the row held inside the move window
        result = sdb.execute("UPDATE t SET note = 'changed' WHERE num = 1")
        assert result.rowcount == 1
    finally:
        mover.join(timeout=10.0)
    assert not mover.is_alive()

    documents = held(sdb)
    assert documents[1] == {"num": 1, "tag": "t1", "note": "changed"}
    assert documents[2] == document(2)
    position = sdb.db.table("t").schema.position_of("tag")
    assert [row[position] for _rid, row in sdb.db.table("t").scan()] == [
        "t0", "t1", "t2", "t3",
    ]


def test_load_then_update_loop_beside_the_daemon():
    """The loop that lost 5 of 7 500 updates: every freshly loaded row is
    updated at once, while the daemon is busy moving that row's values.
    Time-bounded; thread switches forced every 10 microseconds."""
    sdb = SinewDB(
        "update_loop", SinewConfig(daemon_step_rows=5, daemon_idle_sleep=0.0005)
    )
    sdb.create_collection("t")
    sdb.load("t", [document(0)])
    sdb.materialize("t", "tag", SqlType.TEXT)
    sdb.materialize("t", "num", SqlType.INTEGER)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    sdb.daemon.start()
    loaded = 1
    try:
        deadline = time.monotonic() + 3.0
        while time.monotonic() < deadline and loaded < 400:
            sdb.load("t", [document(loaded)])
            result = sdb.execute(f"UPDATE t SET note = 'u{loaded}' WHERE num = {loaded}")
            assert result.rowcount == 1
            loaded += 1
    finally:
        sys.setswitchinterval(interval)
        sdb.daemon.stop()
    assert not sdb.daemon.is_alive()
    sdb.run_materializer("t")
    expected = {i: {**document(i), "note": f"u{i}"} for i in range(1, loaded)}
    expected[0] = document(0)
    assert held(sdb) == expected
