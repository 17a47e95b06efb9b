"""Concurrency: index builds and probes beside writers.

An index -- on a column, or on an extraction from the reservoir -- is
built by the first lookup that wants it, with one scan, while a loader may
be appending rows and the materializer daemon moving values into the very
column being indexed (or out of the reservoir the expression reads);
afterwards every writer maintains it.
Build and maintenance must exclude each other -- a row written during the
build is in the index either because the scan saw it or because its
writer added it afterwards -- so no acknowledged row may ever be missing
from a later index lookup.  Everything runs under the latch-order
detector: the index lock must be a leaf.
"""

import sys
import threading
import time

import pytest

from repro.core.sinew import SinewConfig, SinewDB
from repro.rdbms.database import Database
from repro.rdbms.storage import IndexExpression, ShapeTarget, TextTarget
from repro.rdbms.types import SqlType
from repro.testing import disable_latch_tracking, enable_latch_tracking
from repro.testing.faults import FaultInjector

from ..rdbms.index_oracle import assert_indexes_exact


@pytest.fixture(autouse=True)
def _latch_tracking():
    tracker = enable_latch_tracking()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave inside builds and probes
    try:
        yield tracker
    finally:
        sys.setswitchinterval(interval)
        disable_latch_tracking()
    assert tracker.violations == []
    assert "heap.index" in tracker.names_seen
    # a leaf: nothing is ever acquired while the index lock is held
    assert not tracker.edges().get("heap.index")


def _join(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker thread hung"


def test_first_lookup_races_a_writer():
    """Engine level, many times over: the build's scan overlaps a writer
    that inserts, updates and deletes; every row acknowledged before a
    lookup is found by it, and the finished index is exact."""
    for round_no in range(25):
        database = Database(f"race{round_no}")
        database.execute("CREATE TABLE t (id integer, tag text)")
        database.insert_rows("t", [(i, f"t{i}") for i in range(400)])
        database.analyze()
        table = database.table("t")
        acknowledged: list[int] = list(range(400))
        failures: list[str] = []
        started = threading.Event()

        def writer() -> None:
            try:
                for i in range(400, 700):
                    rid = table.insert((i, f"t{i}"))
                    acknowledged.append(i)
                    started.set()
                    if i % 3 == 0:
                        table.update(rid, (i, f"u{i}"))
                    if i % 50 == 0:  # a row nobody looks up
                        table.delete(table.insert((-i, "gone")))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(f"writer raised {exc!r}")
                started.set()

        def reader() -> None:
            try:
                started.wait(timeout=30)
                for _ in range(40):
                    wanted = acknowledged[-1]
                    rows = database.execute(f"SELECT id FROM t WHERE id = {wanted}").rows
                    if rows != [(wanted,)]:
                        failures.append(f"id {wanted} acknowledged, lookup gave {rows}")
            except Exception as exc:  # noqa: BLE001
                failures.append(f"reader raised {exc!r}")

        threads = [threading.Thread(target=writer, daemon=True)]
        threads += [threading.Thread(target=reader, daemon=True) for _ in range(2)]
        for thread in threads:
            thread.start()
        _join(threads)
        assert not failures, "\n".join(failures[:5])
        assert "Index Scan" in database.explain("SELECT id FROM t WHERE id = 5")
        assert database.counters.index_builds == 1
        for wanted in acknowledged[::7]:
            assert database.execute(f"SELECT id FROM t WHERE id = {wanted}").rows == [(wanted,)]
        assert_indexes_exact(table)


TABLE = "docs"


def _document(i: int) -> dict:
    return {"num": i, "tag": f"t{i % 25}", "score": i / 2, "note": f"n{i}"}


def test_lookups_race_loader_and_materializer_daemon():
    """Sinew level: lookups on ``_id`` (always a plain physical column) and
    on ``num`` (clean, then dirty while freshly loaded rows wait for the
    daemon, then clean again) run beside a loader and the daemon.  Marking
    more keys for materialization adds columns, which drops the indexes, so
    they are rebuilt mid-race.

    At the parent of this change the daemon died in this test four runs in
    ten (``IndexError`` in ``_move_row_value``): ``materialize()`` ran its
    ADD COLUMN outside the catalog latch, so a slice that had fetched a row
    wrote it back at the old arity after the rows were widened."""
    sdb = SinewDB(
        "index_race",
        SinewConfig(
            daemon_step_rows=50,
            daemon_idle_sleep=0.001,
        ),
    )
    sdb.create_collection(TABLE)
    sdb.load(TABLE, [_document(i) for i in range(600)])
    sdb.materialize(TABLE, "num", SqlType.INTEGER)
    sdb.run_materializer(TABLE)
    injector = FaultInjector()
    sdb.attach_faults(injector)
    injector.plan("materializer.before_row_move", "delay", delay=0.0002, at=1, count=None)

    acknowledged: list[int] = list(range(600))
    failures: list[str] = []
    loading = threading.Event()
    done = threading.Event()

    def loader() -> None:
        try:
            for batch in range(30):
                low = 600 + batch * 20
                sdb.load(TABLE, [_document(i) for i in range(low, low + 20)])
                acknowledged.extend(range(low, low + 20))
                loading.set()
                if batch == 8:
                    sdb.materialize(TABLE, "tag", SqlType.TEXT)
                if batch == 16:
                    sdb.materialize(TABLE, "score", SqlType.REAL)
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(f"loader raised {exc!r}")
        finally:
            loading.set()
            done.set()

    def lookups(thread_id: int) -> None:
        try:
            loading.wait(timeout=30)
            iteration = 0
            while not done.is_set() or iteration < 20:
                iteration += 1
                wanted = acknowledged[-1 - (iteration * (thread_id + 1)) % 40]
                rows = sdb.query(f"SELECT note FROM {TABLE} WHERE num = {wanted}").rows
                if rows != [(f"n{wanted}",)]:
                    failures.append(f"num {wanted} acknowledged, lookup gave {rows}")
                rows = sdb.query(f"SELECT num FROM {TABLE} WHERE _id = {wanted}").rows
                if rows != [(wanted,)]:
                    failures.append(f"_id {wanted} acknowledged, lookup gave {rows}")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"lookup thread raised {exc!r}")

    sdb.start_daemon()
    try:
        threads = [threading.Thread(target=loader, daemon=True)]
        threads += [
            threading.Thread(target=lookups, args=(i,), daemon=True) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        _join(threads)
        deadline = time.monotonic() + 60
        while sdb.catalog.table(TABLE).dirty_columns() and time.monotonic() < deadline:
            sdb.daemon.kick()
            time.sleep(0.01)
    finally:
        sdb.stop_daemon()
    assert not failures, "\n".join(failures[:5])
    assert not sdb.catalog.table(TABLE).dirty_columns(), (
        f"daemon never settled: {sdb.daemon.status()}"
    )
    assert injector.fired("materializer.before_row_move") > 0
    # ``_id`` and ``num`` at least: both ADD COLUMNs dropped what was built
    assert sdb.db.counters.index_builds >= 2

    table = sdb.db.table(TABLE)
    assert "Index Scan" in sdb.explain(f"SELECT note FROM {TABLE} WHERE num = 5")
    for wanted in acknowledged:
        rows = sdb.query(f"SELECT note FROM {TABLE} WHERE num = {wanted}").rows
        assert rows == [(f"n{wanted}",)], wanted
    assert sdb.query(f"SELECT count(*) FROM {TABLE} WHERE tag = 't3'").scalar() == 48
    assert {"_id", "num"} <= set(table._indexes)
    assert_indexes_exact(table, typed=True)
    sdb.close()


def _mixed_document(i: int) -> dict:
    """``dyn1`` holds an int, a string or a boolean, as in NoBench."""
    dyn1 = (i, f"s{i}", i % 2 == 0)[i % 3]
    return {"num": i, "dyn1": dyn1, "note": f"n{i}"}


def test_first_expression_lookup_races_loader_and_daemon():
    BASE = 1500  # a build long enough for loads to land inside it
    """The first ``dyn1`` lookup builds the index on
    ``extract_key_num(data, 'dyn1')`` while a loader appends rows with
    numeric ``dyn1`` values -- each insert keys its row outside the index
    lock, and one that lands during the build reaches it through the
    build's pending writes -- and the daemon moves ``num`` out of the
    reservoir, rewriting ``data`` and so re-keying every row it moves.
    Marking ``note`` for materialization mid-race drops the index, so it
    is built again beside the writers.  No acknowledged row may be missing
    from a later lookup."""
    sdb = SinewDB(
        "expression_race",
        SinewConfig(
            daemon_step_rows=50,
            daemon_idle_sleep=0.001,
        ),
    )
    sdb.create_collection(TABLE)
    sdb.load(TABLE, [_mixed_document(i) for i in range(BASE)])
    sdb.materialize(TABLE, "num", SqlType.INTEGER)  # dirty: the daemon moves it
    injector = FaultInjector()
    sdb.attach_faults(injector)
    injector.plan("materializer.before_row_move", "delay", delay=0.0002, at=1, count=None)

    acknowledged: list[int] = list(range(0, BASE, 3))
    failures: list[str] = []
    loading = threading.Event()
    done = threading.Event()
    # a lookup ran before the ADD COLUMN, and one began after it, however
    # the threads are scheduled: the index is built on both sides of it
    probed = threading.Event()
    added = threading.Event()

    def loader() -> None:
        try:
            for batch in range(30):
                low = BASE + batch * 5
                numbers = range(low, low + 5)
                sdb.load(TABLE, [{"num": i, "dyn1": i, "note": f"n{i}"} for i in numbers])
                acknowledged.extend(numbers)
                loading.set()
                if batch == 15:
                    probed.wait(timeout=30)
                    sdb.materialize(TABLE, "note", SqlType.TEXT)
                    added.set()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(f"loader raised {exc!r}")
        finally:
            loading.set()
            added.set()
            done.set()

    def lookups(thread_id: int) -> None:
        try:
            loading.wait(timeout=30)
            iteration, after = 0, False
            while not done.is_set() or iteration < 20 or not after:
                iteration += 1
                late = added.is_set()
                wanted = acknowledged[-1 - (iteration * (thread_id + 1)) % 40]
                rows = sdb.query(f"SELECT num FROM {TABLE} WHERE dyn1 = {wanted}").rows
                if rows != [(wanted,)]:
                    failures.append(f"dyn1 {wanted} acknowledged, lookup gave {rows}")
                probed.set()
                after = after or late
        except Exception as exc:  # noqa: BLE001
            failures.append(f"lookup thread raised {exc!r}")

    sdb.start_daemon()
    try:
        threads = [
            threading.Thread(target=lookups, args=(i,), daemon=True) for i in range(3)
        ]
        threads.append(threading.Thread(target=loader, daemon=True))
        for thread in threads:
            thread.start()
        _join(threads)
        deadline = time.monotonic() + 60
        while sdb.catalog.table(TABLE).dirty_columns() and time.monotonic() < deadline:
            sdb.daemon.kick()
            time.sleep(0.01)
    finally:
        sdb.stop_daemon()
    assert not failures, "\n".join(failures[:5])
    assert injector.fired("materializer.before_row_move") > 0
    assert sdb.db.counters.index_builds >= 2  # before and after the ADD COLUMN

    sql = f"SELECT num FROM {TABLE} WHERE dyn1 = 3"
    assert f"Index Scan on {TABLE} using extract_key_num(data, 'dyn1')" in sdb.explain(sql)
    for wanted in acknowledged[::20]:
        rows = sdb.query(f"SELECT num FROM {TABLE} WHERE dyn1 = {wanted}").rows
        assert rows == [(wanted,)], wanted
    rows = sdb.query(f"SELECT num FROM {TABLE} WHERE dyn1 >= 0").rows
    assert sorted(num for (num,) in rows) == sorted(acknowledged)
    table = sdb.db.table(TABLE)
    assert any(isinstance(target, IndexExpression) for target in table._indexes)
    assert_indexes_exact(table, typed=True)
    sdb.close()


def _rare_document(i: int) -> dict:
    """``rare`` on one row in a hundred, with a value of its own."""
    doc = {"num": i, "note": f"n{i}"}
    if i % 100 == 0:
        doc["rare"] = f"v{i}"
    return doc


def test_first_shape_lookup_races_loader_and_daemon():
    """The first ``rare`` lookup builds the shape index on ``data`` while a
    loader appends rows -- one in five holding ``rare``, some in shapes no
    row had before -- and the daemon moves ``num`` out of the reservoir,
    changing the shape of every row it moves.  Marking ``note`` for
    materialization mid-race drops the index, so it is built again beside
    the writers.  No acknowledged row may be missing from a later lookup,
    and the index ends exact."""
    BASE = 1500
    sdb = SinewDB(
        "shape_race",
        SinewConfig(daemon_step_rows=50, daemon_idle_sleep=0.001),
    )
    sdb.create_collection(TABLE)
    sdb.load(TABLE, [_rare_document(i) for i in range(BASE)])
    sdb.materialize(TABLE, "num", SqlType.INTEGER)  # dirty: the daemon moves it
    injector = FaultInjector()
    sdb.attach_faults(injector)
    injector.plan("materializer.before_row_move", "delay", delay=0.0002, at=1, count=None)

    acknowledged: list[int] = list(range(0, BASE, 100))
    failures: list[str] = []
    loading = threading.Event()
    done = threading.Event()
    # a lookup ran before the ADD COLUMN, and one began after it, however
    # the threads are scheduled: the index is built on both sides of it
    probed = threading.Event()
    added = threading.Event()

    def loader() -> None:
        try:
            for batch in range(30):
                low = BASE + batch * 5
                # k0..k6: shapes no row had before the race
                docs = [
                    {"num": i, "note": f"n{i}", f"k{batch % 7}": i} for i in range(low, low + 5)
                ]
                docs[batch % 5]["rare"] = f"v{low + batch % 5}"
                sdb.load(TABLE, docs)
                acknowledged.append(low + batch % 5)
                loading.set()
                if batch == 15:
                    probed.wait(timeout=30)
                    sdb.materialize(TABLE, "note", SqlType.TEXT)
                    added.set()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(f"loader raised {exc!r}")
        finally:
            loading.set()
            added.set()
            done.set()

    def lookups(thread_id: int) -> None:
        try:
            loading.wait(timeout=30)
            iteration, after = 0, False
            while not done.is_set() or iteration < 20 or not after:
                iteration += 1
                late = added.is_set()
                wanted = acknowledged[-1 - (iteration * (thread_id + 1)) % 15]
                rows = sdb.query(f"SELECT num FROM {TABLE} WHERE rare = 'v{wanted}'").rows
                if rows != [(wanted,)]:
                    failures.append(f"rare v{wanted} acknowledged, lookup gave {rows}")
                probed.set()
                after = after or late
        except Exception as exc:  # noqa: BLE001
            failures.append(f"lookup thread raised {exc!r}")

    sdb.start_daemon()
    try:
        threads = [
            threading.Thread(target=lookups, args=(i,), daemon=True) for i in range(3)
        ]
        threads.append(threading.Thread(target=loader, daemon=True))
        for thread in threads:
            thread.start()
        _join(threads)
        deadline = time.monotonic() + 60
        while sdb.catalog.table(TABLE).dirty_columns() and time.monotonic() < deadline:
            sdb.daemon.kick()
            time.sleep(0.01)
    finally:
        sdb.stop_daemon()
    assert not failures, "\n".join(failures[:5])
    assert injector.fired("materializer.before_row_move") > 0
    assert sdb.db.counters.index_builds >= 2  # before and after the ADD COLUMN

    sql = f"SELECT num FROM {TABLE} WHERE rare = 'v0'"
    assert f"Index Scan on {TABLE} using shapes(data)" in sdb.explain(sql)
    for wanted in acknowledged:
        rows = sdb.query(f"SELECT num FROM {TABLE} WHERE rare = 'v{wanted}'").rows
        assert rows == [(wanted,)], wanted
    rows = sdb.query(f"SELECT num FROM {TABLE} WHERE rare >= 'v'").rows
    assert sorted(num for (num,) in rows) == sorted(acknowledged)
    table = sdb.db.table(TABLE)
    assert any(isinstance(target, ShapeTarget) for target in table._indexes)
    assert_indexes_exact(table, typed=True)
    sdb.close()


def test_first_text_search_races_loader_and_daemon():
    """The first ``matches('rare', ...)`` builds the text index while a
    loader appends rows -- one in five holding ``rare`` -- and the daemon
    moves ``num`` out of the reservoir, rewriting every row it moves.
    Marking ``note`` for materialization mid-race drops the index and
    adds a column a row's terms are read from, so it is built again
    beside the writers.  No acknowledged row may be missing from a later
    search, and the index ends exact."""
    BASE = 1500
    sdb = SinewDB(
        "text_race",
        SinewConfig(daemon_step_rows=50, daemon_idle_sleep=0.001),
    )
    sdb.create_collection(TABLE)
    sdb.load(TABLE, [_rare_document(i) for i in range(BASE)])
    sdb.materialize(TABLE, "num", SqlType.INTEGER)  # dirty: the daemon moves it
    injector = FaultInjector()
    sdb.attach_faults(injector)
    injector.plan("materializer.before_row_move", "delay", delay=0.0002, at=1, count=None)

    acknowledged: list[int] = list(range(0, BASE, 100))
    failures: list[str] = []
    loading = threading.Event()
    done = threading.Event()
    probed = threading.Event()
    added = threading.Event()

    def loader() -> None:
        try:
            for batch in range(30):
                low = BASE + batch * 5
                docs = [{"num": i, "note": f"n{i}"} for i in range(low, low + 5)]
                docs[batch % 5]["rare"] = f"v{low + batch % 5}"
                sdb.load(TABLE, docs)
                acknowledged.append(low + batch % 5)
                loading.set()
                if batch == 15:
                    probed.wait(timeout=30)
                    sdb.materialize(TABLE, "note", SqlType.TEXT)
                    added.set()
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(f"loader raised {exc!r}")
        finally:
            loading.set()
            added.set()
            done.set()

    def searches(thread_id: int) -> None:
        try:
            loading.wait(timeout=30)
            iteration, after = 0, False
            while not done.is_set() or iteration < 20 or not after:
                iteration += 1
                late = added.is_set()
                wanted = acknowledged[-1 - (iteration * (thread_id + 1)) % 15]
                sql = f"SELECT num FROM {TABLE} WHERE matches('rare', 'v{wanted}')"
                rows = sdb.query(sql).rows
                if rows != [(wanted,)]:
                    failures.append(f"rare v{wanted} acknowledged, search gave {rows}")
                probed.set()
                after = after or late
        except Exception as exc:  # noqa: BLE001
            failures.append(f"search thread raised {exc!r}")

    sdb.start_daemon()
    try:
        threads = [
            threading.Thread(target=searches, args=(i,), daemon=True) for i in range(3)
        ]
        threads.append(threading.Thread(target=loader, daemon=True))
        for thread in threads:
            thread.start()
        _join(threads)
        deadline = time.monotonic() + 60
        while sdb.catalog.table(TABLE).dirty_columns() and time.monotonic() < deadline:
            sdb.daemon.kick()
            time.sleep(0.01)
    finally:
        sdb.stop_daemon()
    assert not failures, "\n".join(failures[:5])
    assert injector.fired("materializer.before_row_move") > 0
    assert sdb.db.counters.index_builds >= 2  # before and after the ADD COLUMN

    sql = f"SELECT num FROM {TABLE} WHERE matches('rare', 'v0')"
    assert f"Index Scan on {TABLE} using text(data, " in sdb.explain(sql)
    for wanted in acknowledged:
        sql = f"SELECT num FROM {TABLE} WHERE matches('rare', 'v{wanted}')"
        assert sdb.query(sql).rows == [(wanted,)], wanted
    rows = sdb.query(f"SELECT num FROM {TABLE} WHERE matches('rare', 'v*')").rows
    assert sorted(num for (num,) in rows) == sorted(acknowledged)
    table = sdb.db.table(TABLE)
    assert any(isinstance(target, TextTarget) for target in table._indexes)
    assert_indexes_exact(table, typed=True)
    sdb.close()


def test_bridge_lookups_race_the_daemon_moving_their_column():
    """While ``num`` is dirty a lookup probes the union of the index on
    ``num`` and the one on ``extract_key_num(data, 'num')``, beside the
    daemon moving those very values from the reservoir into the column --
    re-keying each row from the second index to the first.  A probe reads
    both members under one hold of the index lock.  A delay at
    ``storage.index_probe``, between reading the two members, widens the
    window a probe that released the lock in between would leave open: the
    daemon moves the row after the column's index was read and before the
    reservoir's, and the lookup finds nothing.  Each lookup asks for a row
    just past the daemon's cursor, and every one must find it.  The
    cursor moves a whole slice at a time, so the lookups stop two slices
    before the end: a lookup planned after the column's last slice would
    find it clean and probe no union."""
    BASE = 800
    SLICE = 20
    sdb = SinewDB(
        "bridge_race",
        SinewConfig(daemon_step_rows=SLICE, daemon_idle_sleep=0.001),
    )
    sdb.create_collection(TABLE)
    sdb.load(TABLE, [_document(i) for i in range(BASE)])  # row id i holds num i
    sdb.materialize(TABLE, "num", SqlType.INTEGER)  # dirty: the daemon moves it
    (state,) = sdb.catalog.table(TABLE).dirty_columns()
    plan = sdb.explain(f"SELECT note FROM {TABLE} WHERE num = 1")
    assert f"Index Scan on {TABLE} using num | extract_key_num(data, 'num')" in plan
    injector = FaultInjector()
    sdb.attach_faults(injector)
    injector.plan("materializer.before_row_move", "delay", delay=0.0005, at=1, count=None)
    injector.plan("storage.index_probe", "delay", delay=0.003, at=1, count=None)

    failures: list[str] = []
    found = [0]

    def lookups(offset: int) -> None:
        try:
            while state.dirty and state.cursor < BASE - 2 * SLICE:
                wanted = state.cursor + offset
                rows = sdb.query(f"SELECT note FROM {TABLE} WHERE num = {wanted}").rows
                if rows != [(f"n{wanted}",)]:
                    failures.append(f"num {wanted} loaded, lookup gave {rows}")
                found[0] += 1
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(f"lookup thread raised {exc!r}")

    sdb.start_daemon()
    try:
        threads = [threading.Thread(target=lookups, args=(i,), daemon=True) for i in (1, 3)]
        for thread in threads:
            thread.start()
        _join(threads)
        deadline = time.monotonic() + 60
        while state.dirty and time.monotonic() < deadline:
            sdb.daemon.kick()
            time.sleep(0.01)
    finally:
        sdb.stop_daemon()
    assert not failures, "\n".join(failures[:5])
    assert found[0] >= 20 and injector.fired("storage.index_probe") >= found[0]
    assert not state.dirty
    table = sdb.db.table(TABLE)
    extraction = IndexExpression(sdb.db.functions.scalar("extract_key_num"), "data", ("num",))
    assert {"num", extraction} <= set(table._indexes)
    assert_indexes_exact(table, typed=True)
    sdb.close()
