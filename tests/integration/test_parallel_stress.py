"""Concurrency stress: queries on several threads racing the materializer.

The invariant under test is the Sinew transparency guarantee (paper
section 3.1.4): query results never depend on *where* a value currently
lives (column reservoir, physical column, or mid-move), so a batch scan
racing the background materializer must return exactly the rows of an
engine with no daemon and every key still virtual.

FaultInjector delay plans at the materializer latch points stretch the
latch-held windows so scans genuinely overlap row moves.
"""

import itertools
import threading
import time

import pytest

from repro.core.sinew import SinewConfig, SinewDB
from repro.nobench.generator import NoBenchGenerator
from repro.testing import disable_latch_tracking, enable_latch_tracking
from repro.testing.faults import FaultInjector


@pytest.fixture(autouse=True)
def _latch_tracking():
    """Scans, loads and daemon steps all run under the latch-order
    detector; an ordering inversion fails the test immediately."""
    tracker = enable_latch_tracking()
    try:
        yield tracker
    finally:
        disable_latch_tracking()
    assert tracker.violations == []


TABLE = "stress_docs"

QUERIES = [
    f"SELECT str1, num FROM {TABLE}",
    f'SELECT "nested_obj.str", "nested_obj.num" FROM {TABLE}',
    f"SELECT str1 FROM {TABLE} WHERE num % 3 = 0",
    f"SELECT num, str1 FROM {TABLE} WHERE num % 7 = 1 ORDER BY num",
    f"SELECT count(*) FROM {TABLE}",
    f"SELECT thousandth, count(*) FROM {TABLE} GROUP BY thousandth",
    f"SELECT num FROM {TABLE} ORDER BY num DESC LIMIT 20",
    f"SELECT str1, count(*) FROM {TABLE} GROUP BY str1 ORDER BY str1",
]

#: attributes the daemon is asked to move while queries are in flight
FLIP_KEYS = ["num", "str1", "thousandth"]


def _build(name: str, n_docs: int) -> SinewDB:
    sdb = SinewDB(
        name,
        SinewConfig(
            daemon_step_rows=200,
            daemon_idle_sleep=0.001,
        ),
    )
    sdb.create_collection(TABLE)
    sdb.load(TABLE, list(NoBenchGenerator(n_docs, seed=7).documents()))
    return sdb


def _key_types(sdb: SinewDB) -> dict[str, object]:
    return {key: key_type for key, key_type, _storage in sdb.logical_schema(TABLE)}


def _run_stress(n_docs: int, n_threads: int, n_iterations: int) -> None:
    # the reference engine: no daemon, fully virtual layout
    reference = _build("stress_ref", n_docs)
    expected = {sql: reference.query(sql).rows for sql in QUERIES}
    reference.close()

    sdb = _build("stress_sut", n_docs)
    types = _key_types(sdb)
    injector = FaultInjector()
    sdb.attach_faults(injector)
    # stretch the latch-held move windows so scans overlap them for real
    injector.plan(
        "materializer.before_row_move", "delay", delay=0.0005, at=1, count=None
    )
    failures: list[str] = []

    # at least n_iterations queries per thread, and -- however fast the
    # engine gets through those -- more until the daemon has moved a row
    # under them (bounded: the final assert reports a daemon that never did)
    deadline = time.monotonic() + 30.0

    def more_wanted(iteration: int) -> bool:
        if iteration < n_iterations:
            return True
        raced = injector.hits.get("materializer.before_row_move", 0) > 0
        return not raced and time.monotonic() < deadline

    def query_thread(thread_id: int) -> None:
        for iteration in itertools.count():
            if not more_wanted(iteration):
                return
            sql = QUERIES[(thread_id + iteration) % len(QUERIES)]
            try:
                rows = sdb.query(sql).rows
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(f"{sql!r} raised {exc!r}")
                return
            if rows != expected[sql]:
                failures.append(
                    f"{sql!r} diverged under concurrency "
                    f"({len(rows)} rows vs {len(expected[sql])} expected)"
                )

    sdb.start_daemon()
    try:
        # keep the daemon busy: mark columns for materialization while the
        # query threads run (the dirty->physical moves race the scans)
        threads = [
            threading.Thread(target=query_thread, args=(i,), daemon=True)
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for key in FLIP_KEYS:
            sdb.materialize(TABLE, key, types[key])
            sdb.daemon.kick()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "stress query thread hung"
    finally:
        sdb.stop_daemon()

    assert not failures, "\n".join(failures)
    assert injector.fired("materializer.before_row_move") > 0, (
        "the daemon never raced a query; stress window too small"
    )

    # flip everything back (dematerialize) with no queries in flight, then
    # confirm the results still match the reference byte for byte
    for key in FLIP_KEYS:
        sdb.dematerialize(TABLE, key, types[key])
    sdb.run_materializer(TABLE)
    for sql in QUERIES:
        assert sdb.query(sql).rows == expected[sql], sql
    sdb.close()


def test_parallel_queries_race_materializer_smoke():
    """Tier-1 variant: small corpus, a few threads, still a real race."""
    _run_stress(n_docs=1200, n_threads=3, n_iterations=4)


@pytest.mark.slow
def test_parallel_queries_race_materializer_stress():
    """Full stress: 8 threads of mixed NoBench queries vs column flips."""
    _run_stress(n_docs=6000, n_threads=8, n_iterations=8)
