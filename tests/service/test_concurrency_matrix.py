"""Concurrency acceptance matrix: N clients, live daemon, serial replay.

The service's core promise: N concurrent sessions running mixed
reads/writes -- with the materializer daemon (and, in the full matrix,
the background checkpointer) live underneath -- behave as if each
client had the database to itself.  Verified three ways per cell:

* per-session isolation: every client's settings, prepared statements,
  and transaction scope contain exactly what that client put there;
* serial-replay equivalence: each client writes only documents tagged
  with its own id, so the final (tag, seq) multiset must equal a serial
  replay of the same loads on a fresh embedded instance;
* post-run hygiene: no sessions, open transactions, or held latches
  survive the run.

The tier-1 smoke runs one small in-memory cell; the ``slow`` lane runs
the full matrix (durable + checkpointer, heavy shedding, rollback
storms) under ``REPRO_DEBUG_LATCHES=1`` in CI.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core import SinewDB
from repro.service import AsyncServiceClient, ServiceConfig, ServiceError, SinewService

TABLE = "matrix"


def client_batches(client_id: int, loads: int, docs_per_load: int) -> list[list[dict]]:
    batches, seq = [], 0
    for _ in range(loads):
        batch = []
        for _ in range(docs_per_load):
            batch.append({"tag": client_id, "seq": seq, "flag": seq % 2 == 0})
            seq += 1
        batches.append(batch)
    return batches


async def _retry_busy(coroutine_factory, deadline: float = 30.0):
    backoff = 0.01
    waited = 0.0
    while True:
        try:
            return await coroutine_factory()
        except ServiceError as error:
            if error.code != "busy" or not error.retryable or waited >= deadline:
                raise
            await asyncio.sleep(backoff)
            waited += backoff
            backoff = min(backoff * 2, 0.1)


async def _run_client(
    port: int,
    client_id: int,
    *,
    loads: int,
    docs_per_load: int,
    with_rollback_storm: bool,
) -> list[str]:
    """One client's mixed script; returns isolation violations (if any)."""
    problems: list[str] = []
    async with AsyncServiceClient("127.0.0.1", port) as client:
        setting = client_id % 2 == 0
        await _retry_busy(
            lambda: client.request(
                {"op": "set", "key": "use_extraction_cache", "value": setting}
            )
        )
        name = f"mine_{client_id}"
        await _retry_busy(
            lambda: client.request(
                {
                    "op": "prepare",
                    "name": name,
                    "sql": f"SELECT COUNT(*) FROM {TABLE} WHERE tag = {client_id}",
                }
            )
        )
        for batch in client_batches(client_id, loads, docs_per_load):
            await _retry_busy(lambda b=batch: client.load(TABLE, b))
        if with_rollback_storm:
            # a write transaction opened, mutated, and rolled back: must
            # leave zero trace in the final state and zero residue in the
            # engine when interleaved with everyone else's commits
            await _retry_busy(lambda: client.query("BEGIN"))
            await _retry_busy(
                lambda: client.query(
                    f"UPDATE {TABLE} SET seq = 10000 WHERE tag = {client_id}"
                )
            )
            await _retry_busy(lambda: client.query("ROLLBACK"))
        reads = [
            f"SELECT seq FROM {TABLE} WHERE tag = {client_id} AND flag = true",
            f"SELECT COUNT(*) FROM {TABLE} WHERE tag = {client_id}",
        ]
        for sql in reads:
            await _retry_busy(lambda s=sql: client.query(s))
        expected = loads * docs_per_load
        count = (await _retry_busy(
            lambda: client.request({"op": "execute", "name": name})
        ))["result"]["rows"][0][0]
        if count != expected:
            problems.append(
                f"client {client_id}: sees {count} own docs, wrote {expected}"
            )
        session = (await client.request({"op": "session"}))["session"]
        if session["prepared"] != [name]:
            problems.append(f"client {client_id}: foreign prepared {session['prepared']}")
        if session["settings"]["use_extraction_cache"] is not setting:
            problems.append(f"client {client_id}: settings bled {session['settings']}")
        if session["in_transaction"]:
            problems.append(f"client {client_id}: stuck in a transaction")
    return problems


def final_state(sdb: SinewDB) -> list[tuple[int, int]]:
    return sorted(
        (int(tag), int(seq))
        for tag, seq in sdb.query(f"SELECT tag, seq FROM {TABLE}").rows
    )


def _leftovers(service: SinewService, sdb: SinewDB) -> list[str]:
    """What a finished run may not leave behind, as held at this instant."""
    held = {
        "sessions": bool(service.sessions),
        "open transactions": bool(sdb.db.txn_manager.active),
        "catalog latch": sdb.catalog.latch_owner is not None,
        "service write lock": service.write_lock.locked(),
    }
    return [what for what, is_held in held.items() if is_held]


def run_matrix_cell(
    *,
    n_clients: int,
    loads: int = 2,
    docs_per_load: int = 2,
    durable_path=None,
    checkpoint_interval: float | None = None,
    max_inflight: int = 8,
    with_rollback_storm: bool = False,
) -> None:
    """Boot engine+service, run N clients, assert all three contracts."""
    if durable_path is not None:
        sdb = SinewDB.open(durable_path, "matrix")
    else:
        sdb = SinewDB("matrix")
    try:
        sdb.start_daemon()
        config = ServiceConfig(
            port=0,
            max_sessions=n_clients + 4,
            max_inflight=max_inflight,
            checkpoint_interval=checkpoint_interval,
        )
        with SinewService(sdb, config) as service:
            async def drive():
                return await asyncio.gather(
                    *(
                        _run_client(
                            service.port,
                            client_id,
                            loads=loads,
                            docs_per_load=docs_per_load,
                            with_rollback_storm=with_rollback_storm,
                        )
                        for client_id in range(n_clients)
                    )
                )

            problem_lists = asyncio.run(drive())
            problems = [p for plist in problem_lists for p in plist]
            assert not problems, "\n".join(problems)
            # post-run hygiene on the still-running service.  The close
            # ack is written *before* the connection task's cleanup
            # finishes, so deregistration may trail the client by a beat;
            # and the background checkpointer (write lock, then catalog
            # latch) and the daemon's autocommit transactions legitimately
            # come and go.  Something leaked is something never seen
            # released, so poll for one quiet instant within the deadline.
            deadline = time.monotonic() + 10.0
            leftovers = _leftovers(service, sdb)
            while leftovers and time.monotonic() < deadline:
                time.sleep(0.02)
                leftovers = _leftovers(service, sdb)
            assert not leftovers
        concurrent = final_state(sdb)
    finally:
        sdb.close()

    # serial replay on a fresh embedded instance: loads only (the
    # rollback storm must contribute nothing)
    replay = SinewDB("matrix-replay")
    try:
        replay.create_collection(TABLE)
        for client_id in range(n_clients):
            for batch in client_batches(client_id, loads, docs_per_load):
                replay.load(TABLE, batch)
        assert concurrent == final_state(replay)
    finally:
        replay.close()


def test_concurrency_smoke():
    """Tier-1 lane: one small in-memory cell, daemon live."""
    run_matrix_cell(n_clients=8)


def test_concurrency_smoke_with_rollbacks():
    """Tier-1 lane: concurrent open transactions + rollbacks leave no trace."""
    run_matrix_cell(n_clients=6, with_rollback_storm=True)


@pytest.mark.slow
def test_matrix_durable_with_checkpointer(tmp_path):
    """Durable engine, checkpointer firing mid-run, WAL + daemon live."""
    run_matrix_cell(
        n_clients=24,
        loads=3,
        durable_path=tmp_path / "matrix-db",
        checkpoint_interval=0.1,
        with_rollback_storm=True,
    )


@pytest.mark.slow
def test_matrix_heavy_shedding():
    """max_inflight=2 under 32 clients: busy storms, zero lost writes."""
    run_matrix_cell(n_clients=32, max_inflight=2, with_rollback_storm=True)


@pytest.mark.slow
def test_matrix_large_inmemory():
    """The wide cell: 64 clients, mixed everything."""
    run_matrix_cell(n_clients=64, loads=3, docs_per_load=3, with_rollback_storm=True)
