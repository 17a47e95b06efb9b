"""``service_mixed``: two closed-loop clients against a live ``SinewService``.

The only workload that crosses the wire: codec, sessions, admission, the
write latch, the plan cache, the retry journal, and the loader-vs-daemon
catalog latch all sit on its path, with the materializer daemon, the 0.5 s
checkpointer and the supervisor running as they do in production.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any

from repro.core import SinewDB
from repro.core.plan_cache import normalize_sql
from repro.core.sinew import SinewConfig
from repro.service import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceConfig,
    ServiceError,
    SinewService,
    decode_message,
    decode_result,
    encode_message,
    encode_result,
)

import oracle
from embedded import Workload, disk_bytes, statement_layers, warmup_ops
from harness import Recorder, canonical_json, canonical_rows

#: a closed loop per connection; never more than nproc (2 on the gate machine)
CLIENTS = 2
#: the only non-default service setting: the checkpointer is off by default
CHECKPOINT_INTERVAL = 0.5
POOL_TEXTS = 64
LOAD_BATCH = 5
#: preloaded documents (the highest ``num`` values) that only UPDATEs touch
UPDATE_ROWS = 200
#: traced read round trips replayed after the timed part, about this many
REPLAY_SAMPLE = 300


class _Client:
    """One connection: its own literals, its own documents, its own log."""

    def __init__(self, workload: "ServiceMixed", cid: int):
        self.w = workload
        self.cid = cid
        self.rng = random.Random(workload.seed * 1000 + cid)
        self.conn: AsyncServiceClient | None = None
        #: documents this client loaded or updated: num -> document
        self.model: dict[int, dict] = {}
        self.loaded = 0
        # Updates go to preloaded rows of its own, settled before the daemon
        # started.  Not to rows it has just loaded: at this commit the daemon
        # can write back a row image it fetched before a concurrent UPDATE
        # committed and so lose the update (README, "What the oracle found").
        n = workload.n_docs
        self.update_nums = [k for k in range(n - UPDATE_ROWS, n) if k % CLIENTS == cid]
        #: reads to check after the timed part: (kind, expected key, rows)
        self.reads: list[tuple[str, tuple, list[tuple]]] = []

    async def connect(self) -> None:
        self.conn = AsyncServiceClient(
            "127.0.0.1", self.w.port, retry=RetryPolicy(), seed=self.w.seed * 1000 + self.cid
        )
        await self.conn.connect()
        await self.conn.request({"op": "prepare", "name": "agg", "sql": self.w.agg_sql})

    async def load(self, recorder: Recorder) -> None:
        n, g = self.w.n_docs, self.w.generator
        batch = []
        for _ in range(LOAD_BATCH):
            seq = self.loaded + len(batch)
            # num far above the base range, so no read below ever sees it
            batch.append(
                {**g.record(self.rng.randrange(n)), "num": 1_000_000 * (self.cid + 1) + seq,
                 "str1": f"c{self.cid}-{seq}", "tag": self.cid}
            )
        report = await self.conn.load(self.w.table, batch)
        if report["loaded"] != LOAD_BATCH:
            raise ServiceError("oracle", f"load acknowledged {report['loaded']} documents")
        self.loaded += LOAD_BATCH
        for doc in batch:
            self.model[doc["num"]] = doc
        recorder.counts["docs_loaded"] += LOAD_BATCH
        recorder.counts["new_attributes"] += report["new_attributes"]
        recorder.counts["user_bytes_loaded"] += sum(len(canonical_json(d)) for d in batch)

    async def read(
        self, recorder: Recorder, trips: list, kind: str, key: tuple, message: dict
    ) -> None:
        start = time.perf_counter()
        response = await self.conn.request(message)
        result = decode_result(response["result"])
        trips.append((kind, message, response, start, time.perf_counter()))
        self.reads.append((kind, key, result.rows))
        recorder.select_stats(len(result.rows), result.exec_stats)

    async def write(self, trips: list, name: str, request) -> Any:
        """One write round trip; it has no replay, so only its span is kept."""
        start = time.perf_counter()
        result = await request
        trips.append((name, None, None, start, time.perf_counter()))
        return result

    async def one_op(self, recorder: Recorder, op_id: int, traced: bool) -> None:
        rng, n, table = self.rng, self.w.n_docs, self.w.table
        traced = traced and recorder.tracer is not None
        draw = rng.random()
        trips: list = []
        failure = None
        start = time.perf_counter()
        try:
            if draw < 0.40:
                kind = "execute"
                await self.read(recorder, trips, kind, ("agg",), {"op": "execute", "name": "agg"})
            elif draw < 0.60:
                kind = "query_pooled"
                low, high, sql = rng.choice(self.w.pool)
                await self.read(recorder, trips, kind, (low, high), {"op": "query", "sql": sql})
            elif draw < 0.80:
                kind = "query_fresh"
                low = rng.randrange(n - UPDATE_ROWS - 10)
                high = low + rng.randrange(10)
                sql = f"SELECT * FROM {table} WHERE num BETWEEN {low} AND {high}"
                await self.read(recorder, trips, kind, (low, high), {"op": "query", "sql": sql})
            elif draw < 0.90:
                kind = "load"
                await self.write(trips, kind, self.load(recorder))
            else:
                kind = "txn_update"
                num = rng.choice(self.update_nums)
                value = f"x{self.cid}_{op_id}"
                await self.write(trips, "begin", self.conn.query("BEGIN"))
                result = await self.write(trips, "update", self.conn.query(
                    f"UPDATE {table} SET str2 = '{value}' WHERE num = {num}"
                ))
                await self.write(trips, "commit", self.conn.query("COMMIT"))
                if result.rowcount != 1:
                    failure = "txn_update: did not change exactly one row"
                self.model[num] = {**self.model.get(num, self.w.by_num[num]), "str2": value}
        except (ServiceError, ConnectionError, OSError, asyncio.TimeoutError) as error:
            failure = f"{kind}: {type(error).__name__}: {error}"[:160]
        end = time.perf_counter()
        recorder.kinds.setdefault(kind, []).append(end - start)
        recorder.finish_op(end - start, traced, failure, kind)
        if traced and failure is None:
            root = recorder.tracer.add("request", start, end, None, op_id)
            for trip in trips:
                if trip[1] is None:
                    recorder.tracer.add(trip[0], trip[3], trip[4], root, op_id)
                else:  # a read: attributed after the timed part
                    self.w.traced_trips.append((root, op_id, *trip))


class ServiceMixed(Workload):
    """One op = one request of a 40/20/20/10/10 mix (see README)."""

    name = "service_mixed"
    n_docs = 2000
    durable = True
    ops_per_second = 100
    service: SinewService | None = None

    def boot(self) -> None:
        self.sdb.start_daemon()
        self.service = SinewService(
            self.sdb, ServiceConfig(checkpoint_interval=CHECKPOINT_INTERVAL)
        )
        self.port = self.service.start_in_thread()

    def discard(self) -> None:
        if self.service is not None:
            self.service.stop_in_thread()
            self.service = None
        super().discard()

    def prepare(self) -> None:
        n, table = self.n_docs, self.table
        self.by_num = {doc["num"]: doc for doc in self.docs}
        low = n // 5
        self.agg_range = (low, low + n // 100)
        self.agg_sql = (
            f"SELECT thousandth, count(*) FROM {table} "
            f"WHERE num BETWEEN {low} AND {low + n // 100} GROUP BY thousandth"
        )
        # 64 texts fit the 256-entry plan cache; fresh literals never do
        self.pool = [
            (k, k + 4, f"SELECT * FROM {table} WHERE num BETWEEN {k} AND {k + 4}")
            for k in range(0, n - UPDATE_ROWS - 4, (n - UPDATE_ROWS) // POOL_TEXTS)
        ][:POOL_TEXTS]
        self.traced_trips: list[tuple] = []
        self.clients = [_Client(self, cid) for cid in range(CLIENTS)]

    # -- measured part ---------------------------------------------------

    def run(self, ops: int, recorder: Recorder, started) -> None:
        asyncio.run(self._drive(ops, recorder, started))

    async def _drive(self, ops: int, recorder: Recorder, started) -> None:
        await asyncio.gather(*(client.connect() for client in self.clients))
        scratch = Recorder()
        await self._closed_loops(warmup_ops(ops), scratch)
        recorder.absorb_warmup(scratch)
        started()
        cpu = time.process_time()
        start = time.perf_counter()
        await self._closed_loops(ops, recorder)
        recorder.wall = time.perf_counter() - start
        recorder.cpu = time.process_time() - cpu
        recorder.counts["busy_retries"] = sum(c.conn.retries for c in self.clients)
        await asyncio.gather(*(client.conn.close() for client in self.clients))

    async def _closed_loops(self, ops: int, recorder: Recorder) -> None:
        """The clients share ``ops`` operations: each takes the next one
        when its previous reply has come."""
        issued = 0

        async def loop(client: _Client) -> None:
            nonlocal issued
            while issued < ops:
                op_id = issued
                issued += 1
                await client.one_op(recorder, op_id, traced=op_id % 2 == 1)

        await asyncio.gather(*(loop(client) for client in self.clients))

    def snapshot(self) -> dict[str, float]:
        flat = super().snapshot()
        flat.update({f"server.{k}": v for k, v in self.service.counters.items()})
        return flat

    # -- after the timed part --------------------------------------------

    def finish(self, recorder: Recorder) -> None:
        self._check_reads(recorder)
        # close acks precede the server's own connection clean-up
        deadline = time.perf_counter() + 10.0
        while self.service.sessions and time.perf_counter() < deadline:
            time.sleep(0.02)
        leaks = []
        if self.service.sessions:
            leaks.append(f"{len(self.service.sessions)} sessions still registered")
        if recorder.tracer is not None:
            self._replay_trips(recorder)
        self.service.stop_in_thread()
        self.service = None
        self.sdb.stop_daemon()
        if self.sdb.db.txn_manager.active:
            leaks.append(f"{len(self.sdb.db.txn_manager.active)} open transactions")
        holder = self.sdb.status()["latch"]["holder"]
        if holder is not None:
            leaks.append(f"catalog latch held by {holder}")
        # the clients wrote disjoint documents, so their models together
        # are the serial replay of the run, whatever the interleaving was
        final = dict(self.by_num)
        for client in self.clients:
            final.update(client.model)
        expected = oracle.documents(final.values())
        held = oracle.documents(doc for _id, doc in self.sdb.documents(self.table))
        if held != expected:
            leaks.append("final state differs from the serial replay")
        start = time.perf_counter()
        self.sdb.checkpoint()
        checkpoint_s = time.perf_counter() - start
        self.sdb.close()
        start = time.perf_counter()
        self.sdb = SinewDB.open(self.root, self.name, SinewConfig())
        open_s = time.perf_counter() - start
        reopened = oracle.documents(doc for _id, doc in self.sdb.documents(self.table))
        if reopened != expected:
            leaks.append("acknowledged write absent or changed after reopen")
        for leak in leaks:
            recorder.failed += 1
            recorder.failures[leak] += 1
        self.final = {
            "user_bytes": float(sum(len(row[0]) for row in expected.elements())),
            "disk_bytes": float(disk_bytes(self.root)),
            "recovery.open_ms": open_s * 1000.0,
            "recovery.rows_verified": float(sum(reopened.values())),
            "final_checkpoint_s": checkpoint_s,
        }

    def _check_reads(self, recorder: Recorder) -> None:
        """Every read of the timed part against the oracle.  Base
        documents are never written, so their expected rows are fixed."""
        agg = oracle.group_count(self.docs, "num", "thousandth", *self.agg_range)
        for client in self.clients:
            for kind, key, rows in client.reads:
                if kind == "execute":
                    expected = agg
                else:
                    low, high = key
                    expected = oracle.documents(
                        self.by_num[k] for k in range(low, high + 1) if k in self.by_num
                    )
                if canonical_rows(rows) != expected:
                    recorder.failed += 1
                    recorder.failures[
                        f"{kind} {key}: {len(rows)} rows differ from the oracle's "
                        f"{sum(expected.values())}"
                    ] += 1

    def _replay_trips(self, recorder: Recorder) -> None:
        """Attribute traced read round trips, now that the clients are idle.

        Children of a round trip: request encode (client) and decode
        (server), the engine's share as an embedded ``SinewDB.query`` of
        the same statement (through the plan cache, unless the literal was
        fresh and the server's lookup surely missed), result encode
        (server), reply decode and result decode (client).  The self time
        left is what the service adds: sockets, asyncio, thread hand-off,
        admission, session and journal bookkeeping, and waiting behind the
        other connection -- the replay runs alone, the request did not.
        """
        tracer, sdb, layers = recorder.tracer, self.sdb, recorder.layers
        every = max(1, len(self.traced_trips) // REPLAY_SAMPLE)  # spread over the run
        for root, op_id, kind, message, response, start, end in self.traced_trips[::every]:
            replays: list[tuple[str, float, float]] = []

            def timed(name, fn, *args):
                begin = time.perf_counter()
                value = fn(*args)
                finish = time.perf_counter()
                replays.append((name, begin, finish))
                return finish - begin, value

            sql = message.get("sql", self.agg_sql)
            encode_s, request = timed("protocol.encode_message", encode_message, message)
            decode_s, _ = timed("protocol.decode_message", decode_message, request)
            reply = encode_message(response)
            reply_decode_s, _ = timed("protocol.decode_message", decode_message, reply)
            decode_s += reply_decode_s
            normalize_s, _ = timed("plan_cache.normalize", normalize_sql, sql)
            engine_s, result = timed(
                "sinew.query", lambda: sdb.query(sql, use_plan_cache=kind != "query_fresh")
            )
            encode_result_s, _ = timed("protocol.encode_result", encode_result, result)
            decode_result_s, _ = timed("protocol.decode_result", decode_result, response["result"])
            children = [
                ("protocol.encode_message", encode_s),
                ("protocol.decode_message", decode_s),
                ("sinew.query", engine_s),
                ("protocol.encode_result", encode_result_s),
                ("protocol.decode_result", decode_result_s),
            ]
            parts = statement_layers(sdb, sql, lambda *call: timed(*call)[0]) + [
                ("plan_cache.normalize", normalize_s),
                ("protocol.decode_message", decode_s),
                ("protocol.encode_result_per_row", encode_result_s / max(1, len(result.rows))),
                ("protocol.reply_bytes", float(len(reply))),
            ]
            if kind == "query_fresh":
                attributed = sum(seconds for _name, seconds in children)
                parts.append(("server.overhead", (end - start) - attributed))
            tracer.add_step(kind, start, end, root, op_id, children, replays)
            for name, seconds in parts:
                layers.setdefault(name, []).append(max(0.0, seconds))
