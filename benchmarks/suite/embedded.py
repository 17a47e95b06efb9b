"""The three single-client workloads that call the engine in process.

Each drives ``SinewDB`` through its public methods only, one statement at a
time, with every default of ``SinewConfig`` / ``DatabaseConfig`` left as a
user gets it.
"""

from __future__ import annotations

import bisect
import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.core import SinewDB, serializer
from repro.core.rewriter import QueryRewriter
from repro.core.sinew import SinewConfig
from repro.nobench.generator import SPARSE_PER_RECORD, NoBenchGenerator
from repro.nobench.queries import QUERY_IDS, SinewNoBench
from repro.nobench.queries import TABLE as NOBENCH_TABLE
from repro.rdbms.cost import CostCounters
from repro.rdbms.sql import parse
from repro.rdbms.sql.ast import SelectStatement

import oracle
from harness import Op, Recorder, Tracer, canonical_json

#: rows of the workload's own table the micro-replays walk
MICRO_ROWS = 400


class Workload:
    """Set-up, one operation, and the final checks of one workload."""

    name = ""
    table = "bench"
    n_docs = 0
    durable = False
    #: The frozen size of a run: timed operations per second of ``--seconds``.
    #: A run makes exactly ``ops_per_second * seconds`` of them, however long
    #: they take, so engine counters and space figures repeat exactly; the
    #: figure is what the seed commit manages on the 2-core gate machine, so
    #: that there a timed part lasts about ``--seconds``.
    ops_per_second = 0.0

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.generator = NoBenchGenerator(self.n_docs, seed=seed)
        self.docs: list[dict[str, Any]] = []
        self.sdb: SinewDB | None = None
        self.root: Path | None = None
        self.phases: dict[str, float] = {}
        #: filled by finish()
        self.final: dict[str, float] = {}

    # -- set-up (timed as setup_s) ---------------------------------------

    def build(self) -> None:
        """Generate, load, settle, ANALYZE: from nothing to ready to query."""
        clock = time.perf_counter
        start = clock()
        self.docs = [self.generator.record(i) for i in range(self.n_docs)]
        generated = clock()
        self.sdb = self.open_engine()
        self.sdb.load(self.table, self.docs)
        loaded = clock()
        self.sdb.settle(self.table)
        settled = clock()
        self.sdb.analyze()
        analyzed = clock()
        self.phases = {
            "generate_s": generated - start,
            "load_s": loaded - generated,
            "settle_s": settled - loaded,
            "analyze_s": analyzed - settled,
        }
        self.boot()

    def open_engine(self) -> SinewDB:
        if self.durable:
            self.root = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_dir))
            sdb = SinewDB.open(self.root, self.name, SinewConfig())
        else:
            sdb = SinewDB(self.name, SinewConfig())
        sdb.create_collection(self.table)
        return sdb

    def boot(self) -> None:
        """Anything more a workload needs before its first operation."""

    def discard(self) -> None:
        if self.sdb is not None:
            self.sdb.close()
            self.sdb = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    # -- the benchmark's own preparation (off every clock) ---------------

    def prepare(self) -> None:
        """Oracle tables and literal pools for the instance just built."""

    # -- measured part ---------------------------------------------------

    def ops(self, seconds: float) -> int:
        return max(2, round(self.ops_per_second * seconds))

    def run(self, ops: int, recorder: Recorder, started) -> None:
        """Warm up, call ``started()``, then run ``ops`` operations."""
        scratch = Recorder()
        for index in range(warmup_ops(ops)):
            self.one_op(scratch, -1 - index, traced=False)
        recorder.absorb_warmup(scratch)
        started()
        for op_id in range(ops):
            self.one_op(recorder, op_id, traced=op_id % 2 == 1)

    def snapshot(self) -> dict[str, float]:
        """Cumulative engine counters, read from public surfaces; the
        runner reports the difference over the timed part."""
        status = self.sdb.status()
        flat = {f"db.{k}": v for k, v in self.sdb.db.counters.snapshot().items()}
        wal = status["wal"]
        flat.update({f"wal.{k}": wal.get(k, 0) for k in ("records", "fsyncs", "checkpoints")})
        flat.update({f"latch.{k}": status["latch"][k] for k in ("waits", "wait_seconds")})
        flat.update({f"plan_cache.{k}": v for k, v in (status["plan_cache"] or {}).items()})
        flat["executor.parallel_queries"] = status["executor"]["parallel_queries"]
        flat["daemon.rows_moved"] = status["daemon"]["rows_moved"]
        return flat

    def one_op(self, recorder: Recorder, op_id: int, traced: bool) -> None:
        raise NotImplementedError

    def finish(self, recorder: Recorder) -> None:
        """Final checks and the space figures, after the timed part."""
        self.final = {
            "user_bytes": float(sum(len(canonical_json(d)) for d in self.docs)),
            "disk_bytes": 0.0,
        }

    def attribute_statement(self, op: Op, sql: str, result: Any) -> None:
        """Split the statement step just taken into the layers it crossed;
        what they leave of the step -- scopes, star expansion, document
        assembly, DML execution -- stays as the step's self time."""
        if not op.traced or result is None:
            return
        parts = statement_layers(self.sdb, sql, op.replay)
        seconds = result.exec_stats.get("execution_seconds")
        if seconds is not None:
            parts.append(("executor.execute", seconds))
        op.derive(parts)
        for name, seconds in parts:
            op.recorder.layers.setdefault(name, []).append(max(0.0, seconds))


def warmup_ops(ops: int) -> int:
    """Untimed operations before the clock starts: 5 % of the run."""
    return max(1, round(ops * 0.05))


def statement_layers(sdb: SinewDB, sql: str, replay) -> list[tuple[str, float]]:
    """What parse, analyze, rewrite and plan cost for ``sql``, by repeating
    them through public functions; ``replay(name, fn, *args)`` times one.

    No public function isolates analyze or plan, so each is the smallest
    public composite minus its parts: ``lint`` is parse + analyze;
    ``explain`` is parse + rewrite + plan (it also renders the plan text,
    which lands in ``planner.plan``).
    """
    parse_s = replay("parser.parse", parse, sql)
    lint_s = replay("sinew.lint", sdb.lint, sql)
    parts = [("parser.parse", parse_s), ("analyzer.analyze", lint_s - parse_s)]
    statement = parse(sql)
    if isinstance(statement, SelectStatement):
        tables = {name: sdb.db.table(name) for name in sdb.collections()}
        rewrite_s = replay(
            "rewriter.rewrite_select",
            lambda: QueryRewriter(sdb.catalog, tables).rewrite_select(statement),
        )
        explain_s = replay("sinew.explain", sdb.explain, sql)
        parts += [
            ("rewriter.rewrite", rewrite_s),
            ("planner.plan", explain_s - parse_s - rewrite_s),
        ]
    return parts


def micro_replays(
    sdb: SinewDB, table_name: str, docs: list[dict], tracer: Tracer
) -> dict[str, float]:
    """Per-call cost of the storage-side layers, over the workload's own table.

    Each loop is one replay span; the figure is the loop's time over its
    call count, so the clock's own cost is spread over hundreds of calls.
    """
    table = sdb.db.table(table_name)
    data_at = table.schema.position_of("data")
    clock = time.perf_counter

    def timed(name: str, fn) -> float:
        start = clock()
        fn()
        end = clock()
        tracer.add(name, start, end, None, -1, "replay")
        return end - start

    rows: list[tuple] = []
    n_rows = min(len(table), 10 * MICRO_ROWS)
    scan_s = timed(
        "storage.scan_range",
        lambda: rows.extend(row for _rid, row in table.scan_range(0, n_rows, CostCounters())),
    )
    blobs = [row[data_at] for row in rows[:MICRO_ROWS] if row[data_at]]
    headers = []
    decode_s = timed(
        "serializer.decode_header",
        lambda: headers.extend(serializer.decode_header(blob) for blob in blobs),
    )
    wanted = [
        (blob, header.ids[-1], sdb.catalog.type_of(header.ids[-1]))
        for blob, header in zip(blobs, headers)
        if header.n
    ]
    extract_s = timed(
        "serializer.extract",
        lambda: [serializer.extract(blob, attr_id, sql_type) for blob, attr_id, sql_type in wanted],
    )
    triples = [
        [
            (attr_id, sdb.catalog.type_of(attr_id),
             serializer.decode_value(raw, sdb.catalog.type_of(attr_id)))
            for attr_id, raw in serializer.iterate(blob)
        ]
        for blob in blobs
    ]
    serialize_s = timed(
        "serializer.serialize", lambda: [serializer.serialize(t) for t in triples]
    )
    sample = docs[:MICRO_ROWS]
    document_s = timed(
        "loader.serialize_document",
        lambda: [sdb.loader.serialize_document(document) for document in sample],
    )
    return {
        "storage.scan_us_per_krow": scan_s * 1e9 / max(1, len(rows)),
        "serializer.decode_header_us": decode_s * 1e6 / max(1, len(blobs)),
        "serializer.extract_us": extract_s * 1e6 / max(1, len(wanted)),
        "serializer.serialize_us_per_doc": serialize_s * 1e6 / max(1, len(triples)),
        "loader.serialize_document_us": document_s * 1e6 / max(1, len(sample)),
    }


# ---------------------------------------------------------------------------


class NoBenchAnalytic(Workload):
    """One op = one pass over q1-q11 in fixed order (paper Fig. 6/7)."""

    name = "nobench_analytic"
    n_docs = 4000
    ops_per_second = 5
    table = NOBENCH_TABLE

    def open_engine(self) -> SinewDB:
        self.adapter = SinewNoBench(self.generator.params(), SinewConfig())
        return self.adapter.sdb

    def prepare(self) -> None:
        self.statements = [(q, self.adapter.sql_for(q)) for q in QUERY_IDS]
        self.expected = oracle.nobench(self.docs, self.adapter.params)

    def one_op(self, recorder: Recorder, op_id: int, traced: bool) -> None:
        op = Op(recorder, op_id, "pass", traced)
        for query_id, sql in self.statements:
            result = op.step(query_id, self.sdb.query, sql)
            op.check_select(result, self.expected[query_id], query_id)
            self.attribute_statement(op, sql, result)
        op.close()


class PointLookup(Workload):
    """One op = one ``SELECT *`` with a fresh literal, returning few rows.

    The executor picks its lane from the size of the input: a table of one
    morsel (``MORSEL_ROWS`` = 4 096 rows) is scanned on the calling thread,
    a larger one by the default parallel lane.  Three shapes look up in a
    collection on the near side of that choice, the fourth in one on the
    far side.
    """

    name = "point_lookup"
    n_docs = 4000
    ops_per_second = 85
    WIDE_TABLE, WIDE_DOCS = "bench_wide", 8000

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.wide_generator = NoBenchGenerator(self.WIDE_DOCS, seed=seed + 1)

    def build(self) -> None:
        super().build()
        self.wide_docs = [self.wide_generator.record(i) for i in range(self.WIDE_DOCS)]
        self.sdb.create_collection(self.WIDE_TABLE)
        self.sdb.load(self.WIDE_TABLE, self.wide_docs)
        self.sdb.settle(self.WIDE_TABLE)
        self.sdb.analyze()

    def next_statement(self) -> tuple[str, str, list[dict], tuple]:
        g, n, rng = self.generator, self.n_docs, self.rng
        draw = rng.random()
        if draw < 0.60:
            value = g.str1_of(rng.randrange(n))
            return "lookup_str1", f"SELECT * FROM {self.table} WHERE str1 = '{value}'", (
                self.docs), (oracle.equals, "str1", value)
        if draw < 0.75:
            low = rng.randrange(n - 3)
            return "lookup_num", (
                f"SELECT * FROM {self.table} WHERE num BETWEEN {low} AND {low + 3}"
            ), self.docs, (oracle.int_between, "num", low, low + 3)
        if draw < 0.90:
            # a key and value some record really has, so the lookup hits
            record = rng.randrange(n)
            index = rng.randrange(1, SPARSE_PER_RECORD)
            key = f"sparse_{g.sparse_cluster_of(record) * SPARSE_PER_RECORD + index:03d}"
            value = g.sparse_value_of(record, index)
            return "lookup_sparse", f"SELECT * FROM {self.table} WHERE {key} = '{value}'", (
                self.docs), (oracle.equals, key, value)
        low = rng.randrange(self.WIDE_DOCS - 9)
        return "lookup_dyn1", (
            f"SELECT * FROM {self.WIDE_TABLE} WHERE dyn1 BETWEEN {low} AND {low + 9}"
        ), self.wide_docs, (oracle.int_between, "dyn1", low, low + 9)

    def one_op(self, recorder: Recorder, op_id: int, traced: bool) -> None:
        kind, sql, docs, (expect, *args) = self.next_statement()
        op = Op(recorder, op_id, "lookup", traced)
        result = op.step(kind, self.sdb.query, sql)
        op.check_select(result, expect(docs, *args), kind)
        self.attribute_statement(op, sql, result)
        op.close()

    def finish(self, recorder: Recorder) -> None:
        super().finish(recorder)
        self.final["user_bytes"] += sum(len(canonical_json(d)) for d in self.wide_docs)


class IngestEvolve(Workload):
    """One op = one 10-statement write cycle on a durable, growing table.

    No timer and no daemon thread: the materializer runs as an explicit
    step, so WAL, fsync and row-move counts depend on the op count alone.
    """

    name = "ingest_evolve"
    n_docs = 2000
    durable = True
    ops_per_second = 8
    #: record ids and ``num`` values are drawn from this many; a power of
    #: two far above what a run can load, so ``num`` stays unique
    UNIVERSE = 1 << 18
    LOADS, BATCH, UPDATES, STEP_ROWS, CHECKPOINT_EVERY = 6, 10, 2, 200, 20
    #: documents a range read should return
    READ_ROWS = 10

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.generator = NoBenchGenerator(self.UNIVERSE, seed=seed)

    def prepare(self) -> None:
        #: what the table must hold: num -> document
        self.model = {doc["num"]: doc for doc in self.docs}
        self.nums = sorted(self.model)
        self.loaded = self.n_docs
        self.cycles = 0

    def one_op(self, recorder: Recorder, op_id: int, traced: bool) -> None:
        sdb, rng, g = self.sdb, self.rng, self.generator
        op = Op(recorder, op_id, "cycle", traced)
        for _ in range(self.LOADS):
            batch = [g.record(i) for i in range(self.loaded, self.loaded + self.BATCH)]
            report = op.step("load", sdb.load, self.table, batch)
            if report is None:
                continue
            op.check(report.n_documents == self.BATCH, "load: wrong document count")
            self.loaded += self.BATCH
            for doc in batch:
                self.model[doc["num"]] = doc
                bisect.insort(self.nums, doc["num"])
            recorder.counts["docs_loaded"] += self.BATCH
            recorder.counts["new_attributes"] += report.new_attributes
            recorder.counts["user_bytes_loaded"] += sum(len(canonical_json(d)) for d in batch)
            if op.traced:
                seconds = op.replay(
                    "loader.serialize_document",
                    lambda: [sdb.loader.serialize_document(d) for d in batch],
                )
                op.derive([("loader.serialize_document", seconds)])
        for index in range(self.UPDATES):
            # a virtual column, so the reservoir is rewritten.  Not a
            # physical one: at this commit an UPDATE of a dirty physical
            # column is not visible to reads until the materializer has
            # passed the row (README, "What the oracle found"), and a
            # workload must be one on which no operation fails.
            num = g.num_of(rng.randrange(self.loaded))
            value = f"u{op_id}.{index}"
            sql = f"UPDATE {self.table} SET str2 = '{value}' WHERE num = {num}"
            result = op.step("update", sdb.execute, sql)
            if result is not None:
                op.check(result.rowcount == 1, "update: did not change exactly one row")
                self.model[num] = {**self.model[num], "str2": value}
                self.attribute_statement(op, sql, result)
        # num is dirty here (rows loaded above are not moved yet), so this
        # read goes through the COALESCE bridge
        width = self.READ_ROWS * self.UNIVERSE // self.loaded
        low = rng.randrange(self.UNIVERSE - width)
        sql = f"SELECT * FROM {self.table} WHERE num BETWEEN {low} AND {low + width}"
        result = op.step("dirty_read", sdb.query, sql)
        first = bisect.bisect_left(self.nums, low)
        last = bisect.bisect_right(self.nums, low + width)
        op.check_select(
            result, oracle.documents(self.model[n] for n in self.nums[first:last]), "dirty_read"
        )
        self.attribute_statement(op, sql, result)
        report = op.step("mat_step", sdb.materializer_step, self.table, self.STEP_ROWS)
        if report is not None:
            recorder.counts["rows_moved"] += report.rows_moved
        self.cycles += 1
        if self.cycles % self.CHECKPOINT_EVERY == 0:
            op.step("checkpoint", sdb.checkpoint)
        op.close()

    def finish(self, recorder: Recorder) -> None:
        """Crash-style stop (no checkpoint), reopen, and check that every
        acknowledged document and update is there.  Every commit was
        fsynced (``wal_group_commit=1``), so nothing acknowledged sits
        only in the operating system's cache at this point."""
        self.sdb.db.close(checkpoint=False)
        start = time.perf_counter()
        self.sdb = SinewDB.open(self.root, self.name, SinewConfig())
        open_s = time.perf_counter() - start
        held = oracle.documents(doc for _id, doc in self.sdb.documents(self.table))
        expected = oracle.documents(self.model.values())
        lost = sum((expected - held).values())
        if lost or held != expected:
            recorder.failed += max(1, lost)
            recorder.failures["acknowledged write absent or changed after reopen"] += max(1, lost)
        start = time.perf_counter()
        self.sdb.checkpoint()
        checkpoint_s = time.perf_counter() - start
        self.final = {
            "user_bytes": float(sum(len(row[0]) for row in expected.elements())),
            "disk_bytes": float(disk_bytes(self.root)),
            "recovery.open_ms": open_s * 1000.0,
            "recovery.rows_verified": float(sum(held.values())),
            "final_checkpoint_s": checkpoint_s,
        }


def disk_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())
