"""From one run's observations to the metrics ``BENCHMARK.json`` declares.

``BENCHMARK.json`` is the catalogue (names, units, direction, bounds); the
two functions here compute a value for every name in it, and the runner
refuses to print a set that does not match the declaration.  The README
glossary says what each name means.
"""

from __future__ import annotations

import json
import resource
from pathlib import Path
from typing import Any

from harness import Recorder, median, percentile

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]

#: statement kinds that get a ``client.<kind>.p50_ms`` / ``.p99_ms`` pair
CLIENT_KINDS = (
    "execute", "query_pooled", "query_fresh", "load", "txn_update", "update",
    "dirty_read", "mat_step", "lookup_str1", "lookup_num", "lookup_sparse", "lookup_dyn1",
)
NOBENCH_QUERIES = tuple(f"q{i}" for i in range(1, 12))
#: one client, no timer, a fixed operation count: what these workloads make
#: the engine count repeats exactly from run to run
SINGLE_CLIENT = ("nobench_analytic", "point_lookup", "ingest_evolve")
#: units of the per-layer metrics that count work done, not time taken
COUNT_UNITS = ("count", "ratio", "bytes")


def declaration() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def exact_counts(per_layer: dict[str, float]) -> dict[str, float]:
    """The per-layer values that count work; the tracer's own are left out."""
    units = {metric["name"]: metric["unit"] for metric in declaration()["per_layer"]}
    return {
        name: value
        for name, value in per_layer.items()
        if units[name] in COUNT_UNITS and not name.startswith("trace.")
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its reaped children."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(
    rec: Recorder, setup_s: float, children_cpu_s: float, stored_bytes: float, user_bytes: float
) -> dict[str, float]:
    latencies = rec.latencies
    return {
        "setup_s": setup_s,
        "ops_per_s": ratio(max(0, rec.attempted - rec.failed), rec.wall),
        "op_p50_ms": median(latencies) * 1000.0,
        "op_p95_ms": percentile(latencies, 0.95) * 1000.0,
        "cpu_s_per_kop": ratio((rec.cpu + children_cpu_s) * 1000.0, rec.attempted),
        "peak_rss_mb": peak_rss_mb(),
        "stored_bytes_per_user_byte": ratio(stored_bytes, user_bytes),
        "verified_share": ratio(max(0, rec.attempted - rec.failed), rec.attempted),
    }


def per_layer(
    rec: Recorder,
    delta: dict[str, float],
    phases: dict[str, float],
    final: dict[str, float],
    micro: dict[str, float],
    storage: dict[str, float],
    attribution_error: float,
) -> dict[str, float]:
    """Every per-layer metric; 0 where the layer is not on the workload's path.

    ``delta`` is the engine's own counters over the timed part, ``phases``
    the last set-up's phase times, ``final`` what the workload measured
    after the timed part, ``micro`` the per-call replays.
    """
    ops = max(1, rec.attempted)

    def layer_us(name: str) -> float:
        return median(rec.layers.get(name, ())) * 1e6

    def kind_seconds(kind: str) -> float:
        return sum(rec.kinds.get(kind, ()))

    extraction = rec.extraction
    header_reads = extraction["header_decodes"] + extraction["header_cache_hits"]
    lookups = delta.get("plan_cache.hits", 0) + delta.get("plan_cache.misses", 0)
    values = {
        "parser.parse_us": layer_us("parser.parse"),
        "analyzer.analyze_us": layer_us("analyzer.analyze"),
        "rewriter.rewrite_us": layer_us("rewriter.rewrite"),
        "planner.plan_us": layer_us("planner.plan"),
        "plan_cache.normalize_us": layer_us("plan_cache.normalize"),
        "plan_cache.hit_ratio": ratio(delta.get("plan_cache.hits", 0), lookups),
        "plan_cache.evictions": delta.get("plan_cache.evictions", 0),
        "plan_cache.stale_evictions": delta.get("plan_cache.stale_evictions", 0),
        "executor.execute_ms": median(rec.execute_seconds) * 1000.0,
        "executor.tuples_scanned_per_row_returned": ratio(
            delta["db.tuples_scanned"], rec.rows_returned
        ),
        "executor.morsels_per_query": ratio(rec.morsels, rec.selects),
        "executor.parallel_queries": delta["executor.parallel_queries"],
        "extractors.udf_calls_per_op": extraction["udf_calls"] / ops,
        "extractors.header_decodes_per_op": extraction["header_decodes"] / ops,
        "extractors.header_cache_hit_ratio": ratio(extraction["header_cache_hits"], header_reads),
        "extractors.subdoc_decodes_per_op": extraction["subdoc_decodes"] / ops,
        "storage.pages": storage["pages"],
        "storage.heap_bytes": storage["heap_bytes"],
        "loader.load_docs_per_s": ratio(rec.counts["docs_loaded"], kind_seconds("load")),
        "loader.new_attributes": rec.counts["new_attributes"],
        "catalog.attributes": storage["attributes"],
        "catalog.latch_waits": delta["latch.waits"],
        "catalog.latch_wait_s": delta["latch.wait_seconds"],
        "wal.records_per_op": delta["wal.records"] / ops,
        "wal.fsyncs_per_op": delta["wal.fsyncs"] / ops,
        "wal.bytes_per_user_byte": ratio(delta["db.wal_bytes"], rec.counts["user_bytes_loaded"]),
        "checkpoint.count": delta["wal.checkpoints"],
        "checkpoint.write_ms": (
            median(rec.kinds.get("checkpoint", ())) or final.get("final_checkpoint_s", 0.0)
        ) * 1000.0,
        "recovery.open_ms": final.get("recovery.open_ms", 0.0),
        "recovery.rows_verified": final.get("recovery.rows_verified", 0.0),
        "materializer.step_ms_p50": median(rec.kinds.get("mat_step", ())) * 1000.0,
        "materializer.rows_moved_per_s": (
            ratio(rec.counts["rows_moved"], kind_seconds("mat_step"))
            or ratio(delta["daemon.rows_moved"], rec.wall)
        ),
        "materializer.settle_s": phases["settle_s"],
        "statistics.analyze_s": phases["analyze_s"],
        "protocol.encode_result_us_per_row": layer_us("protocol.encode_result_per_row"),
        "protocol.decode_message_us": layer_us("protocol.decode_message"),
        # a byte count kept in the same per-trip lists as the timings
        "protocol.reply_bytes_per_op": median(rec.layers.get("protocol.reply_bytes", ())),
        "server.overhead_ms_p50": layer_us("server.overhead") / 1000.0,
        "server.statements": delta.get("server.statements", 0),
        "server.shed_busy": delta.get("server.shed_busy", 0),
        "server.timeouts": delta.get("server.timeouts", 0),
        "server.journaled": delta.get("server.journaled", 0),
        "server.checkpoints_skipped": delta.get("server.checkpoints_skipped", 0),
        "client.busy_retries": rec.counts["busy_retries"],
        "client.op_p99_ms": percentile(rec.latencies, 0.99) * 1000.0,
        "trace.overhead_share": rec.trace_overhead_share(),
        "trace.attribution_error_share": attribution_error,
        "trace.traced_ops": len(rec.traced),
    }
    values.update(micro)
    for query_id in NOBENCH_QUERIES:
        values[f"executor.{query_id}_ms"] = median(rec.kinds.get(query_id, ())) * 1000.0
    for kind in CLIENT_KINDS:
        samples = rec.kinds.get(kind, ())
        values[f"client.{kind}.p50_ms"] = median(samples) * 1000.0
        values[f"client.{kind}.p99_ms"] = percentile(samples, 0.99) * 1000.0
    return {name: float(value) for name, value in values.items()}
