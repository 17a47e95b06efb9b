"""Clocks, result checking and span recording shared by the workloads.

Nothing here knows a workload: a workload builds :class:`Op` objects around
its own calls into the engine, and the runner turns the :class:`Recorder`
into metrics.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from typing import Any, Callable, Iterable

#: exec_stats counters summed over every SELECT of the timed part
EXTRACTION_COUNTERS = (
    "udf_calls",
    "header_decodes",
    "header_cache_hits",
    "subdoc_decodes",
    "subdoc_cache_hits",
)


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 0.5)


def canonical_json(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_rows(rows: Iterable[tuple]) -> Counter:
    """Order-free form of a result: SQL promises no row order without
    ORDER BY, and documents compare by content, not key order."""
    return Counter(
        tuple(
            canonical_json(value) if isinstance(value, (dict, list)) else value
            for value in row
        )
        for row in rows
    )


class Tracer:
    """In-memory span log, written out once the run is over.

    Span kinds: ``real`` is measured around a call the workload makes
    anyway; ``replay`` is measured around a repeat of a layer's public
    function made only to learn its cost; ``derived`` is a child whose
    duration was computed (a composite replay minus its parts) or
    reported by the engine (``exec_stats.execution_seconds``), laid end to
    end from its parent's start.  A layer's self time is its span minus
    its ``real`` and ``derived`` children; replays are evidence, not
    children.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    def add(
        self, name: str, start: float, end: float, parent: int | None, op_id: int,
        kind: str = "real",
    ) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "op_id": op_id, "kind": kind}
        )
        return len(self.spans) - 1

    def add_step(
        self, name: str, start: float, end: float, parent: int | None, op_id: int,
        derived: list[tuple[str, float]] = (), replays: list[tuple[str, float, float]] = (),
    ) -> int:
        """One real span with its computed children tiled from its start
        and the replays they were computed from."""
        step = self.add(name, start, end, parent, op_id)
        cursor = start
        for child, duration in derived:
            duration = max(0.0, duration)
            self.add(child, cursor, cursor + duration, step, op_id, "derived")
            cursor += duration
        for child, replay_start, replay_end in replays:
            self.add(child, replay_start, replay_end, step, op_id, "replay")
        return step

    def self_times(self) -> tuple[dict[str, list[float]], float]:
        """Self seconds per span name, and the attribution error: the
        share by which children overran their parents, summed over roots
        (0 when every tree adds up to its root)."""
        child_time = Counter()
        for span in self.spans:
            if span["kind"] != "replay" and span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        by_name: dict[str, list[float]] = {}
        overrun = roots = 0.0
        for span in self.spans:
            if span["kind"] == "replay":
                continue
            duration = span["end"] - span["start"]
            own = duration - child_time[span["id"]]
            overrun += max(0.0, -own)
            if span["parent"] is None:
                roots += duration
            by_name.setdefault(span["name"], []).append(max(0.0, own))
        return by_name, (overrun / roots if roots else 0.0)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class Recorder:
    """Everything one timed part observed."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: Counter = Counter()
        self.failed = 0
        #: op latencies in seconds, split by whether the op recorded spans
        self.plain: list[float] = []
        self.traced: list[float] = []
        #: the same latencies by (kind of operation, traced or not)
        self.by_label: dict[tuple[str, bool], list[float]] = {}
        #: seconds of the timed part as its clients saw them: inside
        #: operations for a single client (the oracle checks between them
        #: are excluded), wall clock for concurrent clients
        self.wall = 0.0
        self.cpu = 0.0
        self.kinds: dict[str, list[float]] = {}
        #: engine-reported counters over every SELECT result
        self.extraction: Counter = Counter()
        self.selects = 0
        self.rows_returned = 0
        self.morsels = 0
        self.execute_seconds: list[float] = []
        #: free-form counts a workload adds (docs loaded, user bytes, ...)
        self.counts: Counter = Counter()
        #: seconds per layer name, one entry per traced statement
        self.layers: dict[str, list[float]] = {}

    def select_stats(self, rows: int, exec_stats: dict[str, Any]) -> None:
        self.selects += 1
        self.rows_returned += rows
        for name in EXTRACTION_COUNTERS:
            self.extraction[name] += exec_stats.get(name, 0)
        self.morsels += exec_stats.get("morsels", 0)
        if "execution_seconds" in exec_stats:
            self.execute_seconds.append(exec_stats["execution_seconds"])

    def finish_op(self, latency: float, traced: bool, failure: str | None, label: str) -> None:
        self.attempted += 1
        (self.traced if traced else self.plain).append(latency)
        self.by_label.setdefault((label, traced), []).append(latency)
        if failure is not None:
            self.failed += 1
            self.failures[failure] += 1

    def absorb_warmup(self, warmup: "Recorder") -> None:
        """A warm-up op is not measured, but one that failed still counts."""
        self.attempted += warmup.failed
        self.failed += warmup.failed
        self.failures.update(warmup.failures)

    def trace_overhead_share(self) -> float:
        """How much longer traced operations took than untraced ones, as a
        share: medians compared kind by kind (a mix's overall medians would
        mostly compare which kinds each side happened to draw), weighted by
        how often the kind ran."""
        extra = base = 0.0
        for (label, traced), samples in self.by_label.items():
            plain = self.by_label.get((label, False), ())
            if traced and len(samples) >= 5 and len(plain) >= 5:
                extra += len(samples) * (median(samples) - median(plain))
                base += len(samples) * median(plain)
        return extra / base if base else 0.0

    @property
    def latencies(self) -> list[float]:
        return self.plain + self.traced


class Op:
    """One operation of an embedded workload.

    Each engine call is one timed :meth:`step`; the oracle checks between
    steps stay off the clock, so op latency is the sum of its steps.
    Process CPU is read around each step too (it covers the executor's
    worker threads), which keeps the benchmark's own checking out of
    ``cpu_s_per_kop``.
    """

    def __init__(self, recorder: Recorder, op_id: int, name: str, traced: bool):
        self.recorder = recorder
        self.op_id = op_id
        self.name = name
        self.traced = traced and recorder.tracer is not None
        self.latency = 0.0
        self.failure: str | None = None
        self.first_start: float | None = None
        #: kind of the first step: what sort of operation this one is
        self.label = name
        self.steps: list[dict[str, Any]] = []

    def step(self, kind: str, fn: Callable, *args: Any) -> Any:
        """Run and time one engine call; an exception fails the op."""
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as error:  # the op failed; the run goes on
            result = None
            self.fail(f"{kind} raised {type(error).__name__}: {error}"[:160])
        end = time.perf_counter()
        self.recorder.cpu += time.process_time() - cpu_start
        self.latency += end - start
        self.recorder.kinds.setdefault(kind, []).append(end - start)
        if self.first_start is None:
            self.first_start = start
            self.label = kind
        if self.traced:
            self.steps.append(
                {"name": kind, "seconds": end - start, "derived": [], "replays": []}
            )
        return result

    def replay(self, name: str, fn: Callable, *args: Any) -> float:
        """Repeat a layer's public function to learn what it costs inside
        the step just taken; off the op's clock.  Returns its seconds."""
        start = time.perf_counter()
        fn(*args)
        end = time.perf_counter()
        self.steps[-1]["replays"].append((name, start, end))
        return end - start

    def derive(self, parts: list[tuple[str, float]]) -> None:
        """Name the computed children of the step just taken."""
        self.steps[-1]["derived"].extend(parts)

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.fail(reason)

    def check_select(self, result: Any, expected: Counter, what: str) -> None:
        """A SELECT's rows against the oracle's, plus counter bookkeeping."""
        if result is None:
            return
        self.recorder.select_stats(len(result.rows), result.exec_stats)
        self.check(canonical_rows(result.rows) == expected, f"{what}: rows differ from oracle")

    def close(self) -> None:
        """End the op and, when traced, emit its span tree.

        The root span is as long as the op's latency: it starts at the
        first step and the steps are laid end to end inside it, so the
        oracle checks that ran between steps leave no gap in the tree.
        """
        self.recorder.wall += self.latency
        self.recorder.finish_op(self.latency, self.traced, self.failure, self.label)
        if not self.traced:
            return
        tracer = self.recorder.tracer
        cursor = self.first_start or 0.0
        root = tracer.add(self.name, cursor, cursor + self.latency, None, self.op_id)
        for step in self.steps:
            tracer.add_step(
                step["name"], cursor, cursor + step["seconds"], root, self.op_id,
                step["derived"], step["replays"],
            )
            cursor += step["seconds"]
