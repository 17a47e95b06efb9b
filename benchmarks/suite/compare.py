"""Compare two result files of ``run.py`` (the whole set), metric by metric.

    python3 benchmarks/suite/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, the ratio B/A (A is
the base), and a verdict from the bounds in ``BENCHMARK.json``:

* ``unresolved``  either side's run-to-run spread (quartile distance over
                  median, from ``--repeat``) is wider than the bound, so the
                  row can show neither a regression nor its absence;
* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the bound;
* ``within bound`` otherwise.

``better`` is a reading of the ruler, not a claim: a gain is claimed from ten
interleaved pairs of runs (choosing-metrics guide, section 8).  Where both
files hold a traced run, the counts the engine made on the single-client
workloads are compared too: same commit, seed and size must give the same
counts exactly.

Exit code 1 if any row is ``worse`` or ``unresolved`` or a workload is missing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import SINGLE_CLIENT, declaration, exact_counts


def spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["median"] if metric["median"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    base = a["median"]
    change = (b["median"] - base) / base if base else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within bound"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in sys.argv[1:])
    declared = declaration()
    print(f"A = {sys.argv[1]} (seed {a['seed']}, commit {a['environment']['commit']}, "
          f"{a['repeat']} runs); B = {sys.argv[2]} (seed {b['seed']}, "
          f"commit {b['environment']['commit']}, {b['repeat']} runs); base of every ratio: A")
    for side, payload in (("A", a), ("B", b)):
        if payload["environment"]["noisy"]:
            print(f"note: {side} started with load average above nproc; its timings are suspect")
    print(f"{'workload':18s} {'metric':28s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>7s}  verdict")
    bad = 0
    same_inputs = (a["seed"], a["seconds"]) == (b["seed"], b["seconds"])
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload)
        if other is None:
            print(f"{workload:18s} missing from B")
            bad += 1
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            left, right = entry["end_to_end"][name], other["end_to_end"][name]
            label = verdict(left, right, metric["better"], metric["bound"])
            ratio = right["median"] / left["median"] if left["median"] else float("nan")
            bad += label in ("worse", "unresolved")
            print(f"{workload:18s} {name:28s} {left['median']:12.4f} {right['median']:12.4f} "
                  f"{ratio:7.3f} {spread(left):9.4f} {spread(right):9.4f} "
                  f"{metric['bound']:7.4f}  {label}")
        traced = "per_layer" in entry and "per_layer" in other
        if same_inputs and traced and workload in SINGLE_CLIENT:
            left, right = exact_counts(entry["per_layer"]), exact_counts(other["per_layer"])
            differ = {name: (left[name], right[name]) for name in left if left[name] != right[name]}
            print(f"{workload:18s} {len(left)} engine counts of the traced run: "
                  + (f"differ: {differ}" if differ else "identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
