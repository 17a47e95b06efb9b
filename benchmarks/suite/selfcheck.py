"""Check the benchmark itself, in about a minute and a half.

    python3 benchmarks/suite/selfcheck.py

Fails (exit code 1) unless every workload's smoke run reports every metric
``BENCHMARK.json`` declares, with a well-formed name and a unit, no operation
fails, the read-only workloads make no fsync, the traced run writes a span
file whose trees add up to their roots within 5 %, and two smoke runs of each
single-client workload with the same seed report identical engine counts.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

from metrics import ROOT, SINGLE_CLIENT, SUITE, declaration, exact_counts

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
READ_ONLY = ("nobench_analytic", "point_lookup")


def smoke(workload: str, trace: int, seed: int = 42) -> dict:
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict[str, float]:
    return exact_counts({name: metric["value"] for name, metric in result["metrics"].items()})


def main() -> int:
    declared = declaration()
    problems: list[str] = []
    wanted = {
        0: {m["name"] for m in declared["end_to_end"]},
        1: {m["name"] for m in declared["per_layer"]},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            print(f"smoke: {workload} --trace {trace}", flush=True)
            result = smoke(workload, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} --trace {trace}: {result['failed']} failed operations")
            if set(result["metrics"]) != wanted[trace]:
                problems.append(f"{workload} --trace {trace}: metrics differ from the declaration")
            for name, metric in result["metrics"].items():
                if not NAME.match(name) or not metric.get("unit"):
                    problems.append(f"{workload}: {name!r} has a bad name or no unit")
            if trace == 0:
                continue
            layer = result["metrics"]
            if workload in READ_ONLY and layer["wal.fsyncs_per_op"]["value"] != 0:
                problems.append(f"{workload}: a read-only workload made fsyncs")
            if layer["trace.attribution_error_share"]["value"] > 0.05:
                problems.append(f"{workload}: span trees overrun their roots by more than 5 %")
            spans = SUITE / "results" / f"trace_{workload}.jsonl"
            if not spans.is_file() or not spans.stat().st_size:
                problems.append(f"{workload}: no span file written")
            if workload in SINGLE_CLIENT:
                print(f"smoke: {workload} --trace 1 (again, same seed)", flush=True)
                first, again = counts(result), counts(smoke(workload, 1))
                differ = {n: (first[n], again[n]) for n in first if first[n] != again[n]}
                if differ:
                    problems.append(f"{workload}: engine counts differ between runs: {differ}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
