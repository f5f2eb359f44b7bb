#!/usr/bin/env python3
"""Measure the benchmark's baseline: repeated runs of every workload, summarised.

Run from the repository root:

    python3 bench/summarize.py

It writes ``bench/baseline.json`` (``--out`` names another file) and takes
about half an hour.  Each run is ``bench/run.py`` in its own process, one after
another, for ``run_seconds`` from ``BENCHMARK.json``.  There are two sets of
ten end-to-end runs per workload (``--trace 0``, seeds 1-10 and 11-20) and one
set of three traced runs (``--trace 1``, seeds 21-23).  For every workload
and metric a set gives the median over its runs, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
``(q3 - q1) / median``.  Two end-to-end sets show whether medians repeat
within the bounds in ``BENCHMARK.json``.  The file is rewritten after each
set, so an interrupted run keeps the sets it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"
RUNS, TRACED_RUNS = 10, 3


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def run_set(seeds: list[int], seconds: float, trace: int) -> dict:
    result = {"seeds": seeds, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        runs = [one_run(workload, seed, seconds, trace) for seed in seeds]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary(runs),
        }
        result["workloads"][workload] = entry
        print(f"# {workload}, trace {trace}, seeds {seeds[0]}-{seeds[-1]}: correct "
              f"{entry['correct']}, failed {entry['failed']} of {entry['attempted']}")
        for name, s in entry["metrics"].items():
            print(f"  {name:34s} median {s['median']:16.6f} {s['unit']:8s} "
                  f"spread {s['spread']:.4f}", flush=True)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "baseline.json")
    args = ap.parse_args(argv)
    seconds = json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    report = {
        "about": "Baseline of the plank benchmark, written by bench/summarize.py. "
                 "Times are scaled by the calibration kernel (see bench/README.md).",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": seconds,
        "end_to_end": {},
    }
    sets = [("set_1", 0, 1, RUNS), ("set_2", 0, 1 + RUNS, RUNS),
            ("per_layer", 1, 1 + 2 * RUNS, TRACED_RUNS)]
    for name, trace, first, count in sets:
        result = run_set(list(range(first, first + count)), seconds, trace)
        if trace:
            report["per_layer"] = result
        else:
            report["end_to_end"][name] = result
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
