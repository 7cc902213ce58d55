"""Measure serial vs parallel wall clock for the experiment executor.

Runs the same ExperimentSpec grid with ``jobs=1`` and ``jobs=N``,
verifies the results are byte-identical, and records the wall-clock
comparison in ``benchmarks/results/executor_scaling.txt`` plus a
machine-readable ``BENCH_executor.json`` at the repo root (so the perf
trajectory is trackable across PRs).  With ``--out PATH`` both land at
PATH (``.json`` payload, ``.txt`` summary beside it) instead.

Usage::

    PYTHONPATH=src python benchmarks/executor_scaling.py [--jobs 4] \\
        [--out BENCH_executor.json]
"""

from __future__ import annotations

import argparse
import os
import time
from pathlib import Path

from repro.core.bench import write_payload, write_summary
from repro.core.executor import resolve_jobs, usable_cpu_count
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    run_experiment,
)

RESULTS = Path(__file__).parent / "results" / "executor_scaling.txt"
DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_executor.json"


def scaling_spec() -> ExperimentSpec:
    """A 2 scenarios x 2 workloads x 2 protocols x 2 runs = 16-cell grid."""
    return ExperimentSpec(
        "executor-scaling",
        description="wall-clock scaling probe for the parallel executor",
        scenarios=[ScenarioSpec(10.0), ScenarioSpec(50.0, loss_pct=1.0)],
        workloads=[WorkloadSpec(1, 1000), WorkloadSpec(100, 10)],
        runs=2,
    )


def timed(spec: ExperimentSpec, jobs: int):
    start = time.perf_counter()
    result = run_experiment(spec, jobs=jobs)
    return time.perf_counter() - start, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="parallel worker count (default 4)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"payload path (default {DEFAULT_OUT}); the "
                             "summary goes beside a non-default path")
    args = parser.parse_args()
    jobs = resolve_jobs(args.jobs)

    spec = scaling_spec()
    cells = (len(spec.scenarios) * len(spec.workloads)
             * len(spec.protocols) * spec.runs)
    print(f"spec {spec.name!r}: {cells} runs total")

    serial_s, serial = timed(spec, 1)
    print(f"serial (jobs=1):   {serial_s:7.2f} s")
    parallel_s, parallel = timed(spec, jobs)
    print(f"parallel (jobs={jobs}): {parallel_s:7.2f} s")

    identical = serial.to_json() == parallel.to_json()
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(f"speedup: {speedup:.2f}x, results identical: {identical}")

    lines = [
        "Executor scaling: serial vs parallel wall clock",
        "===============================================",
        "",
        f"spec: {spec.name} ({len(spec.scenarios)} scenarios x "
        f"{len(spec.workloads)} workloads x {len(spec.protocols)} protocols "
        f"x {spec.runs} runs = {cells} independent simulations)",
        f"host CPU count: {os.cpu_count()} (usable: {usable_cpu_count()})",
        "",
        f"  jobs=1 (serial)    {serial_s:8.2f} s",
        f"  jobs={jobs:<2}            {parallel_s:8.2f} s",
        "",
        f"  speedup            {speedup:8.2f} x",
        f"  results identical  {identical}",
        "",
        "Every run is a pure function of (configuration, seed), so the",
        "parallel ExperimentResult.to_json() is byte-identical to serial.",
    ]
    if usable_cpu_count() < 2:
        lines += [
            "",
            "note: this host exposes a single usable core; the executor's",
            "auto-serial fallback therefore runs the jobs=N request",
            "in-process instead of forking a pool that could only lose,",
            "so the expected speedup here is ~1.0x.  On an N-core host",
            "the independent simulations scale to ~min(N, jobs)x.",
        ]
    write_summary(lines, RESULTS if args.out == DEFAULT_OUT
                  else args.out.with_suffix(".txt"))
    write_payload({
        "benchmark": "executor_scaling",
        "runs_total": cells,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpu_count(),
        "jobs": jobs,
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "speedup": round(speedup, 4),
        "results_identical": identical,
    }, args.out)
    return 0 if identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
