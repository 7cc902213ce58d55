"""Measure the results store: cold-vs-warm wall clock and hit rate.

Runs one ExperimentSpec grid twice against a fresh store: the cold pass
executes everything and fills the store; the warm pass must be served
entirely from it.  A third, *resumed* pass — against a store holding
only half the grid — measures the interrupted-sweep case.  Asserts the
cache-correctness contract along the way (warm pass: 100% hits and
byte-identical ``ExperimentResult.to_json()``), so the exit code doubles
as the ``make check`` store smoke.

Writes ``benchmarks/results/store_hit_rate.txt`` and a machine-readable
``BENCH_store.json`` at the repo root — or, with ``--out PATH``, the
payload at PATH and the summary beside it (``.txt``).

Usage::

    PYTHONPATH=src python benchmarks/store_hit_rate.py [--runs 2] [--jobs 1] \\
        [--out BENCH_store.json]
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from pathlib import Path

from repro.core.bench import write_payload, write_summary
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
    run_experiment,
)
from repro.core.executor import run_requests
from repro.store import ResultStore, RunCache

RESULTS = Path(__file__).parent / "results" / "store_hit_rate.txt"
DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_store.json"


def bench_spec(runs: int) -> ExperimentSpec:
    return ExperimentSpec(
        "store-hit-rate",
        description="cold/warm/resumed wall clock for the results store",
        scenarios=[ScenarioSpec(10.0), ScenarioSpec(50.0, loss_pct=1.0)],
        workloads=[WorkloadSpec(1, 200), WorkloadSpec(10, 10)],
        runs=runs,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=2,
                        help="seeded rounds per cell (default 2)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"payload path (default {DEFAULT_OUT}); the "
                             "summary goes beside a non-default path")
    args = parser.parse_args()

    spec = bench_spec(args.runs)
    total = (len(spec.scenarios) * len(spec.workloads)
             * len(spec.protocols) * spec.runs)
    print(f"spec {spec.name!r}: {total} runs per pass")

    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(Path(tmp) / "bench-store.sqlite")

        cache = RunCache(store)
        start = time.perf_counter()
        cold_result = run_experiment(spec, jobs=args.jobs, store=cache)
        cold_s = time.perf_counter() - start
        cold_stats = cache.session_stats
        print(f"cold pass:    {cold_s:7.2f} s  "
              f"({cold_stats[0]} hits / {cold_stats[1]} misses)")

        cache = RunCache(store)
        start = time.perf_counter()
        warm_result = run_experiment(spec, jobs=args.jobs, store=cache)
        warm_s = time.perf_counter() - start
        warm_stats = cache.session_stats
        print(f"warm pass:    {warm_s:7.2f} s  "
              f"({warm_stats[0]} hits / {warm_stats[1]} misses)")

        identical = warm_result.to_json() == cold_result.to_json()
        all_hits = warm_stats == (total, 0, 0)

        # Resumed pass: a store holding only every other run of the grid
        # (as if the sweep was killed halfway).
        half_store = ResultStore(Path(tmp) / "half-store.sqlite")
        half_cache = RunCache(half_store)
        flat = [request for _, requests in experiment_requests(spec)
                for request in requests]
        run_requests(flat[: total // 2], jobs=args.jobs, store=half_cache)
        half_cache = RunCache(half_store)
        start = time.perf_counter()
        resumed_result = run_experiment(spec, jobs=args.jobs,
                                        store=half_cache)
        resumed_s = time.perf_counter() - start
        resumed_stats = half_cache.session_stats
        print(f"resumed pass: {resumed_s:7.2f} s  "
              f"({resumed_stats[0]} hits / {resumed_stats[1]} misses)")
        resumed_identical = resumed_result.to_json() == cold_result.to_json()

    ok = identical and all_hits and resumed_identical
    speedup = cold_s / warm_s if warm_s else float("inf")
    print(f"warm speedup: {speedup:.1f}x, "
          f"byte-identical: {identical and resumed_identical}, "
          f"warm pass all hits: {all_hits}")

    lines = [
        "Results store: cold vs warm vs resumed wall clock",
        "=================================================",
        "",
        f"spec: {spec.name} ({total} runs per pass, jobs={args.jobs})",
        f"host CPU count: {os.cpu_count()}",
        "",
        f"  cold    (empty store)   {cold_s:8.2f} s   "
        f"{cold_stats[0]:3d} hits / {cold_stats[1]:3d} misses",
        f"  warm    (full store)    {warm_s:8.2f} s   "
        f"{warm_stats[0]:3d} hits / {warm_stats[1]:3d} misses",
        f"  resumed (half store)    {resumed_s:8.2f} s   "
        f"{resumed_stats[0]:3d} hits / {resumed_stats[1]:3d} misses",
        "",
        f"  warm speedup            {speedup:8.1f} x",
        f"  results byte-identical  {identical and resumed_identical}",
        "",
        "A run key covers configuration, seed and the source fingerprint,",
        "so a warm sweep re-executes nothing and an interrupted sweep",
        "resumes from exactly the cells it was missing.",
    ]
    write_summary(lines, RESULTS if args.out == DEFAULT_OUT
                  else args.out.with_suffix(".txt"))
    write_payload({
        "benchmark": "store_hit_rate",
        "runs_total": total,
        "cpu_count": os.cpu_count(),
        "jobs": args.jobs,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "resumed_seconds": round(resumed_s, 4),
        "warm_speedup": round(speedup, 2),
        "warm_hit_rate": (warm_stats[0] / total) if total else 0.0,
        "resumed_hits": resumed_stats[0],
        "resumed_misses": resumed_stats[1],
        "results_identical": identical and resumed_identical,
    }, args.out)
    if not ok:
        print("STORE SMOKE FAILED: warm pass was not 100% cache hits with "
              "byte-identical results")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
