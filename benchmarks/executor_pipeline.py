"""Measure the pipelined executor against the round-trip record path.

Two architectures sweep the same N-cell grid through a 4-process pool
into a sharded store:

* **round-trip** (the pre-streaming design): every full ``RunRecord``
  is pickled back over the parent pipe and the *parent* writes it into
  the store, one offer per record;
* **pipelined** (``iter_runs``): the workers write their records
  directly into the store (one batched append per chunk) and only the
  payload-free ``RunEvent`` stream reaches the parent.

The run function is synthetic and nearly free, so the measurement is
the plumbing itself: IPC bytes, (de)serialisation and store writes.
Records are verified identical between the two stores, the parent-pipe
events are verified payload-free and size-bounded, and the parent's
peak RSS is recorded — the pipelined parent never holds a record.

Writes ``benchmarks/results/executor_pipeline.txt`` and a
machine-readable ``BENCH_pipeline.json`` at the repo root — or, with
``--out PATH``, the payload at PATH and the summary beside it (``.txt``).

Usage::

    PYTHONPATH=src python benchmarks/executor_pipeline.py \\
        [--cells 10000] [--jobs 4] [--out BENCH_pipeline.json]
"""

from __future__ import annotations

import argparse
import os
import pickle
import resource
import shutil
import tempfile
import time
from pathlib import Path

from repro.core.bench import write_payload, write_summary
from repro.core.executor import (
    EVENT_WIRE_BOUND,
    ProtocolSpec,
    RunRecord,
    RunRequest,
    iter_runs,
    usable_cpu_count,
)
from repro.core.aggregate import store_aggregator
from repro.http import single_object_page
from repro.netem import emulated
from repro.store import RunCache, ShardStore

RESULTS = Path(__file__).parent / "results" / "executor_pipeline.txt"
DEFAULT_OUT = Path(__file__).parent.parent / "BENCH_pipeline.json"

SCN = emulated(10.0)
PAGE = single_object_page(10_000)


def _synthetic_run(request: RunRequest) -> RunRecord:
    """A deterministic, nearly-free run: the sweep measures plumbing."""
    plt = 0.25 + (request.seed % 97) / 1000.0
    return RunRecord(request=request, plt=plt, complete=True)


def build_requests(cells: int):
    protocols = (ProtocolSpec.quic(), ProtocolSpec.tcp())
    return [RunRequest(scenario=SCN, page=PAGE,
                       protocol=protocols[i % 2], seed=i)
            for i in range(cells)]


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pipelined_sweep(requests, path, jobs):
    """Workers write the store; the parent consumes bare events."""
    cache = RunCache(ShardStore(path))
    events = 0
    max_event_bytes = 0
    start = time.perf_counter()
    for event in iter_runs(requests, jobs=jobs, run_fn=_synthetic_run,
                           store=cache, force_pool=True):
        events += 1
        max_event_bytes = max(max_event_bytes, len(pickle.dumps(event)))
        assert event.record is None, "a record payload crossed the pipe"
    elapsed = time.perf_counter() - start
    cache.store.close()
    return elapsed, events, max_event_bytes


def roundtrip_sweep(requests, path, jobs):
    """The pre-streaming design, emulated faithfully: the parent probes
    the cache per request, full records ride back over the pipe, and
    the parent offers them into the store one by one."""
    cache = RunCache(ShardStore(path))
    start = time.perf_counter()
    misses = [r for r in requests if cache.lookup(r) is None]
    for event in iter_runs(misses, jobs=jobs, run_fn=_synthetic_run,
                           keep_records=True, force_pool=True):
        if event.terminal:
            cache.offer(event.record)
    elapsed = time.perf_counter() - start
    cache.store.close()
    return elapsed


def stores_identical(path_a, path_b) -> bool:
    with ShardStore(path_a) as a, ShardStore(path_b) as b:
        if set(a.keys()) != set(b.keys()):
            return False
        return store_aggregator(a).render() == store_aggregator(b).render()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=10_000,
                        help="sweep size (default 10000)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool worker count (default 4; the pool is "
                             "forced even on a single-core host)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"payload path (default {DEFAULT_OUT}); the "
                             "summary goes beside a non-default path")
    args = parser.parse_args()

    requests = build_requests(args.cells)
    print(f"{args.cells} cells through a {args.jobs}-process pool "
          f"(host CPUs: {os.cpu_count()}, usable: {usable_cpu_count()})")

    workdir = Path(tempfile.mkdtemp(prefix="repro-pipeline-"))
    try:
        rss_before = _rss_kb()
        pipelined_s, events, max_event_bytes = pipelined_sweep(
            requests, workdir / "pipelined", args.jobs)
        rss_peak = _rss_kb()
        print(f"pipelined:  {pipelined_s:7.2f} s  "
              f"({events / pipelined_s:,.0f} events/s through the parent, "
              f"largest event {max_event_bytes} B)")

        roundtrip_s = roundtrip_sweep(requests, workdir / "roundtrip",
                                      args.jobs)
        print(f"round-trip: {roundtrip_s:7.2f} s")

        identical = stores_identical(workdir / "pipelined",
                                     workdir / "roundtrip")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speedup = roundtrip_s / pipelined_s if pipelined_s else float("inf")
    events_per_sec = events / pipelined_s if pipelined_s else float("inf")
    print(f"speedup: {speedup:.2f}x, stores identical: {identical}, "
          f"parent RSS peak {rss_peak:,} kB")

    lines = [
        "Pipelined executor vs round-trip record path",
        "============================================",
        "",
        f"sweep: {args.cells} independent cells (synthetic run fn), "
        f"jobs={args.jobs}, sharded JSONL store",
        f"host CPU count: {os.cpu_count()} (usable: {usable_cpu_count()})",
        "",
        f"  round-trip (records -> parent -> store) {roundtrip_s:8.2f} s",
        f"  pipelined  (workers -> store)           {pipelined_s:8.2f} s",
        "",
        f"  speedup                   {speedup:8.2f} x",
        f"  events through parent     {events:8d} "
        f"({events_per_sec:,.0f}/s)",
        f"  largest parent-pipe event {max_event_bytes:8d} B "
        f"(bound {EVENT_WIRE_BOUND} B)",
        f"  parent RSS before/peak    {rss_before:8,} / {rss_peak:,} kB",
        f"  stores identical          {identical}",
        "",
        "In the round-trip design every RunRecord is pickled across the",
        "parent pipe and written by the parent; pipelined workers append",
        "their own records (one batched flock per chunk) and the parent",
        "sees only payload-free RunEvents — so parent IPC and memory are",
        "O(1) per cell regardless of record size.",
    ]
    write_summary(lines, RESULTS if args.out == DEFAULT_OUT
                  else args.out.with_suffix(".txt"))
    write_payload({
        "benchmark": "pipeline",
        "cells": args.cells,
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpu_count(),
        "roundtrip_seconds": round(roundtrip_s, 4),
        "pipelined_seconds": round(pipelined_s, 4),
        "pipelined_speedup": round(speedup, 4),
        "events_total": events,
        "events_per_sec": round(events_per_sec, 1),
        "max_event_bytes": max_event_bytes,
        "event_bound_bytes": EVENT_WIRE_BOUND,
        "parent_rss_before_kb": rss_before,
        "parent_rss_peak_kb": rss_peak,
        "results_identical": identical,
    }, args.out)
    ok = identical and max_event_bytes <= EVENT_WIRE_BOUND
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
