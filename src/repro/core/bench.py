"""The simulation core's profiler and its benchmark payload helpers.

Speed is measured in one place, the end-to-end benchmark
(``BENCHMARK.json``): its per-layer probes ``netem.sim.event_ns`` and
``netem.link.packet_ns`` are the event-loop and link rates.  This module
keeps what only it provides:

* :func:`bench_plt` — one canonical page-load pair (QUIC and TCP over
  the same emulated scenario).  It is the workload ``repro bench``
  profiles, and its PLTs and event counts are pinned in
  ``tests/test_determinism.py``.
* :func:`profile_plt` / :func:`profile_manyflow` — cProfile the pair or
  a manyflow engine: a per-package summary, the events-by-handler
  census, then the top-N rows.  ``repro bench`` is a thin wrapper.
* :func:`run_manyflow_benchmark` — the ``BENCH_manyflow.json`` payload.
* :func:`calibrate` — a tiny pure-Python spin loop measured on the same
  host.  Benchmark JSONs carry this so a reader can tell how fast the
  measuring host was.

Determinism note: every workload here is a fixed-seed simulation, so
the *simulated* outcome (PLT values, ``events_processed``, manyflow
metrics) is bit-identical across runs and hosts — only the wall-clock
numbers vary.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from ..http.objects import page
from ..netem.profiles import emulated

#: The canonical PLT cell: the paper's mid-range emulated condition — a
#: 20 Mbps cap, 20 ms extra one-way delay, 0.5 % loss — loading a
#: 10-object x 100 KB page.  Chosen to exercise queueing, loss recovery
#: and multiplexing without taking seconds per run.
CANONICAL_SCENARIO_KWARGS = dict(extra_delay_ms=20.0, loss_pct=0.5)
CANONICAL_RATE_MBPS = 20.0
CANONICAL_PAGE = (10, 100 * 1024)
CANONICAL_SEED = 0


def _best_of(repeat: int, fn: Callable[[], Dict[str, Any]],
             key: str) -> Dict[str, Any]:
    """Run ``fn`` ``repeat`` times, keep the run with the best ``key``.

    Wall-clock benchmarks are noisy downwards only (GC pauses, other
    processes); the maximum rate / minimum time is the stable statistic.
    """
    best: Optional[Dict[str, Any]] = None
    for _ in range(max(1, repeat)):
        sample = fn()
        if best is None or sample[key] > best[key]:
            best = sample
    assert best is not None
    return best


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibrate(ops: int = 2_000_000) -> float:
    """Host-speed reference: pure-Python ops/second of a trivial loop."""
    deadline = time.perf_counter
    acc = 0
    start = deadline()
    for i in range(ops):
        acc += i & 7
    elapsed = deadline() - start
    if acc < 0:  # pragma: no cover - keeps the loop from being elided
        raise AssertionError
    return ops / elapsed if elapsed > 0 else float("inf")


# ----------------------------------------------------------------------
# canonical PLT run
# ----------------------------------------------------------------------
def bench_plt(seed: int = CANONICAL_SEED) -> Dict[str, Any]:
    """One canonical QUIC + TCP page-load pair: each PLT and event count."""
    from .runner import run_page_load  # runner sits above this module

    scenario = emulated(CANONICAL_RATE_MBPS, **CANONICAL_SCENARIO_KWARGS)
    workload = page(*CANONICAL_PAGE)
    out: Dict[str, Any] = {}
    for protocol in ("quic", "tcp"):
        output = run_page_load(scenario, workload, protocol, seed=seed)
        out[f"plt_{protocol}"] = output.result.plt
        out[f"events_{protocol}"] = output.sim.events_processed
    return out


def bench_manyflow(flows: int = 1000, *, aqm: str = "droptail",
                   seed: int = CANONICAL_SEED,
                   duration: float = 300.0) -> Dict[str, Any]:
    """The thousand-flow cell: batched vs per-packet scheduling.

    Runs the same (config, seed) workload twice — once with the default
    batch quantum and once with ``batch_quantum=0`` (one heap wakeup per
    logical item, the pre-optimisation cost model) — and checks the two
    produce identical simulated outcomes.  The speedup between them is
    the number the fast path is judged by.
    """
    from .manyflow import ManyflowConfig, ManyflowEngine, manyflow_scenario

    config = ManyflowConfig(flows=flows, aqm=aqm, duration=duration)
    scenario = manyflow_scenario()

    def timed(batch_quantum: float) -> Dict[str, Any]:
        engine = ManyflowEngine(scenario, config, seed=seed,
                                batch_quantum=batch_quantum)
        start = time.perf_counter()
        metrics = engine.run()
        wall = time.perf_counter() - start
        return {"wall": wall, "metrics": metrics}

    from .manyflow import DEFAULT_BATCH_QUANTUM

    batched = timed(DEFAULT_BATCH_QUANTUM)
    per_packet = timed(0.0)

    def outcome(sample: Dict[str, Any]) -> Dict[str, Any]:
        # heap_events is the cost model, not an outcome: batching
        # exists to change it.
        return {k: v for k, v in sample["metrics"].items()
                if k != "heap_events"}

    identical = outcome(batched) == outcome(per_packet)
    logical = batched["metrics"]["logical_events"]
    return {
        "flows": flows,
        "batched_seconds": round(batched["wall"], 4),
        "per_packet_seconds": round(per_packet["wall"], 4),
        "speedup_vs_per_packet": round(
            per_packet["wall"] / batched["wall"], 2),
        "events_per_sec": round(logical / batched["wall"], 1),
        "heap_events_batched": batched["metrics"]["heap_events"],
        "heap_events_per_packet": per_packet["metrics"]["heap_events"],
        "results_identical": identical,
        "outcome": outcome(batched),
    }


def run_manyflow_benchmark(*, flows: int = 1000, repeat: int = 1,
                           aqm: str = "droptail", seed: int = CANONICAL_SEED,
                           duration: float = 300.0) -> Dict[str, Any]:
    """Run the manyflow cell; return the ``BENCH_manyflow.json`` payload."""
    cal = calibrate()
    sample = _best_of(repeat,
                      lambda: bench_manyflow(flows, aqm=aqm, seed=seed,
                                             duration=duration),
                      "speedup_vs_per_packet")
    payload: Dict[str, Any] = {
        "benchmark": "manyflow",
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(cal, 1),
        "workload": {
            "flows": flows,
            "aqm": aqm,
            "cc": "reno",
            "seed": seed,
            "duration": duration,
            "scenario": "manyflow_scenario()",
        },
    }
    payload.update(sample)
    return payload


def _package_of(filename: str) -> str:
    """The top-level entry of the ``repro`` package a profiled frame's
    file lives in (``core``, ``store``, ``cli.py``, ...), else
    ``(stdlib/other)``."""
    normalised = filename.replace("\\", "/")
    if "/repro/" not in normalised:
        return "(stdlib/other)"
    return normalised.rsplit("/repro/", 1)[1].split("/", 1)[0]


def _print_by_package(stats: Any, out: Any) -> None:
    """Aggregate a pstats table by top-level ``repro`` package."""
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, _func), row in stats.stats.items():
        cc, _nc, tottime, _cumtime, _callers = row
        part = _package_of(filename)
        totals[part] = totals.get(part, 0.0) + tottime
        calls[part] = calls.get(part, 0) + cc
    grand = sum(totals.values()) or 1.0
    print("By package (tottime):", file=out)
    for part in sorted(totals, key=totals.get, reverse=True):
        print(f"  {part:<16} {totals[part]:>9.4f}s  "
              f"{100.0 * totals[part] / grand:>5.1f}%  "
              f"{calls[part]:>10,} calls", file=out)
    print("", file=out)


def _print_events_by_handler(stats: Any, out: Any) -> None:
    """The event census: what the run loop called, how often.

    Every simulator event is one call from ``Simulator._loop`` into a
    handler, so the loop's callees in the profile *are* the census —
    which handler the events go to is what a flat function-level table
    hides (docs/PERFORMANCE.md, "Events per packet").  The total line
    also gives the Python-level calls those events cost ("Calls per
    packet").
    """
    handlers: Dict[str, int] = {}
    for (filename, _line, func), row in stats.stats.items():
        if filename == "~":
            continue  # heappush / heappop and other builtins
        for (caller_file, _l, caller), counts in row[4].items():
            if caller == "_loop" and caller_file.endswith("netem/sim.py"):
                where = filename.replace("\\", "/").split("/repro/", 1)[-1]
                label = f"{where}:{func}"
                handlers[label] = handlers.get(label, 0) + counts[0]
    total = sum(handlers.values())
    if not total:
        return
    print("Events by handler (callees of the run loop):", file=out)
    for label in sorted(handlers, key=handlers.get, reverse=True):
        print(f"  {label:<44} {handlers[label]:>10,}  "
              f"{100.0 * handlers[label] / total:>5.1f}%", file=out)
    # Builtins ("~") excluded: only frames the program itself runs.
    calls = sum(row[1] for (filename, _l, _f), row in stats.stats.items()
                if filename != "~")
    delivered = handlers.get("netem/link.py:_deliver")
    per_packet = (f"; {total / delivered:.2f} per delivered packet "
                  f"(link deliveries); {calls:,} Python calls, "
                  f"{calls / delivered:.2f} per delivered packet"
                  if delivered else f"; {calls:,} Python calls")
    print(f"  {'total':<44} {total:>10,} events{per_packet}\n", file=out)


def profile_run(workload: Any, top: int = 25, out: Any = None) -> None:
    """cProfile ``workload()``: per-package summary, the events-by-handler
    census, then the top-N rows."""
    import cProfile
    import pstats

    out = out or sys.stdout
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=out)
    _print_by_package(stats, out)
    _print_events_by_handler(stats, out)
    stats.sort_stats("cumulative").print_stats(top)


def profile_plt(top: int = 25, out: Any = None) -> None:
    """cProfile the canonical PLT pair; print the top-N cumulative rows."""
    profile_run(bench_plt, top=top, out=out)


def profile_manyflow(top: int = 25, out: Any = None,
                     flows: int = 300) -> None:
    """cProfile a mid-size manyflow run (the fan-out hot path), one cell
    per CC kernel: per-ACK cost is the kernel's, so a reno-only profile
    says nothing about cubic or bbr."""
    from ..transport.cc.kernels import KERNEL_NAMES
    from .manyflow import ManyflowConfig, ManyflowEngine, manyflow_scenario

    out = out or sys.stdout
    for cc in KERNEL_NAMES:
        config = ManyflowConfig(flows=flows, duration=120.0, cc=cc)
        engine = ManyflowEngine(manyflow_scenario(), config,
                                seed=CANONICAL_SEED)
        print(f"== manyflow cc={cc} ({flows} flows) ==", file=out)
        profile_run(engine.run, top=top, out=out)


def write_payload(payload: Dict[str, Any], path: Any) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"written to {path}")


def write_summary(lines: Sequence[str], path: Any) -> None:
    """A payload's human-readable twin (``benchmarks/results/*.txt``)."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
    print(f"written to {path}")
