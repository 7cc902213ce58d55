"""The simulation core's profiler and the canonical cell it profiles.

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

Determinism note: every workload here is a fixed-seed simulation, so
the *simulated* outcome (PLT values, ``events_processed``) is
bit-identical across runs and hosts — only the wall-clock numbers vary.
"""

from __future__ import annotations

import sys
from typing import Any, Dict

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
