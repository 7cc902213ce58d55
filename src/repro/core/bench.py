"""Hot-path microbenchmarks for the simulation core.

The optimisation work on the event loop and the netem layer only counts
if it is measured the same way every time, on every host, across
commits.  This module is that measurement layer:

* :func:`bench_events` — raw event-loop throughput (events/second): many
  concurrent self-rescheduling callback chains, nothing else.  This is
  the number the per-event scheduling overhead shows up in directly.
* :func:`bench_packets` — packets/second through one rate-limited,
  lossy, jittery :class:`~repro.netem.link.Link`, i.e. the full netem
  data path (queue, token-bucket serialisation, loss/jitter draws,
  delivery bookkeeping) without any transport on top.
* :func:`bench_plt` — one canonical page-load pair (QUIC and TCP over
  the same emulated scenario), wall-clock timed.  This is the end-to-end
  number a sweep cell costs; speeding it up is the point of the whole
  exercise.
* :func:`calibrate` — a tiny pure-Python spin loop measured on the same
  host.  Benchmark JSONs carry this so a reader can tell how fast the
  measuring host was (a laptop and a CI runner disagree wildly on
  absolute events/sec but much less on events-per-calibration-op).

:func:`run_benchmarks` bundles the above into the ``BENCH_sim.json``
payload; the ``repro bench`` CLI subcommand is a thin wrapper around it.

Determinism note: every benchmark here is a fixed-seed simulation, so
the *simulated* outcome (delivered packet counts, PLT values,
``events_processed``) is bit-identical across runs and hosts — only the
wall-clock numbers vary.  The payload records those outcomes too, which
gives the perf gate a free behaviour cross-check.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence

from ..http.objects import page
from ..netem.link import Link, mbps
from ..netem.packet import Packet
from ..netem.profiles import emulated
from ..netem.sim import Simulator

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
# events/sec
# ----------------------------------------------------------------------
def bench_events(num_events: int = 200_000, chains: int = 64) -> Dict[str, Any]:
    """Event-loop throughput: ``chains`` concurrent callback chains.

    Each chain re-posts itself a fixed number of times, so the heap holds
    ``chains`` entries throughout — a realistic depth for a page load.
    Uses the non-cancellable fast path (``Simulator.post``) when the
    simulator provides one, else plain ``schedule``; the benchmark is the
    representative cost of the *majority* scheduling style either way.
    """
    sim = Simulator()
    post = getattr(sim, "post", None) or sim.schedule
    per_chain = num_events // chains
    remaining = [per_chain] * chains

    def tick(index: int) -> None:
        left = remaining[index] - 1
        remaining[index] = left
        if left > 0:
            post(1e-6, tick, index)

    for index in range(chains):
        post(1e-6, tick, index)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    fired = sim.events_processed
    return {
        "events": fired,
        "wall_seconds": elapsed,
        "events_per_sec": fired / elapsed if elapsed > 0 else float("inf"),
    }


# ----------------------------------------------------------------------
# packets/sec
# ----------------------------------------------------------------------
def bench_packets(num_packets: int = 30_000) -> Dict[str, Any]:
    """Netem data-path throughput: packets/second through one Link.

    A 50 Mbps, 10 ms link with 1 % loss, 2 ms jitter and a 64 KB droptail
    queue; the sender offers slightly more than the link can carry so the
    queue and the serialisation path both stay busy.
    """
    sim = Simulator()
    link = Link(sim, mbps(50.0), 0.010, jitter=0.002, loss_rate=0.01,
                queue_bytes=64 * 1024, name="bench")
    delivered = [0]

    def sink(packet: Packet) -> None:
        delivered[0] += 1

    link.attach(sink)
    size = 1390
    interval = size * 8 / mbps(50.0) * 0.95  # offer ~105% of capacity
    sent = [0]
    post = getattr(sim, "post", None) or sim.schedule

    def feed() -> None:
        link.send(Packet("a", "b", size, flow_id="bench"))
        sent[0] += 1
        if sent[0] < num_packets:
            post(interval, feed)

    feed()
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return {
        "packets_offered": sent[0],
        "packets_delivered": delivered[0],
        "wall_seconds": elapsed,
        "packets_per_sec": sent[0] / elapsed if elapsed > 0 else float("inf"),
        "events_processed": sim.events_processed,
    }


# ----------------------------------------------------------------------
# canonical PLT run
# ----------------------------------------------------------------------
def bench_plt(seed: int = CANONICAL_SEED) -> Dict[str, Any]:
    """One canonical QUIC + TCP page-load pair, wall-clock timed."""
    from .runner import run_page_load  # runner sits above this module

    scenario = emulated(CANONICAL_RATE_MBPS, **CANONICAL_SCENARIO_KWARGS)
    workload = page(*CANONICAL_PAGE)
    out: Dict[str, Any] = {}
    total = 0.0
    for protocol in ("quic", "tcp"):
        start = time.perf_counter()
        output = run_page_load(scenario, workload, protocol, seed=seed)
        elapsed = time.perf_counter() - start
        total += elapsed
        out[f"plt_{protocol}"] = output.result.plt
        out[f"events_{protocol}"] = output.sim.events_processed
        out[f"wall_{protocol}"] = elapsed
    out["plt_wall_seconds"] = total
    return out


# ----------------------------------------------------------------------
# the bundle
# ----------------------------------------------------------------------
def run_benchmarks(*, events: int = 200_000, packets: int = 30_000,
                   repeat: int = 3,
                   baseline: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Run the full suite; return the ``BENCH_sim.json`` payload.

    ``baseline`` is the ``current`` section of a previous payload (or a
    whole previous payload, whose ``current`` is then used); when given,
    per-metric speedups are computed against it.
    """
    cal = calibrate()
    ev = _best_of(repeat, lambda: bench_events(events), "events_per_sec")
    pk = _best_of(repeat, lambda: bench_packets(packets), "packets_per_sec")
    plt_samples = [bench_plt() for _ in range(max(1, repeat))]
    plt = min(plt_samples, key=lambda s: s["plt_wall_seconds"])

    current: Dict[str, Any] = {
        "events_per_sec": round(ev["events_per_sec"], 1),
        "packets_per_sec": round(pk["packets_per_sec"], 1),
        "plt_wall_seconds": round(plt["plt_wall_seconds"], 4),
        "plt_quic": plt["plt_quic"],
        "plt_tcp": plt["plt_tcp"],
        "events_quic": plt["events_quic"],
        "events_tcp": plt["events_tcp"],
        "packets_delivered": pk["packets_delivered"],
    }
    payload: Dict[str, Any] = {
        "benchmark": "sim_hotpath",
        "python": platform.python_version(),
        "calibration_ops_per_sec": round(cal, 1),
        "workload": {
            "events": events,
            "packets": packets,
            "repeat": repeat,
            "plt_scenario": f"emulated({CANONICAL_RATE_MBPS:g}, "
                            f"extra_delay_ms=20, loss_pct=0.5)",
            "plt_page": f"page{CANONICAL_PAGE}",
        },
        "current": current,
    }
    if baseline:
        base = baseline.get("current", baseline)
        payload["baseline"] = base
        speedup: Dict[str, float] = {}
        for metric in ("events_per_sec", "packets_per_sec"):
            if base.get(metric):
                speedup[metric] = round(current[metric] / base[metric], 3)
        if base.get("plt_wall_seconds"):
            speedup["plt_wall_seconds"] = round(
                base["plt_wall_seconds"] / current["plt_wall_seconds"], 3)
        payload["speedup"] = speedup
    return payload


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
                           duration: float = 300.0,
                           baseline: Optional[Dict[str, Any]] = None
                           ) -> Dict[str, Any]:
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
    if baseline:
        base_rate = baseline.get("events_per_sec")
        if base_rate:
            payload["speedup_vs_baseline"] = round(
                sample["events_per_sec"] / base_rate, 3)
    return payload


def _subsystem_of(filename: str) -> str:
    """Map a profiled frame's file onto the fingerprint partition.

    Uses the same :data:`repro.store.keys.SUBSYSTEMS` table that stamps
    store rows, so "which partition is hot" lines up with "which
    partition's fingerprint would a fix invalidate".
    """
    from ..store.keys import SUBSYSTEMS  # avoid a package cycle

    normalised = filename.replace("\\", "/")
    if "/repro/" not in normalised:
        return "(stdlib/other)"
    rel = normalised.split("/repro/", 1)[1]
    # Explicit file entries win over the enclosing directory (e.g.
    # core/models.py belongs to transport, not core), mirroring the
    # claimed-file precedence in subsystem_fingerprints.
    for name, entries in SUBSYSTEMS.items():
        if rel in entries:
            return name
    head = rel.split("/", 1)[0]
    for name, entries in SUBSYSTEMS.items():
        if head in entries:
            return name
    return "(stdlib/other)"


def _print_subsystem_partition(stats: Any, out: Any) -> None:
    """Aggregate a pstats table by subsystem fingerprint partition."""
    totals: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for (filename, _line, _func), row in stats.stats.items():
        cc, _nc, tottime, _cumtime, _callers = row
        part = _subsystem_of(filename)
        totals[part] = totals.get(part, 0.0) + tottime
        calls[part] = calls.get(part, 0) + cc
    grand = sum(totals.values()) or 1.0
    print("By subsystem fingerprint partition (tottime):", file=out)
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
    """cProfile ``workload()``: subsystem partition summary, the events-by-
    handler census, then the top-N rows."""
    import cProfile
    import pstats

    out = out or sys.stdout
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=out)
    _print_subsystem_partition(stats, out)
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
