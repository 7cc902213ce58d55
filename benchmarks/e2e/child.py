"""One repetition of one workload, run in a fresh process.

The parent (:mod:`benchmarks.e2e.runner`) launches this once per
repetition, as a user's ``repro spec`` is a cold process and isolation
keeps ``peak_rss_mb`` / ``cpu_s`` clean.  Everything is a closed loop:
one client in the serial workloads, ``JOBS`` workers in the parallel ones.

Timeline: process start -> set-up (imports, code fingerprint, request
build, store / server start, ``store_replay``'s pre-fill) -> first request
submitted -> sweep -> report text in hand.  ``setup_s`` is the first
arrow, ``wall_s`` the rest; both in reference seconds (see ``host.py``).
"""

from __future__ import annotations

import json
import pickle
import re
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.aggregate import store_aggregator
from repro.core.executor import (
    RunEvent,
    execute_request,
    iter_runs,
)
from repro.core.report import build_store_report
from repro.fabric import RemoteStore, StoreServer, iter_fabric_runs
from repro.store import RunCache, ShardStore, fingerprint_for

from .host import Mark, Pacer, reference_seconds, speed_factor
from .tracing import (
    WALL,
    TracedCache,
    TracedStore,
    Tracer,
    busy,
    close_spill_files,
    render_self_table,
    self_times,
)
from .workloads import (
    FABRIC_SYNC_EVERY,
    JOBS,
    PARALLEL_WORKLOADS,
    REAL_WORKLOADS,
    Sizes,
    build_requests,
    fill_directly,
    outcome_digest,
    pid_marked_cell,
    synthetic_cell,
    synthetic_plt,
    traced_cell,
)

#: Every ``SPOT_STRIDE``-th ``grid_pool`` request is re-run serially after
#: the timed interval and must reproduce the pooled PLT exactly.
SPOT_STRIDE = 8
_REPORT_TOTALS = re.compile(r"(\d+) cached run\(s\) across (\d+) cell\(s\)")


@dataclass
class Sweep:
    """What one consumed event stream amounted to."""

    outcomes: Dict[int, Optional[float]] = field(default_factory=dict)
    kinds: Counter = field(default_factory=Counter)
    not_ok: Set[int] = field(default_factory=set)
    duplicates: int = 0
    retries: int = 0
    events: int = 0
    first_event_at: float = 0.0
    #: A few terminal events, kept to size their pickles afterwards.
    sample: List[RunEvent] = field(default_factory=list)


def consume(stream: Iterable[RunEvent], pacer: Pacer) -> Sweep:
    sweep = Sweep()
    for event in stream:
        if not sweep.events:
            sweep.first_event_at = time.perf_counter()
        sweep.events += 1
        pacer.tick()
        if event.kind == "retry":
            sweep.retries += 1
        if not event.terminal:
            continue
        if event.index in sweep.outcomes:
            sweep.duplicates += 1
        sweep.outcomes[event.index] = event.plt
        sweep.kinds[event.kind] += 1
        if not event.ok:
            sweep.not_ok.add(event.index)
        if len(sweep.sample) < 64:
            sweep.sample.append(event)
    return sweep


def count_failed(sweep: Sweep, cells: int, checks_ok: bool) -> int:
    """Operations failed of ``cells`` attempted: a request fails when its
    terminal event is not ``ok`` or never came; a failing correctness
    check fails every cell of the workload."""
    if not checks_ok:
        return cells
    return len(sweep.not_ok | (set(range(cells)) - set(sweep.outcomes)))


def _cpu_and_rss() -> Tuple[float, float]:
    """CPU seconds and peak RSS (KiB) of this process and every reaped
    descendant (pool and fabric workers are joined before we look)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
            float(max(own.ru_maxrss, kids.ru_maxrss)))


def _normalised(report: str, location: str) -> str:
    return report.replace(location, "STORE")


def _directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_repetition(workload: str, seed: int, sizes: Sizes, trace: bool,
                   workdir: Path, spawned_at: float,
                   trace_out: Optional[Path] = None) -> Dict[str, Any]:
    """Run ``workload`` once; the result dict the runner aggregates."""
    spill_dir = workdir / "spans"
    pid_dir = workdir / "pids"
    spill_dir.mkdir()
    pid_dir.mkdir()
    tracer = Tracer(spill_dir) if trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    pacer = Pacer(span)
    pacer.slice()

    # -- set-up ------------------------------------------------------------
    requests = build_requests(workload, sizes, seed)
    fingerprint_started = time.perf_counter()
    fingerprint_for(requests[0])  # cold: hashes the package's sources
    fingerprint_s = time.perf_counter() - fingerprint_started
    synthetic = workload not in REAL_WORKLOADS
    inner = ShardStore(workdir / "store")
    server: Optional[StoreServer] = None
    local: Optional[ShardStore] = None
    worker_pids: Set[int] = set()
    checks: List[Tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    try:
        prefill_report = ""
        if workload == "store_replay":
            fill_directly(inner, requests)
            prefill_report = build_store_report(inner)
        if workload == "fabric_synth":
            served = (TracedStore(inner, tracer, "fabric.server.store")
                      if tracer else inner)
            server = StoreServer(served, host="127.0.0.1", port=0)
            server.start()
            report_store: Any = RemoteStore(server.url)
            cache = None
        else:
            report_store = TracedStore(inner, tracer) if tracer else inner
            cache = (TracedCache(report_store, tracer) if tracer
                     else RunCache(report_store))
        pacer.slice()

        # -- timed interval ------------------------------------------------
        at_submit = pacer.mark()
        cpu_before, _ = _cpu_and_rss()
        submit_epoch = time.time()
        submitted = time.perf_counter()
        sweep_layer = ("fabric.coordinator" if server is not None
                       else "core.executor")
        with span(WALL):
            with span(sweep_layer) as sweep_span:
                if tracer is not None:
                    run_fn: Any = partial(
                        traced_cell, spill_dir=str(spill_dir),
                        parent=sweep_span["id"], synthetic=synthetic)
                elif synthetic:
                    run_fn = synthetic_cell
                elif workload == "grid_pool":
                    run_fn = partial(pid_marked_cell, pid_dir=str(pid_dir))
                else:
                    run_fn = None  # the executor's default: the user's path
                if server is not None:
                    stream = iter_fabric_runs(
                        requests, server.url, workers=JOBS,
                        sync_every=FABRIC_SYNC_EVERY, run_fn=run_fn,
                        workdir=str(workdir / "fabric"),
                        on_worker_start=lambda _worker, pid:
                        worker_pids.add(pid))
                elif workload == "grid_pool":
                    stream = iter_runs(requests, jobs=JOBS, force_pool=True,
                                       run_fn=run_fn, store=cache)
                else:
                    stream = iter_runs(requests, jobs=1, run_fn=run_fn,
                                       store=cache)
                sweep = consume(stream, pacer)
            swept = time.perf_counter()
            at_swept = pacer.mark()
            with span("core.report"):
                report = build_store_report(report_store)
        done = time.perf_counter()
        cpu_after, peak_rss_kib = _cpu_and_rss()
        at_done = pacer.mark()
        pacer.slice()  # closes the interval's calibration just past its end
        at_final = pacer.mark()

        # -- correctness (untimed) -----------------------------------------
        cells = len(requests)
        check("one terminal event per request",
              sweep.duplicates == 0 and set(sweep.outcomes) == set(range(cells)),
              f"{len(sweep.outcomes)} of {cells} requests ended, "
              f"{sweep.duplicates} ended twice")
        labels = {(r.scenario.name, r.page.name, r.protocol.name)
                  for r in requests}
        totals = _REPORT_TOTALS.search(report)
        check("report covers every run and cell",
              totals is not None
              and (int(totals[1]), int(totals[2])) == (cells, len(labels)),
              f"report says {totals.group(0) if totals else 'nothing'}; "
              f"expected {cells} run(s) across {len(labels)} cell(s)")
        if synthetic:
            expected = outcome_digest(
                (index, synthetic_plt(request))
                for index, request in enumerate(requests))
            check("outcomes equal the synthetic function",
                  outcome_digest(sweep.outcomes.items()) == expected)
        if workload == "store_replay":
            check("every request was a store hit",
                  sweep.kinds == Counter(hit=cells), str(dict(sweep.kinds)))
            check("report identical to the one rendered after the pre-fill",
                  report == prefill_report)
        local_cells_per_s = 0.0
        if workload == "fabric_synth":
            local = ShardStore(workdir / "local")
            if tracer is None:
                fill_directly(local, requests)
            else:
                # The same cells with no network, through the executor:
                # the base of fabric.overhead_ratio.
                at_local = pacer.mark()
                local_started = time.perf_counter()
                consume(iter_runs(requests, jobs=1, run_fn=synthetic_cell,
                                  store=local), pacer)
                local_s = time.perf_counter() - local_started
                pacer.slice()
                local_cells_per_s = cells / reference_seconds(
                    local_s, at_local, pacer.mark())
            check("served-store report equals a local store's of the same records",
                  _normalised(report, server.url)
                  == _normalised(build_store_report(local), local.path))
        if workload == "grid_pool":
            mismatches = [
                index for index in range(0, cells, SPOT_STRIDE)
                if execute_request(requests[index]).plt
                != sweep.outcomes.get(index)]
            check(f"every {SPOT_STRIDE}th pooled PLT reproduced serially",
                  not mismatches, f"mismatched indices {mismatches[:8]}")
        spans = tracer.collect() if tracer else []
        if workload in PARALLEL_WORKLOADS:
            if workload == "grid_pool":
                worker_pids = (
                    {s["pid"] for s in spans if s["name"] == "core.runner"}
                    if tracer else {int(p.name) for p in pid_dir.iterdir()})
                worker_pids.discard(tracer.pid if tracer else -1)
            check(f">= {JOBS} distinct worker pids", len(worker_pids) >= JOBS,
                  f"saw {sorted(worker_pids)} - the executor fell back to "
                  f"serial execution")

        failed = count_failed(sweep, cells,
                              all(ok for _, ok, _ in checks))
        factor = speed_factor(at_submit, at_final)
        wall_raw = done - submitted
        sweep_raw = swept - submitted
        setup_raw = submit_epoch - spawned_at
        cpu_raw = cpu_after - cpu_before
        sweep_s = reference_seconds(sweep_raw, at_submit, at_swept, at_final)
        result: Dict[str, Any] = {
            "workload": workload, "seed": seed, "size": sizes.name,
            "traced": trace, "cells": cells, "failed": failed,
            "checks": [{"name": n, "ok": ok, "detail": d}
                       for n, ok, d in checks],
            "outcome_digest": outcome_digest(sweep.outcomes.items()),
            "worker_pids": len(worker_pids),
            "metrics": {
                "setup_s": reference_seconds(setup_raw, Mark(), at_submit),
                "wall_s": reference_seconds(wall_raw, at_submit, at_done,
                                            at_final),
                "cells_per_s": cells / sweep_s,
                "cpu_s": (cpu_raw - (at_done.cpu_s - at_submit.cpu_s))
                / factor,
                "peak_rss_mb": peak_rss_kib / 1024.0,
            },
            "raw": {
                "setup_s": setup_raw, "wall_s": wall_raw,
                "sweep_s": sweep_raw, "report_s": done - swept,
                "cpu_s": cpu_raw, "speed_factor": factor,
                "calibration_slices": at_done.slices - at_submit.slices,
                "calibration_wall_s": at_done.wall_s - at_submit.wall_s,
            },
        }
        if tracer is not None:
            totals_by_layer = self_times(spans, tracer.pid)
            layers = _layer_metrics(
                workload, spans, totals_by_layer, sweep, cache, inner,
                factor=factor, sweep_raw=sweep_raw, submitted=submitted,
                wall_raw=wall_raw, report=report,
                fingerprint_s=fingerprint_s,
                fabric_cells_per_s=cells / sweep_s,
                local_cells_per_s=local_cells_per_s,
                spawns=len(worker_pids) if server is not None else 0)
            from .probes import run_probes  # traced runs only: ~4 s of loops

            layers.update(run_probes(seed, workdir))
            result["layers"] = layers
            result["self_time_table"] = render_self_table(
                {name: (seconds / factor, count)
                 for name, (seconds, count) in totals_by_layer.items()})
            if trace_out is not None:
                _write_trace(trace_out, result, spans, tracer.pid, submitted)
        return result
    finally:
        if server is not None:
            server.shutdown()  # also closes the served store
        else:
            inner.close()
        if local is not None:
            local.close()
        close_spill_files()


def _layer_metrics(workload: str, spans: List[Dict[str, Any]],
                   totals: Dict[str, Tuple[float, int]], sweep: Sweep,
                   cache: Optional[RunCache], inner: ShardStore, *,
                   factor: float, sweep_raw: float, submitted: float,
                   wall_raw: float, report: str, fingerprint_s: float,
                   fabric_cells_per_s: float, local_cells_per_s: float,
                   spawns: int) -> Dict[str, float]:
    """The span- and counter-sourced per-layer metrics of one traced run.

    ``*_s`` values are inclusive busy time in reference seconds, except
    ``*.self_s`` which are self time.  A layer the workload never enters
    reads 0 — that is the "flat on" prediction, visible.
    """
    def ref(seconds: float) -> float:
        return seconds / factor

    def per(total: float, count: float, scale: float = 1.0) -> float:
        return total / count * scale if count else 0.0

    cell_spans = [s for s in spans if s["name"] == "core.runner"]
    cell_s = sorted(s["end"] - s["start"] for s in cell_spans)
    runner_busy = sum(cell_s)

    def side(layer: str) -> Tuple[float, float]:
        chosen = [s for s in cell_spans if s["layer"] == layer]
        return (sum(s["end"] - s["start"] for s in chosen),
                sum(s.get("events", 0.0) for s in chosen))

    quic_busy, quic_events = side("quic")
    tcp_busy, tcp_events = side("tcp")
    mf_busy, mf_heap = side("manyflow")
    mf_logical = sum(s.get("logical_events", 0.0) for s in cell_spans)
    executor_self = totals.get("core.executor", (0.0, 0))[0]
    # With workers, the main thread's sweep span is mostly waiting; what
    # the workers did not fill is the cost of running them.
    concurrent_gap = sweep_raw - runner_busy / JOBS
    lookup_s, _ = busy(spans, "store.cache.lookup")
    offer_s, _ = busy(spans, "store.cache.offer")
    put_s, _ = busy(spans, "store.shards.put")
    put_rows = sum(s["rows"] for s in spans if s["name"] == "store.shards.put")
    get_s, gets = busy(spans, "store.shards.get")
    server_ops = [s for s in spans
                  if s["name"].startswith("fabric.server.store.")]
    hits, misses, writes = cache.session_stats if cache else (0, 0, 0)
    rows = len(inner)
    aggregate_started = time.perf_counter()
    store_aggregator(inner)
    aggregate_s = time.perf_counter() - aggregate_started
    pool = workload == "grid_pool"
    fabric = workload == "fabric_synth"
    # store_replay runs no cell at all; small sizes have no 20-quantiles.
    p50 = statistics.median(cell_s) if cell_s else 0.0
    p95 = (statistics.quantiles(cell_s, n=20)[18] if len(cell_s) >= 20
           else max(cell_s, default=0.0))
    return {
        "netem.sim.events": quic_events + tcp_events + mf_heap,
        "netem.queues.drops": sum(s.get("queue_drops", 0.0)
                                  for s in cell_spans),
        "quic.busy_s": ref(quic_busy),
        "quic.us_per_event": per(ref(quic_busy), quic_events, 1e6),
        "quic.events": quic_events,
        "tcp.busy_s": ref(tcp_busy),
        "tcp.us_per_event": per(ref(tcp_busy), tcp_events, 1e6),
        "tcp.events": tcp_events,
        "core.runner.busy_s": ref(runner_busy),
        "core.runner.cells": float(len(cell_s)),
        "core.runner.cell_p50_ms": ref(p50) * 1e3,
        "core.runner.cell_p95_ms": ref(p95) * 1e3,
        "core.executor.self_s": ref(executor_self),
        "core.executor.us_per_event": per(ref(executor_self), sweep.events,
                                          1e6) if not fabric else 0.0,
        "core.executor.retries": float(sweep.retries),
        "core.executor.first_event_s": 0.0 if fabric else ref(
            sweep.first_event_at - submitted),
        "core.executor.pool_overhead_s": ref(concurrent_gap) if pool else 0.0,
        "core.executor.parallel_efficiency": (
            runner_busy / (JOBS * sweep_raw) if pool else 0.0),
        "core.executor.event_bytes_max": float(max(
            len(pickle.dumps(event)) for event in sweep.sample)),
        "store.keys.fingerprint_s": ref(fingerprint_s),
        "store.cache.lookup_s": ref(lookup_s),
        "store.cache.offer_s": ref(offer_s),
        "store.cache.hits": float(hits),
        "store.cache.misses": float(misses),
        "store.cache.writes": float(writes),
        "store.shards.put_s": ref(put_s),
        "store.shards.put_us_per_row": per(ref(put_s), put_rows, 1e6),
        "store.shards.get_s": ref(get_s),
        "store.shards.get_us_per_row": per(ref(get_s), gets, 1e6),
        "store.shards.rows": float(rows),
        "store.shards.bytes": float(_directory_bytes(Path(inner.path))),
        "fabric.server.store_s": ref(sum(s["end"] - s["start"]
                                         for s in server_ops)),
        "fabric.server.requests": float(len(server_ops)),
        "fabric.coordinator.self_s": ref(concurrent_gap) if fabric else 0.0,
        "fabric.coordinator.spawns": float(spawns),
        "fabric.coordinator.first_event_s": ref(
            sweep.first_event_at - submitted) if fabric else 0.0,
        "fabric.overhead_ratio": per(local_cells_per_s, fabric_cells_per_s),
        "core.aggregate.s": ref(aggregate_s),
        "core.aggregate.records_per_s": per(rows, ref(aggregate_s)),
        "core.report.s": ref(busy(spans, "core.report")[0]),
        "core.report.bytes": float(len(report.encode())),
        "core.manyflow.busy_s": ref(mf_busy),
        "core.manyflow.logical_events": mf_logical,
        "core.manyflow.heap_events": mf_heap,
        "core.manyflow.events_per_s": per(mf_logical, ref(mf_busy)),
        "trace.unattributed_share": totals[WALL][0] / wall_raw,
    }


def _write_trace(path: Path, result: Dict[str, Any],
                 spans: List[Dict[str, Any]], root_pid: int,
                 origin: float) -> None:
    """``trace-<workload>.json``: spans with times relative to the first
    submitted request, rounded to the microsecond."""
    for span in spans:
        span["start"] = round(span["start"] - origin, 6)
        span["end"] = round(span["end"] - origin, 6)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "workload": result["workload"], "seed": result["seed"],
            "root_pid": root_pid,
            "speed_factor": result["raw"]["speed_factor"],
            "time_unit": "raw seconds since the first submitted request; "
                         "divide durations by speed_factor for reference "
                         "seconds",
            "layers": result["layers"], "spans": spans,
        }, handle, separators=(",", ":"))
