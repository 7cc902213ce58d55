"""The six workloads: request generation, run functions, outcome digest.

``--seed`` is the only input: it offsets every ``RunRequest.seed`` by
``seed * SEED_STRIDE``; the program under test sees nothing but the
generated requests.  Why each workload exists is recorded in
``BENCHMARK.json`` (``workloads[].why``) and in the README.
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.executor import (
    RunFailure,
    RunRecord,
    RunRequest,
    execute_request,
)
from repro.core.experiment import (
    ExperimentSpec,
    ScenarioSpec,
    WorkloadSpec,
    experiment_requests,
)
from repro.core.manyflow import (
    ManyflowConfig,
    manyflow_requests,
    manyflow_scenario,
)
from repro.core.runner import run_page_load
from repro.store import StoreBackend, fingerprint_for, run_key

from .tracing import spill_span

WORKLOADS = ("grid_serial", "grid_pool", "store_fill", "store_replay",
             "fabric_synth", "manyflow_mix")
#: Workloads whose cells run the real simulator (the rest use
#: :func:`synthetic_cell`, so the store / fabric plumbing is ~all the work).
REAL_WORKLOADS = frozenset({"grid_serial", "grid_pool", "manyflow_mix"})
#: Workloads that must show >= 2 distinct worker pids.
PARALLEL_WORKLOADS = frozenset({"grid_pool", "fabric_synth"})
#: Workers / pool jobs for the parallel workloads: the sandbox's nproc.
JOBS = 2
FABRIC_SYNC_EVERY = 256
#: Larger than any workload's seeds-per-label, so two ``--seed`` values
#: never share a request.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Sizes:
    """Seeds per GRID label / manyflow cell for each workload."""

    name: str
    rates: Tuple[float, ...]
    pages: Tuple[Tuple[int, float], ...]
    grid_seeds: int
    fill_seeds: int
    fabric_seeds: int
    manyflow_cc: Tuple[str, ...]
    manyflow_aqm: Tuple[str, ...]
    manyflow_seeds: int
    manyflow_flows: int
    manyflow_duration: float


#: GRID = 4 rates x 3 conditions x 5 pages x {QUIC v34, TCP} = 120 labels.
#: The three synthetic workloads run half the seeds ISSUE 12 sketched
#: (9 600 / 4 800 cells): its sizing probes read 2x faster than this host,
#: and a repetition has to fit the contract's total-time cap.
FULL = Sizes(
    name="full",
    rates=(5.0, 10.0, 50.0, 100.0),
    pages=((1, 5), (1, 100), (1, 1024), (10, 10), (100, 10)),
    grid_seeds=4, fill_seeds=80, fabric_seeds=40,
    manyflow_cc=("reno", "cubic", "bbr"),
    manyflow_aqm=("droptail", "codel", "fq_codel"),
    manyflow_seeds=3, manyflow_flows=200, manyflow_duration=60.0)
#: The reduced size the self-tests run at (same code paths, ~1 s each).
TINY = Sizes(
    name="tiny",
    rates=(10.0, 100.0),
    pages=((1, 5), (10, 10)),
    grid_seeds=2, fill_seeds=8, fabric_seeds=8,
    manyflow_cc=("reno", "bbr"), manyflow_aqm=("codel",),
    manyflow_seeds=2, manyflow_flows=20, manyflow_duration=30.0)
SIZES = {sizes.name: sizes for sizes in (FULL, TINY)}


def grid_requests(sizes: Sizes, seeds: int, seed: int) -> List[RunRequest]:
    """GRID labels x ``seeds`` seeds, built the way ``repro spec`` does.

    Three conditions per rate: clean, 1 % loss, +50 ms delay with 10 ms
    jitter — the last two keep the loss-recovery and Fig. 10 reordering
    paths hot.
    """
    scenarios = [
        spec for rate in sizes.rates for spec in (
            ScenarioSpec(rate_mbps=rate),
            ScenarioSpec(rate_mbps=rate, loss_pct=1.0),
            ScenarioSpec(rate_mbps=rate, delay_ms=50.0, jitter_ms=10.0))
    ]
    spec = ExperimentSpec(
        name="e2e-grid", scenarios=scenarios,
        workloads=[WorkloadSpec(objects, size_kb)
                   for objects, size_kb in sizes.pages],
        runs=seeds, device="desktop", quic_version=34)
    return [request
            for _key, requests in experiment_requests(
                spec, seed_base=seed * SEED_STRIDE)
            for request in requests]


def manyflow_mix_requests(sizes: Sizes, seed: int) -> List[RunRequest]:
    """cc x aqm x seeds manyflow cells, every cell on a seed of its own.

    A run's work is its flows' heavy-tailed byte total; sharing three
    seeds across all nine configurations left only three independent
    draws and a +-9 % swing of the workload's size from one ``--seed``
    to the next.
    """
    scenario = manyflow_scenario()
    configs = [ManyflowConfig(flows=sizes.manyflow_flows,
                              duration=sizes.manyflow_duration, cc=cc, aqm=aqm)
               for cc in sizes.manyflow_cc for aqm in sizes.manyflow_aqm]
    return [request
            for index, config in enumerate(configs)
            for request in manyflow_requests(
                config, scenario,
                seeds=range(seed * SEED_STRIDE + index * sizes.manyflow_seeds,
                            seed * SEED_STRIDE
                            + (index + 1) * sizes.manyflow_seeds))]


def build_requests(workload: str, sizes: Sizes, seed: int) -> List[RunRequest]:
    if workload == "manyflow_mix":
        return manyflow_mix_requests(sizes, seed)
    seeds_per_label = {
        "grid_serial": sizes.grid_seeds, "grid_pool": sizes.grid_seeds,
        "store_fill": sizes.fill_seeds, "store_replay": sizes.fill_seeds,
        "fabric_synth": sizes.fabric_seeds}
    if workload not in seeds_per_label:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(expected one of {', '.join(WORKLOADS)})")
    return grid_requests(sizes, seeds_per_label[workload], seed)


# ----------------------------------------------------------------------
# run functions (module-level and argument-free state: they cross into
# pool and fabric workers)
# ----------------------------------------------------------------------
def synthetic_plt(request: RunRequest) -> float:
    """A deterministic stand-in PLT: a pure function of the request."""
    return 0.05 + zlib.crc32(request.label.encode()) % 100_000 / 100_000.0


def synthetic_cell(request: RunRequest) -> RunRecord:
    """A near-free run: the store and executor do ~all the work."""
    plt = synthetic_plt(request)
    return RunRecord(request=request, plt=plt, complete=True, metrics={
        "bytes": float(request.page.total_bytes),
        "objects": float(request.page.object_count), "plt": plt})


def fill_directly(store: StoreBackend, requests: List[RunRequest]) -> None:
    """Put every request's synthetic record into ``store`` in one batch -
    the executor-free way to build a reference or pre-filled store."""
    rows = []
    for request in requests:
        fingerprint = fingerprint_for(request)
        rows.append((run_key(request, fingerprint=fingerprint),
                     synthetic_cell(request), fingerprint))
    store.put_many(rows)


def pid_marked_cell(request: RunRequest, *, pid_dir: str) -> RunRecord:
    """The real simulator, leaving a ``<pid>`` marker so the parent can
    count distinct worker processes without tracing."""
    marker = Path(pid_dir) / str(os.getpid())
    if not marker.exists():
        marker.touch()
    return execute_request(request)


def _counted_cell(request: RunRequest) -> Tuple[RunRecord, float]:
    """``execute_request`` plus the cell's simulator event count.

    Page loads go through the public ``run_page_load`` so the event
    count is readable; the record is built the way ``execute_request``
    builds it (the traced and untraced digests must agree, which the
    runner checks).
    """
    if request.manyflow is not None:
        record = execute_request(request)
        return record, record.metrics["heap_events"]
    output = run_page_load(
        request.scenario, request.page, request.protocol, seed=request.seed,
        device=request.device, trace=request.trace,
        cwnd_interval=request.cwnd_interval, proxied=request.proxied,
        timeout=request.timeout)
    events = float(output.sim.events_processed)
    metrics: Dict[str, float] = {
        "bytes": float(request.page.total_bytes),
        "objects": float(request.page.object_count)}
    if not output.result.complete:
        return RunRecord(
            request=request, complete=False, metrics=metrics,
            failure=RunFailure("incomplete", "page load hit its "
                               "simulated-time cap")), events
    metrics["plt"] = output.result.plt
    return RunRecord(request=request, plt=output.result.plt, complete=True,
                     metrics=metrics), events


def traced_cell(request: RunRequest, *, spill_dir: str, parent: str,
                synthetic: bool) -> RunRecord:
    """One cell inside a ``core.runner`` span, tagged with the layer that
    did the work (quic / tcp / manyflow / synthetic) and its counts."""
    start = time.perf_counter()
    counts: Dict[str, float] = {}
    if synthetic:
        record, layer = synthetic_cell(request), "synthetic"
    else:
        record, events = _counted_cell(request)
        counts["events"] = events
        if request.manyflow is not None:
            layer = "manyflow"
            counts["logical_events"] = record.metrics["logical_events"]
            counts["queue_drops"] = (record.metrics["queue_drops"]
                                     + record.metrics["codel_drops"])
        else:
            layer = request.protocol.name
    spill_span(spill_dir, parent, "core.runner", start, time.perf_counter(),
               layer=layer, **counts)
    return record


# ----------------------------------------------------------------------
# outcomes
# ----------------------------------------------------------------------
def outcome_digest(outcomes: Iterable[Tuple[int, Optional[float]]]) -> str:
    """sha256 over the sorted ``(index, plt)`` pairs of a sweep."""
    digest = hashlib.sha256()
    for index, plt in sorted(outcomes, key=lambda pair: pair[0]):
        digest.update(f"{index}:{plt!r};".encode())
    return digest.hexdigest()
