"""Short loops over single layers' public APIs (traced runs only).

Each probe is bracketed by two calibration slices and reported in
reference time (see :mod:`benchmarks.e2e.host`).  They cost ~4 s in
total and never run inside a timed interval.
"""

from __future__ import annotations

import pickle
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.core.executor import RunRequest
from repro.fabric import RemoteStore, StoreServer
from repro.fabric.client import FabricConnectionError
from repro.netem.fastlink import AggPacket, AggregateLink
from repro.netem.link import Link
from repro.netem.packet import Packet
from repro.netem.queues import make_queue
from repro.netem.sim import Simulator
from repro.store import ShardStore, SqliteStore, fingerprint_for, run_key
from repro.store.keys import record_to_dict
from repro.transport.cc.kernels import KERNEL_NAMES, make_kernel
from repro.transport.flowtable import QUIC_PARAMS

from .host import REFERENCE_SLICE_S, calibration_slice
from .workloads import FULL, grid_requests, synthetic_cell

SIM_EVENTS = 200_000
LINK_PACKETS = 30_000
CC_ACKS = 20_000
STORE_ROWS = 2_000
#: sqlite commits per put (~0.8 ms a row), so its probe takes a quarter.
SQLITE_ROWS = 500


def _reference_seconds(work: Callable[[], None]) -> float:
    before = calibration_slice()
    start = time.perf_counter()
    work()
    elapsed = time.perf_counter() - start
    factor = (before + calibration_slice()) / 2.0 / REFERENCE_SLICE_S
    return elapsed / factor


def _sim_event_ns() -> float:
    sim = Simulator()
    chains = 64
    remaining = [SIM_EVENTS // chains] * chains

    def tick(index: int) -> None:
        remaining[index] -= 1
        if remaining[index] > 0:
            sim.post(1e-6, tick, index)

    for index in range(chains):
        sim.post(1e-6, tick, index)
    seconds = _reference_seconds(sim.run)
    return seconds / sim.events_processed * 1e9


def _link_packets() -> Tuple[float, int, int]:
    """ns per packet through one lossy, jittery classic ``Link``."""
    sim = Simulator()
    rate = 50e6
    link = Link(sim, rate, 0.010, jitter=0.002, loss_rate=0.01,
                queue_bytes=64 * 1024, rng=random.Random(1), name="probe")
    link.attach(lambda packet: None)
    size = 1390
    interval = size * 8 / rate * 0.95  # offer ~105 % of capacity
    sent = [0]

    def feed() -> None:
        link.send(Packet("a", "b", size, flow_id="probe"))
        sent[0] += 1
        if sent[0] < LINK_PACKETS:
            sim.post(interval, feed)

    feed()
    seconds = _reference_seconds(sim.run)
    stats = link.stats
    return (seconds / sent[0] * 1e9, stats.delivered_packets,
            stats.dropped_packets + stats.lost_packets)


def _fastlink_packet_ns() -> float:
    """ns per packet through ``AggregateLink`` (offer, advance, deliver)."""
    link = AggregateLink(50e6, 0.010, make_queue("droptail", 64 * 1024),
                         loss_rate=0.01, loss_rng=random.Random(1))

    def drive() -> None:
        now = 0.0
        for index in range(LINK_PACKETS):
            link.offer(now, AggPacket(index % 8, index, 1390))
            while link.next_completion is not None:
                now = link.next_completion
                link.advance()
            while link.deliveries:
                link.pop_delivery()

    return _reference_seconds(drive) / LINK_PACKETS * 1e9


def _on_ack_ns(name: str) -> float:
    """ns per ``on_ack`` at ~10 Mbps of 1.4 KB packets on a 36-40 ms path
    (BBR's cost grows with the samples its bandwidth window holds)."""
    kernel = make_kernel(name, QUIC_PARAMS)

    def drive() -> None:
        now = 0.0
        for index in range(CC_ACKS):
            now += 0.0012
            kernel.on_ack(1.0, now, 0.040, 0.036)
            if index % 500 == 499:
                kernel.on_loss(now, kernel.cwnd)

    return _reference_seconds(drive) / CC_ACKS * 1e9


def _store_rows(requests: List[RunRequest]):
    rows = []
    for request in requests:
        fingerprint = fingerprint_for(request)
        rows.append((run_key(request, fingerprint=fingerprint),
                     synthetic_cell(request), fingerprint))
    return rows


def _keys_us(requests: List[RunRequest]) -> float:
    def drive() -> None:
        for request in requests:
            run_key(request, fingerprint=fingerprint_for(request))

    return _reference_seconds(drive) / len(requests) * 1e6


def _sqlite_us(rows, workdir: Path) -> Tuple[float, float]:
    rows = rows[:SQLITE_ROWS]
    with SqliteStore(workdir / "probe.sqlite") as store:
        put = _reference_seconds(lambda: [
            store.put(key, record, fingerprint=fingerprint)
            for key, record, fingerprint in rows])
        get = _reference_seconds(lambda: [store.get(key)
                                          for key, _, _ in rows])
    return put / len(rows) * 1e6, get / len(rows) * 1e6


def _fabric_client_us(rows, workdir: Path) -> Tuple[float, float, float, int]:
    """Per-key cost of the three bulk client calls, over loopback HTTP."""
    keys = [key for key, _, _ in rows]
    wire = [(key, None, fingerprint, record_to_dict(record))
            for key, record, fingerprint in rows]
    failed_calls = 0
    server = StoreServer(ShardStore(workdir / "probe-central"),
                         host="127.0.0.1", port=0)
    server.start()
    try:
        remote = RemoteStore(server.url)

        def guarded(call: Callable[[], object]) -> Callable[[], None]:
            def run() -> None:
                nonlocal failed_calls
                try:
                    call()
                except FabricConnectionError:
                    failed_calls += 1
            return run

        missing = _reference_seconds(guarded(lambda: remote.missing(keys)))
        upload = _reference_seconds(guarded(lambda: remote.upload_rows(wire)))
        fetch = _reference_seconds(guarded(lambda: remote.fetch(keys)))
    finally:
        server.shutdown()
    scale = 1e6 / len(rows)
    return missing * scale, upload * scale, fetch * scale, failed_calls


def run_probes(seed: int, workdir: Path) -> Dict[str, float]:
    """Every probe-sourced per-layer metric, by its declared name.

    The store / key / pickle probes run over the same 2 000 GRID
    requests whatever workload the traced run was for.
    """
    requests = grid_requests(FULL, 17, seed)[:STORE_ROWS]
    packet_ns, delivered, dropped = _link_packets()
    rows = _store_rows(requests)
    sqlite_put, sqlite_get = _sqlite_us(rows, workdir)
    missing, upload, fetch, failed_calls = _fabric_client_us(rows, workdir)
    metrics = {
        "netem.sim.event_ns": _sim_event_ns(),
        "netem.link.packet_ns": packet_ns,
        "netem.link.delivered": float(delivered),
        "netem.link.dropped": float(dropped),
        "netem.fastlink.packet_ns": _fastlink_packet_ns(),
        "core.executor.pickle_request_us": _reference_seconds(
            lambda: [pickle.dumps(r) for r in requests]) / len(requests) * 1e6,
        "store.keys.run_key_us": _keys_us(requests),
        "store.sqlite.put_us_per_row": sqlite_put,
        "store.sqlite.get_us_per_row": sqlite_get,
        "fabric.client.missing_us_per_key": missing,
        "fabric.client.upload_us_per_row": upload,
        "fabric.client.fetch_us_per_row": fetch,
        "fabric.client.retries": float(failed_calls),
    }
    for name in KERNEL_NAMES:
        metrics[f"transport.cc.on_ack_ns.{name}"] = _on_ack_ns(name)
    return metrics
