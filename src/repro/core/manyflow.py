"""The ``manyflow`` scenario family: ~1000 mixed QUIC/TCP flows on one link.

The paper's fairness experiments (Tab. 4) pit a handful of bulk
connections against each other; the post-IMC literature (Wolsing et
al., Rüth et al. — see PAPERS.md) evaluates links carrying hundreds to
thousands of concurrent flows under modern AQM.  This module provides
that regime as a first-class, store-addressable workload:

* :class:`ManyflowConfig` — a frozen description of the traffic mix:
  flow count, seeded Poisson arrival process, QUIC/TCP split,
  heavy-tailed (lognormal) page sizes with a uniform video tail, the
  AQM discipline, the CC kernel (``cc`` ∈ reno/cubic/bbr, see
  :mod:`repro.transport.cc.kernels`), and the simulated-time cap.  It rides inside
  :class:`~repro.core.executor.RunRequest`, so runs are content
  addressed, cached, executed by ``iter_runs`` and streamed into the
  store exactly like page-load cells.
* :func:`build_flows` — the deterministic ``(config, seed) → schedule``
  expansion.  It is a pure function of its arguments, which is what
  makes arrival schedules identical across ``--jobs`` counts and
  serial/pool/fabric execution (tested in ``tests/test_determinism.py``).
* :class:`ManyflowEngine` — the flow-aggregate fast path: a
  :class:`~repro.netem.fastlink.AggregateLink` (batched link delivery)
  plus a :class:`~repro.transport.flowtable.FlowTable` (columnar
  per-flow state).  The engine drains its internal work items —
  transmission completions, deliveries, acks — in merged logical-time
  order from a *single* heap wakeup per batch; ``batch_quantum=0``
  degenerates to one wakeup per item (the per-packet scheduling path)
  and produces bit-identical results, which is the fixed-seed identity
  contract ``benchmarks/sim_manyflow.py`` checks (its exit code) and
  ``tests/test_determinism.py::TestGoldenManyflowCell`` pins.
* :func:`execute_manyflow` — the :class:`RunRecord`-producing runner
  the executor dispatches to; per-flow PLT percentiles and the Jain
  fairness index land in ``record.metrics`` and flow through
  ``StreamAggregator`` / ``report --from-store`` untouched.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence, Tuple

from ..http.objects import WebObject, WebPage
from ..netem.fastlink import AggPacket, AggregateLink
from ..netem.packet import DEFAULT_MSS, HEADER_BYTES
from ..netem.profiles import Scenario
from ..netem.queues import AQM_NAMES, make_queue
from ..netem.sim import Simulator
from ..netem.topology import _run_rtt_factor
from ..transport.cc.kernels import KERNEL_NAMES
from ..transport.flowtable import (
    FlowTable,
    PROTO_QUIC,
    PROTO_TCP,
    STATE_ACTIVE,
    STATE_DONE,
)

__all__ = [
    "ManyflowConfig",
    "ManyflowEngine",
    "build_flows",
    "execute_manyflow",
    "manyflow_page",
    "manyflow_requests",
    "manyflow_scenario",
]

#: Default engine batching horizon, seconds of logical time serviced per
#: heap wakeup.  0 means one wakeup per internal item (per-packet mode).
DEFAULT_BATCH_QUANTUM = 0.004

#: RTO / housekeeping tick period, seconds.
TICK = 0.05

_INF = float("inf")


@dataclass(frozen=True)
class ManyflowConfig:
    """The traffic mix of one many-flow run (content-addressed).

    Sizes follow the web's heavy tail: most flows draw a lognormal
    "page" size around ``page_kb_median``; a ``video_share`` fraction
    instead draws a uniform multi-megabyte "video segment".  Arrivals
    are Poisson at ``arrival_rate`` flows/sec; each flow is TCP with
    probability ``tcp_share``, else QUIC.
    """

    flows: int = 1000
    #: Poisson arrival intensity, flows/sec.  The default offers ~80
    #: Mbps of mean load (≈0.8 utilisation of the canonical 100 Mbps
    #: bottleneck) — congested but not collapse.
    arrival_rate: float = 50.0
    tcp_share: float = 0.5
    page_kb_median: float = 64.0
    page_sigma: float = 1.0
    video_share: float = 0.05
    video_kb_min: float = 1024.0
    video_kb_max: float = 3072.0
    aqm: str = "droptail"
    duration: float = 300.0
    #: Congestion-control kernel driving every flow (the CC axis):
    #: ``reno`` (the historical AIMD fast path), ``cubic`` or ``bbr``
    #: from :mod:`repro.transport.cc.kernels`.
    cc: str = "reno"

    def __post_init__(self) -> None:
        if self.flows <= 0:
            raise ValueError("flows must be positive")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if not 0.0 <= self.tcp_share <= 1.0:
            raise ValueError("tcp_share must be in [0, 1]")
        if not 0.0 <= self.video_share <= 1.0:
            raise ValueError("video_share must be in [0, 1]")
        if self.page_kb_median <= 0 or self.page_sigma < 0:
            raise ValueError("page size parameters must be positive")
        if not 0 < self.video_kb_min <= self.video_kb_max:
            raise ValueError("need 0 < video_kb_min <= video_kb_max")
        normalised = self.aqm.lower().replace("-", "_")
        if normalised not in AQM_NAMES:
            raise ValueError(
                f"unknown AQM {self.aqm!r}; expected one of "
                f"{', '.join(AQM_NAMES)}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.cc not in KERNEL_NAMES:
            raise ValueError(
                f"unknown CC kernel {self.cc!r}; expected one of "
                f"{', '.join(KERNEL_NAMES)}")

    @property
    def label(self) -> str:
        base = f"manyflow-{self.flows}f-{self.aqm}"
        # The historical label is preserved for the default kernel so
        # pre-existing store cells keep their addresses.
        return base if self.cc == "reno" else f"{base}-{self.cc}"

    def with_(self, **changes: Any) -> "ManyflowConfig":
        return replace(self, **changes)


def build_flows(config: ManyflowConfig, seed: int
                ) -> Tuple[Tuple[float, ...], Tuple[int, ...],
                           Tuple[int, ...]]:
    """Expand ``(config, seed)`` into ``(arrivals, sizes, protos)``.

    A pure function: the same arguments yield the same schedule in any
    process, which is what keeps manyflow runs identical across worker
    counts and execution backends.  Draw order per flow is fixed
    (arrival gap, size class, size) so adding fields later cannot
    silently reshuffle existing schedules.  The QUIC/TCP split is not a
    draw at all but deterministic striping (Bresenham over
    ``tcp_share``), so even a 2-flow Tab. 4-style cell gets the exact
    mix.
    """
    rng = random.Random((seed * 2_654_435_761) ^ 0xF10A5)
    arrivals: List[float] = []
    sizes: List[int] = []
    protos: List[int] = []
    clock = 0.0
    mu = math.log(config.page_kb_median * 1024.0)
    for i in range(config.flows):
        clock += rng.expovariate(config.arrival_rate)
        arrivals.append(clock)
        tcp = (math.floor((i + 1) * config.tcp_share)
               > math.floor(i * config.tcp_share))
        protos.append(PROTO_TCP if tcp else PROTO_QUIC)
        if rng.random() < config.video_share:
            size = rng.uniform(config.video_kb_min * 1024.0,
                               config.video_kb_max * 1024.0)
        else:
            size = rng.lognormvariate(mu, config.page_sigma)
        sizes.append(max(int(size), 1400))
    return tuple(arrivals), tuple(sizes), tuple(protos)


def manyflow_scenario(rate_mbps: float = 100.0, rtt: float = 0.040,
                      loss_rate: float = 0.0,
                      queue_bytes: Optional[int] = None) -> Scenario:
    """The canonical many-flow bottleneck: a fat shared access link."""
    name = f"manyflow-{rate_mbps:g}Mbps-{rtt * 1000:g}ms"
    if loss_rate:
        name += f"-{loss_rate:.2%}loss"
    return Scenario(name=name, rate_mbps=rate_mbps, rtt=rtt,
                    loss_rate=loss_rate, queue_bytes=queue_bytes)


def manyflow_page(config: ManyflowConfig) -> WebPage:
    """The placeholder workload naming a manyflow cell.

    Flow sizes are drawn inside the engine from ``(config, seed)``; the
    page object exists so manyflow records share the ``(scenario, page,
    protocol)`` cell addressing of every other store row.
    """
    return WebPage(config.label, (WebObject(0, 1),))


class ManyflowEngine:
    """Flow-aggregate simulation of one manyflow run.

    The transport model is Reno-shaped AIMD with per-protocol
    parameters (see :mod:`repro.transport.flowtable`): receiver-side
    NACKs after ``nack_threshold`` packets past a hole, sender RTO via
    a coarse housekeeping tick, RFC 6298 RTT estimation from exact
    logical timestamps.  The data direction shares one
    :class:`AggregateLink`; the ack path is an unshaped constant delay
    (acks are 40-byte and the reverse direction is unloaded in this
    family).

    ``batch_quantum`` only changes *when the engine wakes up*, never
    what it computes: all arithmetic uses the items' logical
    timestamps, and items are processed in merged logical-time order
    with a fixed tie-break (link advance, then delivery, then ack).
    """

    def __init__(self, scenario: Scenario, config: ManyflowConfig,
                 seed: int = 0, *,
                 batch_quantum: float = DEFAULT_BATCH_QUANTUM,
                 mss: int = DEFAULT_MSS) -> None:
        if scenario.jitter or scenario.reorder_prob:
            raise ValueError(
                "the manyflow fast path supports loss but not "
                "jitter/reordering; use the classic per-packet link")
        if batch_quantum < 0:
            raise ValueError("batch_quantum must be >= 0")
        self.scenario = scenario
        self.config = config
        self.seed = seed
        self.batch_quantum = batch_quantum
        self.mss = mss
        self.sim = Simulator()
        self.table = FlowTable(config.flows, mss, cc=config.cc)
        #: ``nack_threshold`` by ``proto`` value, read once per delivery.
        self._nack_threshold = tuple(
            params.nack_threshold for params in self.table.params_by_proto)

        arrivals, sizes, protos = build_flows(config, seed)
        for i in range(config.flows):
            self.table.define_flow(i, arrivals[i], sizes[i], protos[i])

        rtt = scenario.total_rtt * _run_rtt_factor(scenario, seed)
        self.up_delay = rtt / 2.0
        queue = make_queue(
            config.aqm, scenario.effective_queue_bytes(),
            rng=random.Random((seed * 5_915_587_277) ^ 0xAED))
        queue.on_drop = self._count_queue_drop
        self.down = AggregateLink(
            scenario.rate_bps, rtt / 2.0, queue,
            loss_rate=scenario.loss_rate,
            loss_rng=random.Random((seed * 1_500_450_271) ^ 0x10E55))
        #: Acks in flight back to the sender: ``(t, flow, idx, nacks)``,
        #: monotone in t (deliveries are processed in time order and the
        #: ack delay is constant).
        self.acks: List[Tuple[float, int, int,
                              Optional[Tuple[int, ...]]]] = []
        self._ack_head = 0  # deque-without-deque: index into self.acks
        self.queue_drops = 0
        self.delivered_packets = 0
        self.acks_processed = 0
        self.done = 0
        self.bytes_acked = [0, 0]  # by proto
        self._active: List[int] = []
        self._next_wakeup = _INF
        self._finished = False
        for i in range(config.flows):
            self.sim.post_at(arrivals[i], self._arrival, i)
        self.sim.post_at(TICK, self._tick)

    # ------------------------------------------------------------------
    def _count_queue_drop(self, packet: AggPacket) -> None:
        self.queue_drops += 1

    # -- the merged drain ----------------------------------------------
    def _drain(self, now: float) -> None:
        """Process every internal item with logical time <= ``now``.

        Fixed priority at equal timestamps: link advance, then
        delivery, then ack — the same rule in batched and per-packet
        mode, so both modes process the identical sequence.
        """
        down = self.down
        deliveries = down.deliveries
        acks = self.acks
        while True:
            tc = down._free_at if down._busy else _INF
            td = deliveries[0][0] if deliveries else _INF
            ta = acks[self._ack_head][0] if self._ack_head < len(acks) \
                else _INF
            if tc <= td and tc <= ta:
                if tc > now:
                    break
                down.advance()
                continue
            if td <= ta:
                if td > now:
                    break
                t, packet = down.pop_delivery()
                self.delivered_packets += 1
                self._on_deliver(t, packet)
                continue
            if ta > now:
                break
            item = acks[self._ack_head]
            self._ack_head += 1
            if self._ack_head > 4096 and self._ack_head * 2 > len(acks):
                del acks[:self._ack_head]
                self._ack_head = 0
            self._on_ack(item)

    def _next_deadline(self) -> float:
        down = self.down
        tc = down._free_at if down._busy else _INF
        td = down.deliveries[0][0] if down.deliveries else _INF
        ta = (self.acks[self._ack_head][0]
              if self._ack_head < len(self.acks) else _INF)
        return min(tc, td, ta)

    def _arm(self) -> None:
        deadline = self._next_deadline()
        if deadline == _INF:
            return
        target = deadline + self.batch_quantum
        if self._next_wakeup <= target:
            return  # an earlier (or equal) wakeup already covers it
        self._next_wakeup = target
        self.sim.post_at(target, self._pump)

    def _pump(self) -> None:
        self._next_wakeup = _INF
        self._drain(self.sim.now)
        self._arm()

    # -- entry points (heap events) ------------------------------------
    def _arrival(self, flow: int) -> None:
        now = self.sim.now
        self._drain(now)
        self.table.activate(flow, now)
        self._active.append(flow)
        self._try_send(flow, now)
        self._arm()

    def _tick(self) -> None:
        now = self.sim.now
        self._drain(now)
        table = self.table
        state = table.state
        active = [f for f in self._active if state[f] == STATE_ACTIVE]
        self._active = active
        for f in active:
            if table.inflight[f] <= 0:
                continue
            if now - table.last_progress[f] > table.rto(f):
                self._timeout(f, now)
        if self.done < self.config.flows:
            self.sim.post_at(now + TICK, self._tick)
        self._arm()

    # -- transport logic -----------------------------------------------
    def _try_send(self, flow: int, now: float) -> None:
        table = self.table
        window = int(table.cwnd[flow])
        inflight = table.inflight[flow]
        if inflight >= window:
            return
        retx_queue = table.retx_queue[flow]
        total = table.total_pkts[flow]
        nxt = table.next_idx[flow]
        size = table.size_bytes[flow]
        mss = self.mss
        sent_time = table.sent_time[flow]
        pending = table.pending[flow]
        retx_flag = table.retx_flag[flow]
        down = self.down
        while inflight < window and (retx_queue or nxt < total):
            if retx_queue:
                idx = retx_queue.popleft()
                retx = True
                retx_flag[idx] = 1
                table.retx_sent[flow] += 1
            else:
                idx = nxt
                nxt += 1
                retx = False
            payload = size - idx * mss
            if payload > mss:
                payload = mss
            sent_time[idx] = now
            pending[idx] = 1
            inflight += 1
            down.offer(now, AggPacket(flow, idx, payload + HEADER_BYTES,
                                      retx))
        table.inflight[flow] = inflight
        table.next_idx[flow] = nxt

    def _on_deliver(self, t: float, packet: AggPacket) -> None:
        table = self.table
        flow = packet.flow_id
        rx_set = table.rx_set[flow]
        if rx_set is None:  # stale duplicate after completion
            return
        idx = packet.idx
        rx_next = table.rx_next[flow]
        first_time = False
        if idx == rx_next:
            first_time = True
            rx_next += 1
            while rx_next in rx_set:
                rx_set.remove(rx_next)
                rx_next += 1
            table.rx_next[flow] = rx_next
        elif idx > rx_next and idx not in rx_set:
            first_time = True
            rx_set.add(idx)
        if first_time:
            table.rx_received[flow] += 1
        if idx > table.rx_highest[flow]:
            table.rx_highest[flow] = idx
        nacks: Optional[Tuple[int, ...]] = None
        limit = (table.rx_highest[flow]
                 - self._nack_threshold[table.proto[flow]])
        if rx_set and limit >= rx_next:
            scan = table.rx_scan[flow]
            if scan < rx_next:
                scan = rx_next
            if scan <= limit:
                nacked = table.rx_nacked[flow]
                missing: List[int] = []
                while scan <= limit:
                    if scan not in rx_set and scan not in nacked:
                        nacked.add(scan)
                        missing.append(scan)
                    scan += 1
                table.rx_scan[flow] = scan
                if missing:
                    nacks = tuple(missing)
        self.acks.append((t + self.up_delay, flow, idx, nacks))

    def _on_ack(self, item: Tuple[float, int, int,
                                  Optional[Tuple[int, ...]]]) -> None:
        t, flow, idx, nacks = item
        table = self.table
        if table.state[flow] != STATE_ACTIVE:
            return  # stale ack after completion
        self.acks_processed += 1
        table.last_progress[flow] = t
        acked = table.acked[flow]
        pending = table.pending[flow]
        newly = 0
        if not acked[idx]:
            acked[idx] = 1
            table.acked_pkts[flow] += 1
            newly = 1
            if pending[idx]:
                pending[idx] = 0
                table.inflight[flow] -= 1
            if not table.retx_flag[flow][idx]:
                table.rtt_update(flow, t - table.sent_time[flow][idx], t)
            payload = table.size_bytes[flow] - idx * self.mss
            self.bytes_acked[table.proto[flow]] += (
                payload if payload < self.mss else self.mss)
        su = table.snd_una[flow]
        total = table.total_pkts[flow]
        while su < total and acked[su]:
            su += 1
        table.snd_una[flow] = su
        if nacks:
            retx_queue = table.retx_queue[flow]
            loss_event = False
            for m in nacks:
                if acked[m] or not pending[m]:
                    continue
                pending[m] = 0
                table.inflight[flow] -= 1
                table.lost_pkts[flow] += 1
                retx_queue.append(m)
                if m > table.recover_idx[flow]:
                    loss_event = True
            if loss_event:
                table.on_loss_event(flow, t)
        if table.acked_pkts[flow] == total:
            table.finish_flow(flow, t)
            self.done += 1
            return
        if newly:
            table.on_ack(flow, 1, t)
        self._try_send(flow, t)

    def _timeout(self, flow: int, now: float) -> None:
        """RTO: go-back recovery of the whole outstanding window.

        Everything sent-but-unacked is declared lost and requeued in
        order; the restart window (cwnd = 2) then clocks the
        retransmissions back out in slow start.  A spurious timeout is
        safe: late acks for the originals mark packets acked, and the
        duplicate retransmissions are ignored by the receiver.
        """
        table = self.table
        acked = table.acked[flow]
        pending = table.pending[flow]
        unacked = [j for j in range(table.snd_una[flow],
                                    table.next_idx[flow])
                   if not acked[j]]
        for j in unacked:
            pending[j] = 0
        table.lost_pkts[flow] += table.inflight[flow]
        table.inflight[flow] = 0
        table.retx_queue[flow] = deque(unacked)
        table.on_timeout(flow, now)
        table.last_progress[flow] = now
        self._try_send(flow, now)

    # ------------------------------------------------------------------
    def run(self) -> dict:
        """Run to completion (or the simulated-time cap); return metrics."""
        if self._finished:
            raise RuntimeError("ManyflowEngine.run() may only run once")
        self._finished = True
        self.sim.run(until=self.config.duration)
        # The cap may have interrupted mid-batch; the clock is final, so
        # drain anything already due before reading the tallies.
        self._drain(self.sim.now)
        return self._metrics()

    def _metrics(self) -> dict:
        table = self.table
        config = self.config
        plts: List[float] = []
        plts_by_proto: Tuple[List[float], List[float]] = ([], [])
        rates: List[float] = []
        for f in range(config.flows):
            if table.state[f] != STATE_DONE:
                continue
            plt = table.finish[f] - table.arrival[f]
            plts.append(plt)
            plts_by_proto[table.proto[f]].append(plt)
            rates.append(table.size_bytes[f] / plt)
        plts.sort()
        jain = _jain_index(rates)
        total_acked = self.bytes_acked[PROTO_QUIC] + self.bytes_acked[PROTO_TCP]
        queue = self.down.queue
        metrics = {
            "flows": float(config.flows),
            "flows_completed": float(len(plts)),
            "plt_p10": _percentile(plts, 0.10),
            "plt_p50": _percentile(plts, 0.50),
            "plt_p90": _percentile(plts, 0.90),
            "plt_p99": _percentile(plts, 0.99),
            "plt_quic_p50": _median(plts_by_proto[PROTO_QUIC]),
            "plt_tcp_p50": _median(plts_by_proto[PROTO_TCP]),
            "jain_index": jain,
            #: Median per-flow goodput (bytes/sec over each flow's
            #: lifetime) — the observable the analytical CC models of
            #: :mod:`repro.core.models` predict.
            "rate_p50": _median(rates),
            "quic_share": (self.bytes_acked[PROTO_QUIC] / total_acked
                           if total_acked else 0.0),
            "bytes_acked": float(total_acked),
            "packets_delivered": float(self.delivered_packets),
            "acks_processed": float(self.acks_processed),
            "tx_completions": float(self.down.tx_completions),
            "logical_events": float(self.down.tx_completions
                                    + self.delivered_packets
                                    + self.acks_processed),
            "heap_events": float(self.sim.events_processed),
            "queue_drops": float(self.queue_drops),
            "loss_drops": float(self.down.loss_drops),
            "codel_drops": float(getattr(queue, "codel_drops", 0)),
            "sim_time": self.sim.now,
        }
        return metrics


def _jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index (Σx)² / (n · Σx²); 1.0 is perfectly fair."""
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _median(values: Sequence[float]) -> float:
    return _percentile(sorted(values), 0.50)


# ----------------------------------------------------------------------
# executor integration
# ----------------------------------------------------------------------
def execute_manyflow(request: "Any") -> "Any":
    """Run one manyflow :class:`RunRequest` (dispatched by
    :func:`repro.core.executor.execute_request`)."""
    from .executor import RunFailure, RunRecord  # avoid import cycle

    config = request.manyflow
    engine = ManyflowEngine(request.scenario, config, request.seed)
    metrics = engine.run()
    completed = int(metrics["flows_completed"])
    if completed < config.flows:
        # Deterministic (simulated-time) shortfall: cacheable, like an
        # incomplete page load.
        return RunRecord(
            request=request, plt=None, complete=False, metrics=metrics,
            failure=RunFailure(
                "incomplete",
                f"{config.flows - completed} of {config.flows} flows "
                f"still running after {config.duration:g}s simulated"))
    return RunRecord(request=request, plt=metrics["plt_p50"],
                     complete=True, metrics=metrics)


def manyflow_requests(config: ManyflowConfig,
                      scenario: Optional[Scenario] = None,
                      seeds: Sequence[int] = (0,)) -> List["Any"]:
    """Build the :class:`RunRequest` list for a manyflow sweep.

    The request's ``protocol`` slot is pinned to ``quic`` purely for
    cell addressing — a manyflow run is intrinsically mixed; the split
    lives in ``config.tcp_share``.
    """
    from .executor import ProtocolSpec, RunRequest  # avoid import cycle

    if scenario is None:
        scenario = manyflow_scenario()
    page = manyflow_page(config)
    spec = ProtocolSpec.quic()
    return [RunRequest(scenario=scenario, page=page, protocol=spec,
                       seed=seed, manyflow=config,
                       timeout=config.duration)
            for seed in seeds]
