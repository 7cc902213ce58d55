"""Columnar per-flow transport state for the many-flow fast path.

The classic stacks (`repro.quic`, `repro.tcp`) model one connection as
a graph of objects — endpoint, CC controller, RTT estimator, SACK
ranges — which is the right shape for protocol fidelity but costs too
much Python dispatch when a single bottleneck carries ~1000 concurrent
flows.  :class:`FlowTable` keeps the *hot* per-flow scalars (cwnd,
inflight, bytes acked, next sequence index, RFC 6298 RTT estimator
state) in preallocated plain-list columns indexed by integer flow id, so
the fan-out paths — ack processing, RTO scans, send-window checks —
index a list instead of walking per-flow attribute chains.  Lists, not
``array('d')`` / ``array('q')``: on CPython every array read allocates a
fresh float or int and every write converts one back, while a list load
or store moves a reference (``docs/PERFORMANCE.md``, "The thousand-flow
fast path", has the pairs).  Each column holds one element type —
``float`` for times, windows and RTT state, ``int`` for counters and
indices — and is written only with that type, so every value, and its
``repr``, is what the typed array would have held.

Congestion control is pluggable: the ``cc=`` axis selects one of the
shared kernels from :mod:`repro.transport.cc.kernels` (``reno`` —
the historical Reno-shaped AIMD, byte-for-byte — plus ``cubic`` and
``bbr``), instantiated per flow in packet units (``mss=1``) from the
per-protocol parameter sets below.  Protocol asymmetry (QUIC's larger
initial window, gentler multiplicative decrease from emulating N
connections, and the MACW cap of the paper's Sec. 5.1) is what
reproduces the Tab. 4 unfairness qualitatively at scale.  RTT
estimation follows RFC 6298 with the same constants as
:class:`repro.transport.rtt.RttEstimator`.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from .cc.kernels import KERNEL_NAMES, make_kernel

__all__ = ["FlowParams", "FlowTable", "QUIC_PARAMS", "TCP_PARAMS",
           "PROTO_QUIC", "PROTO_TCP"]

#: Values of the ``proto`` column.
PROTO_QUIC = 0
PROTO_TCP = 1

#: Values of the ``state`` column.
STATE_PENDING = 0
STATE_ACTIVE = 1
STATE_DONE = 2

# RFC 6298 constants, matching repro.transport.rtt.RttEstimator.
_ALPHA = 1.0 / 8.0
_BETA = 1.0 / 4.0
_K = 4.0
_MIN_RTO = 0.2
_MAX_RTO = 60.0


@dataclass(frozen=True)
class FlowParams:
    """Per-protocol congestion-control parameters."""

    name: str
    #: Initial window, packets (QUIC's 32 vs TCP's RFC 6928 10).
    initial_window: float
    #: Cap on cwnd, packets (QUIC's MACW = 430; effectively none for TCP).
    max_cwnd: float
    #: Multiplicative-decrease factor.  QUIC emulating N=2 connections
    #: backs off by (N - 1 + 0.7) / N = 0.85 — the Tab. 4 aggression.
    beta: float
    #: Packets past a hole before the receiver declares it lost.
    nack_threshold: int
    #: Chromium N-connection emulation behind ``beta`` (QUIC's 0.85 is
    #: (N - 1 + 0.7) / N with N = 2); the Cubic kernel derives its
    #: TCP-friendly alpha from it.
    emulated_connections: int = 1


QUIC_PARAMS = FlowParams(name="quic", initial_window=32.0,
                         max_cwnd=430.0, beta=0.85, nack_threshold=3,
                         emulated_connections=2)
TCP_PARAMS = FlowParams(name="tcp", initial_window=10.0,
                        max_cwnd=10_000.0, beta=0.7, nack_threshold=3)


class FlowTable:
    """Columnar state for ``capacity`` flows, indexed by flow id.

    Scalar columns are plain lists of ``float`` (the first group in
    ``__slots__``) or of ``int`` (the second), never mixed.  Per-packet
    bookkeeping stays compact — ``sent_time`` is an ``array('d')``, the
    flags ``bytearray`` columns — and lives in list-of-columns slots filled
    in when a flow activates, so idle capacity costs a few machine words
    per flow.
    """

    __slots__ = (
        "capacity", "mss", "cc", "_is_bbr", "params_by_proto",
        # float columns
        "arrival", "cwnd", "ssthresh", "srtt", "rttvar", "min_rtt",
        "last_progress", "finish",
        # int columns
        "size_bytes", "total_pkts", "next_idx", "inflight", "acked_pkts",
        "snd_una", "recover_idx", "state", "proto",
        "rx_next", "rx_highest", "rx_received", "rx_scan",
        "retx_sent", "lost_pkts",
        # list-of-columns (per-flow objects, allocated on activation)
        "sent_time", "acked", "retx_flag", "pending",
        "retx_queue", "rx_set", "rx_nacked", "kernel",
    )

    def __init__(self, capacity: int, mss: int = 1350,
                 cc: str = "reno") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if cc not in KERNEL_NAMES:
            raise ValueError(
                f"unknown CC kernel {cc!r}; expected one of "
                f"{', '.join(KERNEL_NAMES)}")
        self.capacity = capacity
        self.mss = mss
        self.cc = cc
        self._is_bbr = cc == "bbr"  # per-table constant, read per ACK
        self.params_by_proto: Tuple[FlowParams, FlowParams] = (
            QUIC_PARAMS, TCP_PARAMS)
        self.arrival = [0.0] * capacity
        self.cwnd = [0.0] * capacity
        self.ssthresh = [0.0] * capacity
        self.srtt = [0.0] * capacity
        self.rttvar = [0.0] * capacity
        self.min_rtt = [0.0] * capacity
        self.last_progress = [0.0] * capacity
        self.finish = [0.0] * capacity
        self.size_bytes = [0] * capacity
        self.total_pkts = [0] * capacity
        self.next_idx = [0] * capacity
        self.inflight = [0] * capacity
        self.acked_pkts = [0] * capacity
        self.snd_una = [0] * capacity
        self.recover_idx = [0] * capacity
        self.state = [0] * capacity
        self.proto = [0] * capacity
        self.rx_next = [0] * capacity
        self.rx_highest = [0] * capacity
        self.rx_received = [0] * capacity
        self.rx_scan = [0] * capacity
        self.retx_sent = [0] * capacity
        self.lost_pkts = [0] * capacity
        self.sent_time: List[Optional[array]] = [None] * capacity
        self.acked: List[Optional[bytearray]] = [None] * capacity
        self.retx_flag: List[Optional[bytearray]] = [None] * capacity
        #: 1 while a packet is charged to ``inflight``: set on (re)send,
        #: cleared on first ack or on being declared lost.
        self.pending: List[Optional[bytearray]] = [None] * capacity
        self.retx_queue: List[Optional[Deque[int]]] = [None] * capacity
        self.rx_set: List[Optional[set]] = [None] * capacity
        self.rx_nacked: List[Optional[set]] = [None] * capacity
        #: Per-flow CC kernel (packet units), allocated on activation.
        self.kernel: List[Optional[object]] = [None] * capacity

    # ------------------------------------------------------------------
    def define_flow(self, flow: int, arrival: float, size_bytes: int,
                    proto: int) -> None:
        """Register a flow's workload before it activates."""
        npkts = max(1, -(-size_bytes // self.mss))
        self.arrival[flow] = arrival
        self.size_bytes[flow] = size_bytes
        self.total_pkts[flow] = npkts
        self.proto[flow] = proto
        self.state[flow] = STATE_PENDING

    def activate(self, flow: int, now: float) -> None:
        """Allocate per-packet columns and open the initial window."""
        npkts = self.total_pkts[flow]
        params = self.params_by_proto[self.proto[flow]]
        kernel = make_kernel(self.cc, params)
        self.kernel[flow] = kernel
        self.state[flow] = STATE_ACTIVE
        self.cwnd[flow] = kernel.cwnd
        self.ssthresh[flow] = kernel.ssthresh
        self.last_progress[flow] = now
        self.recover_idx[flow] = -1
        self.sent_time[flow] = array("d", bytes(8 * npkts))
        self.acked[flow] = bytearray(npkts)
        self.retx_flag[flow] = bytearray(npkts)
        self.pending[flow] = bytearray(npkts)
        self.retx_queue[flow] = deque()
        self.rx_set[flow] = set()
        self.rx_nacked[flow] = set()

    def finish_flow(self, flow: int, now: float) -> None:
        self.state[flow] = STATE_DONE
        self.finish[flow] = now
        # Release the per-packet columns; scalars stay for reporting.
        self.sent_time[flow] = None
        self.acked[flow] = None
        self.retx_flag[flow] = None
        self.pending[flow] = None
        self.retx_queue[flow] = None
        self.rx_set[flow] = None
        self.rx_nacked[flow] = None
        self.kernel[flow] = None

    # ------------------------------------------------------------------
    def rtt_update(self, flow: int, sample: float,
                   now: float = 0.0) -> None:
        """RFC 6298 update on the columnar estimator state."""
        if sample <= 0:
            return
        mrtt = self.min_rtt[flow]
        if mrtt == 0.0 or sample < mrtt:
            self.min_rtt[flow] = sample
        if self._is_bbr:
            # BBR tracks min-RTT freshness (the ProbeRTT trigger).
            kernel = self.kernel[flow]
            if kernel is not None:
                kernel.on_rtt_sample(now, sample, self.min_rtt[flow])
        srtt = self.srtt[flow]
        if srtt == 0.0:
            self.srtt[flow] = sample
            self.rttvar[flow] = sample / 2.0
            return
        delta = srtt - sample if srtt > sample else sample - srtt
        self.rttvar[flow] = (1.0 - _BETA) * self.rttvar[flow] + _BETA * delta
        self.srtt[flow] = (1.0 - _ALPHA) * srtt + _ALPHA * sample

    def rto(self, flow: int) -> float:
        srtt = self.srtt[flow]
        if srtt == 0.0:
            return 1.0  # RFC 6298 initial RTO
        rto = srtt + max(_K * self.rttvar[flow], 0.001)
        return min(max(rto, _MIN_RTO), _MAX_RTO)

    # ------------------------------------------------------------------
    def on_ack(self, flow: int, newly_acked: int,
               now: float = 0.0) -> None:
        """Kernel window growth for ``newly_acked`` packets."""
        if newly_acked <= 0:
            return
        kernel = self.kernel[flow]
        kernel.on_ack(newly_acked, now, self.srtt[flow],
                      self.min_rtt[flow])
        self.cwnd[flow] = kernel.cwnd
        self.ssthresh[flow] = kernel.ssthresh

    def on_loss_event(self, flow: int, now: float = 0.0) -> None:
        """Multiplicative decrease, at most once per window in flight."""
        kernel = self.kernel[flow]
        kernel.on_loss(now, float(self.inflight[flow]))
        self.cwnd[flow] = kernel.cwnd
        self.ssthresh[flow] = kernel.ssthresh
        self.recover_idx[flow] = self.next_idx[flow] - 1

    def on_timeout(self, flow: int, now: float = 0.0) -> None:
        """RTO: collapse to a restart window."""
        kernel = self.kernel[flow]
        kernel.on_timeout(now)
        self.cwnd[flow] = kernel.cwnd
        self.ssthresh[flow] = kernel.ssthresh
        self.recover_idx[flow] = self.next_idx[flow] - 1
