"""Pure congestion-control kernels shared by every CC consumer.

The repo used to carry two divergent CC implementations: the
:class:`~repro.transport.cc.interface.CongestionController` class family
(Cubic, BBR) driving per-packet QUIC/TCP connections, and a separate
hardcoded Reno-shaped AIMD inside :class:`repro.transport.flowtable.FlowTable`
for the thousand-flow fast path.  This module is the single home for the
window arithmetic: small, allocation-light kernel objects with a shared
step API —

* ``on_ack(acked, now, srtt, min_rtt)`` — window growth for newly-acked
  data,
* ``on_loss(now, in_flight)`` — multiplicative decrease / loss reaction,
* ``on_timeout(now)`` — RTO collapse,
* exported ``cwnd`` / ``ssthresh`` state and ``pacing_rate(srtt)``.

Kernels are **unit-agnostic**: all window quantities are in multiples of
``mss``.  The per-packet adapters instantiate them with ``mss`` in bytes
(cwnd in bytes); :class:`~repro.transport.flowtable.FlowTable` uses
``mss=1.0`` so cwnd is in packets, exactly matching its columnar state.
Kernels are also **pure** in the sense that they touch no clocks, RNGs,
traces or estimators — time and RTT state are passed in — which is what
makes the kernel-vs-adapter equivalence suite and the analytical-model
oracles of :mod:`repro.core.models` possible.

All state overlays (recovery bookkeeping, PRR, Hybrid Slow Start exits,
receiver-buffer ssthresh anchoring, Table 3 state logging) stay in the
adapters; they reach in through the mutable ``cwnd`` / ``ssthresh``
attributes.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

__all__ = [
    "BBRKernel",
    "CubicKernel",
    "KERNEL_NAMES",
    "RenoKernel",
    "make_kernel",
]

#: The pluggable CC axis accepted by ``ManyflowConfig.cc`` / ``repro
#: manyflow --cc``.
KERNEL_NAMES = ("reno", "cubic", "bbr")

# BBR mode strings, matching repro.transport.cc.interface.BBRState values
# (kernels stay import-free of the adapter layer).
BBR_STARTUP = "Startup"
BBR_DRAIN = "Drain"
BBR_PROBE_BW = "ProbeBW"
BBR_PROBE_RTT = "ProbeRTT"

#: Startup/drain gains: 2/ln(2).
BBR_STARTUP_GAIN = 2.885
BBR_DRAIN_GAIN = 1.0 / BBR_STARTUP_GAIN
#: ProbeBW pacing-gain cycle.
BBR_PROBE_BW_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: Bandwidth filter window, in round trips (approximated by time).
BBR_BW_WINDOW_ROUNDS = 10
#: Min-RTT validity window and ProbeRTT dwell, seconds.
BBR_MIN_RTT_WINDOW = 10.0
BBR_PROBE_RTT_DURATION = 0.2


class RenoKernel:
    """Reno-shaped AIMD — the historical :class:`FlowTable` arithmetic.

    Slow start adds one ``mss`` per acked segment, congestion avoidance
    ``acked/cwnd``; loss multiplies by ``beta`` (protocol asymmetry —
    QUIC's N-connection-emulation 0.85 vs TCP's 0.7 — lives in ``beta``);
    an RTO collapses to the restart window.  ``max_cwnd`` models the MACW
    cap of the paper's Sec. 5.1.
    """

    name = "reno"

    __slots__ = ("cwnd", "ssthresh", "beta", "max_cwnd", "min_cwnd")

    def __init__(self, *, initial_cwnd: float, max_cwnd: float,
                 beta: float, min_cwnd: float = 2.0,
                 ssthresh: Optional[float] = None) -> None:
        self.cwnd = float(initial_cwnd)
        self.ssthresh = float(max_cwnd if ssthresh is None else ssthresh)
        self.beta = beta
        self.max_cwnd = float(max_cwnd)
        self.min_cwnd = float(min_cwnd)

    def on_ack(self, acked: float, now: float = 0.0, srtt: float = 0.0,
               min_rtt: float = 0.0) -> None:
        cwnd = self.cwnd
        if cwnd < self.ssthresh:
            cwnd += float(acked)  # slow start
        else:
            cwnd += acked / cwnd  # congestion avoidance
        cap = self.max_cwnd
        self.cwnd = cwnd if cwnd < cap else cap

    def on_loss(self, now: float = 0.0, in_flight: float = 0.0) -> None:
        cwnd = max(self.cwnd * self.beta, self.min_cwnd)
        self.cwnd = cwnd
        self.ssthresh = cwnd

    def on_timeout(self, now: float = 0.0) -> None:
        self.ssthresh = max(self.cwnd * self.beta, self.min_cwnd)
        self.cwnd = self.min_cwnd

    def pacing_rate(self, srtt: float = 0.0) -> Optional[float]:
        return None  # the Reno path is ack-clocked, not paced


class CubicKernel:
    """RFC-8312-style Cubic with the Chromium extensions the paper uses.

    Carries the cubic epoch variables (``w_max``, ``k``, origin point,
    Reno-friendly ``w_est``) and implements the exact Chromium growth
    arithmetic previously inlined in ``CubicCC``: cubic target with the
    1.5x-per-RTT clamp, TCP-friendly region scaled by ``reno_alpha``
    (``3 N² (1-beta) / (1+beta)`` for N emulated connections), fast
    convergence, and the MACW clamp.

    ``beta`` here is the *scaled* beta (``(N - 1 + beta) / N``); the
    adapter computes it from its config.  ``on_loss`` applies the
    non-PRR reduction (``cwnd = ssthresh``); an adapter running PRR
    saves and restores ``cwnd`` around the call, since PRR rations
    sending without shrinking the window immediately.
    """

    name = "cubic"

    __slots__ = (
        "cwnd", "ssthresh", "mss", "min_cwnd", "max_cwnd", "cubic_c",
        "beta", "reno_alpha", "fast_convergence",
        "w_max", "epoch_start", "k", "origin_point", "w_est",
        "pacing_gain_slow_start", "pacing_gain_ca",
    )

    def __init__(self, *, mss: float, initial_cwnd: float,
                 min_cwnd: float, max_cwnd: Optional[float],
                 ssthresh: float = float("inf"), cubic_c: float = 0.4,
                 beta: float = 0.7, reno_alpha: float = 0.5294117647058824,
                 fast_convergence: bool = True,
                 pacing_gain_slow_start: Optional[float] = 2.0,
                 pacing_gain_ca: Optional[float] = 1.25) -> None:
        self.mss = float(mss)
        self.cwnd = float(initial_cwnd)
        self.min_cwnd = float(min_cwnd)
        self.max_cwnd = float(max_cwnd) if max_cwnd is not None else None
        self.ssthresh = float(ssthresh)
        self.cubic_c = cubic_c
        self.beta = beta
        self.reno_alpha = reno_alpha
        self.fast_convergence = fast_convergence
        self.pacing_gain_slow_start = pacing_gain_slow_start
        self.pacing_gain_ca = pacing_gain_ca
        # Cubic epoch variables (packet units, i.e. multiples of mss).
        self.w_max: float = 0.0
        self.epoch_start: Optional[float] = None
        self.k: float = 0.0
        self.origin_point: float = 0.0
        self.w_est: float = 0.0

    def on_ack(self, acked: float, now: float = 0.0, srtt: float = 0.0,
               min_rtt: float = 0.0) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += acked  # slow start
        else:
            self._congestion_avoidance(acked, now, min_rtt)
        self.clamp()

    def _congestion_avoidance(self, acked: float, now: float,
                              min_rtt: float) -> None:
        """Cubic window growth with the TCP-friendly (Reno) floor."""
        cwnd_packets = self.cwnd / self.mss
        if self.epoch_start is None:
            self.epoch_start = now
            if cwnd_packets < self.w_max:
                self.k = ((self.w_max - cwnd_packets)
                          / self.cubic_c) ** (1.0 / 3.0)
                self.origin_point = self.w_max
            else:
                self.k = 0.0
                self.origin_point = cwnd_packets
            self.w_est = cwnd_packets
        t = now - self.epoch_start + min_rtt
        target = self.origin_point + self.cubic_c * (t - self.k) ** 3
        # TCP-friendly region (scaled for N emulated connections).
        self.w_est += self.reno_alpha * (acked / self.cwnd)
        target = max(target, self.w_est)
        # Limit growth to 1.5x per RTT worth of ACKs (Chromium clamp).
        if target > cwnd_packets:
            increase = (target - cwnd_packets) / cwnd_packets
            self.cwnd += min(increase, 0.5) * acked
        else:
            # Below the cubic curve: still grow slowly (1 packet / 100 acks).
            self.cwnd += acked / (100.0 * cwnd_packets) * 1.0

    def on_loss(self, now: float = 0.0, in_flight: float = 0.0) -> None:
        cwnd_packets = self.cwnd / self.mss
        if self.fast_convergence and cwnd_packets < self.w_max:
            self.w_max = cwnd_packets * (1.0 + self.beta) / 2.0
        else:
            self.w_max = cwnd_packets
        self.ssthresh = max(self.cwnd * self.beta, self.min_cwnd)
        self.epoch_start = None
        self.cwnd = self.ssthresh

    def on_recovery_exit(self) -> None:
        self.cwnd = max(self.ssthresh, self.min_cwnd)
        self.clamp()

    def on_timeout(self, now: float = 0.0) -> None:
        self.ssthresh = max(self.cwnd * self.beta, self.min_cwnd)
        self.cwnd = self.min_cwnd
        self.epoch_start = None
        self.w_max = max(self.w_max, self.ssthresh / self.mss)

    def clamp(self) -> None:
        if self.max_cwnd is not None and self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd
        if self.cwnd < self.min_cwnd:
            self.cwnd = self.min_cwnd

    def pacing_rate(self, srtt: float = 0.0) -> Optional[float]:
        if self.cwnd < self.ssthresh:
            gain = self.pacing_gain_slow_start
        else:
            gain = self.pacing_gain_ca
        if gain is None:
            return None
        if srtt < 1e-6:
            srtt = 1e-6
        return gain * self.cwnd / srtt


class BBRKernel:
    """Simplified BBR v1: bandwidth filter, four-mode machine, BDP cwnd.

    Owns the windowed-max delivery-rate filter — a monotonic deque
    (the Kathleen Nichols min/max filter of Linux BBR: O(1) amortised
    per ACK, the max is the front) — and the
    Startup/Drain/ProbeBW/ProbeRTT progression previously inlined in the
    ``BBR`` controller class.  Loss handling is BBR's shallow reaction —
    ``on_loss`` caps cwnd at in-flight (packet conservation); the
    *recovery overlay* (state logging, exit on next ack) stays in the
    adapter, which reads :attr:`mode` to know what to restore.
    """

    name = "bbr"

    __slots__ = (
        "cwnd", "ssthresh", "mss", "min_cwnd", "max_cwnd", "mode",
        "pacing_gain", "cwnd_gain", "bw_samples", "full_bw",
        "full_bw_rounds", "cycle_index", "cycle_start",
        "probe_rtt_done_at", "min_rtt_stamp", "last_ack_time",
        "drain_entered_at", "app_limited",
    )

    def __init__(self, *, mss: float, initial_cwnd: Optional[float] = None,
                 min_cwnd: Optional[float] = None,
                 max_cwnd: Optional[float] = None) -> None:
        self.mss = float(mss)
        self.cwnd = float(initial_cwnd if initial_cwnd is not None
                          else 32 * mss)
        self.min_cwnd = float(min_cwnd if min_cwnd is not None
                              else 4 * mss)
        self.max_cwnd = float(max_cwnd) if max_cwnd is not None else None
        self.ssthresh = float("inf")  # BBR has no slow-start threshold
        self.mode = BBR_STARTUP
        self.pacing_gain = BBR_STARTUP_GAIN
        self.cwnd_gain = BBR_STARTUP_GAIN
        #: (time, units/sec) samples of the sliding window that no newer
        #: sample dominates; the front is the windowed max.
        self.bw_samples: Deque[Tuple[float, float]] = deque()
        self.full_bw = 0.0
        self.full_bw_rounds = 0
        self.cycle_index = 0
        self.cycle_start = 0.0
        self.probe_rtt_done_at: Optional[float] = None
        self.min_rtt_stamp = 0.0
        self.last_ack_time: Optional[float] = None
        self.drain_entered_at = 0.0
        #: Set while the sender is application-limited (by the adapter):
        #: such bandwidth samples cannot show a full pipe.
        self.app_limited = False

    # ------------------------------------------------------------------
    def bandwidth(self) -> float:
        samples = self.bw_samples
        return samples[0][1] if samples else 0.0

    def on_ack(self, acked: float, now: float = 0.0, srtt: float = 0.0,
               min_rtt: float = 0.0) -> None:
        # Delivery-rate sample: units delivered / inter-ACK time.
        if self.last_ack_time is not None and now > self.last_ack_time:
            rate = acked / (now - self.last_ack_time)
            self._push_bw_sample(now, rate, srtt)
        self.last_ack_time = now
        self._update_mode(now, srtt, min_rtt)
        self._update_cwnd(acked, min_rtt)

    def on_rtt_sample(self, now: float, rtt: float, min_rtt: float) -> None:
        if rtt <= min_rtt + 1e-9:
            self.min_rtt_stamp = now

    def on_loss(self, now: float = 0.0, in_flight: float = 0.0) -> None:
        # BBR v1 reacts to loss only with packet conservation: cap cwnd
        # at in-flight for one round (the adapter's recovery overlay).
        self.cwnd = max(float(in_flight), self.min_cwnd)

    def on_timeout(self, now: float = 0.0) -> None:
        self.cwnd = self.min_cwnd

    def pacing_rate(self, srtt: float = 0.0) -> Optional[float]:
        bw = self.bandwidth()
        if bw <= 0:
            # No estimate yet: pace off the initial window.
            return BBR_STARTUP_GAIN * self.cwnd / max(srtt, 1e-6)
        return self.pacing_gain * bw

    # ------------------------------------------------------------------
    def _push_bw_sample(self, now: float, rate: float, srtt: float) -> None:
        # A sample that a newer one matches or beats can never be the
        # windowed max again: drop it, so rates strictly decrease front
        # to back and the front is the max.  Sample times strictly
        # increase, so the front also expires no later than anything
        # behind it — ``bandwidth()`` is float-for-float the max over
        # the plain time window, however ``window`` grows or shrinks.
        window = BBR_BW_WINDOW_ROUNDS * max(srtt, 1e-3)
        samples = self.bw_samples
        while samples and samples[-1][1] <= rate:
            samples.pop()
        samples.append((now, rate))
        while now - samples[0][0] > window:  # stops at the new sample
            samples.popleft()

    def _update_mode(self, now: float, srtt: float, min_rtt: float) -> None:
        mode = self.mode
        if mode == BBR_STARTUP:
            self._check_full_pipe()
            if self.full_bw_rounds >= 3:
                self._enter(BBR_DRAIN, BBR_DRAIN_GAIN, 2.0)
                self.drain_entered_at = now
        elif mode == BBR_DRAIN:
            # The startup queue drains within about one smoothed RTT of
            # pacing below the bottleneck rate.
            if now - self.drain_entered_at >= 1.5 * srtt:
                self._enter_probe_bw(now)
        elif mode == BBR_PROBE_BW:
            cycle_len = max(min_rtt, 1e-3)
            if now - self.cycle_start > cycle_len:
                self.cycle_index = ((self.cycle_index + 1)
                                    % len(BBR_PROBE_BW_GAINS))
                self.pacing_gain = BBR_PROBE_BW_GAINS[self.cycle_index]
                self.cycle_start = now
            if now - self.min_rtt_stamp > BBR_MIN_RTT_WINDOW:
                self._enter(BBR_PROBE_RTT, 1.0, 1.0)
                self.probe_rtt_done_at = now + BBR_PROBE_RTT_DURATION
        elif mode == BBR_PROBE_RTT:
            if (self.probe_rtt_done_at is not None
                    and now >= self.probe_rtt_done_at):
                self.min_rtt_stamp = now
                if self.full_bw_rounds >= 3:
                    self._enter_probe_bw(now)
                else:
                    self._enter(BBR_STARTUP, BBR_STARTUP_GAIN,
                                BBR_STARTUP_GAIN)

    def _check_full_pipe(self) -> None:
        # As Linux BBR v1's bbr_check_full_bw_reached: an app-limited
        # sample says nothing about the bottleneck.
        if self.app_limited:
            return
        bw = self.bandwidth()
        if bw > self.full_bw * 1.25:
            self.full_bw = bw
            self.full_bw_rounds = 0
        elif bw > 0:
            self.full_bw_rounds += 1

    def _enter(self, mode: str, pacing_gain: float,
               cwnd_gain: float) -> None:
        self.mode = mode
        self.pacing_gain = pacing_gain
        self.cwnd_gain = cwnd_gain

    def _enter_probe_bw(self, now: float) -> None:
        self._enter(BBR_PROBE_BW, BBR_PROBE_BW_GAINS[0], 2.0)
        self.cycle_index = 0
        self.cycle_start = now

    def _update_cwnd(self, acked: float, min_rtt: float) -> None:
        if self.mode == BBR_PROBE_RTT:
            self.cwnd = max(self.min_cwnd, 4 * self.mss)
            return
        bdp = self.bandwidth() * min_rtt
        target = self.cwnd_gain * bdp
        if target <= 0:
            target = self.cwnd + acked
        if self.cwnd < target:
            self.cwnd = min(self.cwnd + acked, target + acked)
        else:
            self.cwnd = max(target, self.min_cwnd)
        if self.max_cwnd is not None and self.cwnd > self.max_cwnd:
            self.cwnd = self.max_cwnd
        if self.cwnd < self.min_cwnd:
            self.cwnd = self.min_cwnd


def make_kernel(name: str, params: "object", mss: float = 1.0):
    """Build a packet-unit kernel for :class:`FlowTable`.

    ``params`` is a :class:`~repro.transport.flowtable.FlowParams`; the
    mapping keeps the Reno axis byte-for-byte identical to the historical
    columnar AIMD (initial window, MACW cap, protocol beta), and derives
    the Cubic scaled-beta/alpha from the same per-protocol constants
    (QUIC's beta 0.85 is the N=2 emulation of Sec. 5.1).
    """
    if name == "reno":
        return RenoKernel(initial_cwnd=params.initial_window,
                          max_cwnd=params.max_cwnd, beta=params.beta,
                          min_cwnd=2.0)
    if name == "cubic":
        n = max(getattr(params, "emulated_connections", 1), 1)
        beta = params.beta
        reno_alpha = 3.0 * n * n * (1.0 - beta) / (1.0 + beta)
        return CubicKernel(mss=mss, initial_cwnd=params.initial_window,
                           min_cwnd=2.0, max_cwnd=params.max_cwnd,
                           ssthresh=params.max_cwnd, beta=beta,
                           reno_alpha=reno_alpha)
    if name == "bbr":
        return BBRKernel(mss=mss, initial_cwnd=params.initial_window,
                         min_cwnd=4.0, max_cwnd=params.max_cwnd)
    raise ValueError(
        f"unknown CC kernel {name!r}; expected one of "
        f"{', '.join(KERNEL_NAMES)}")
