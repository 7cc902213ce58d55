"""Simplified BBR congestion control (for Fig. 3b and ablations).

The paper instruments QUIC's *experimental* BBR implementation purely to
demonstrate that the state-machine-inference approach generalises (Sec.
5.1: "this instrumentation took approximately 5 hours"), and notes that at
the time BBR was "not yet performing as well as Cubic" in Google's tests.

This is a faithful-in-shape, simplified BBR v1: windowed-max bandwidth
filter, windowed-min RTT, the four canonical states (Startup, Drain,
ProbeBW with an 8-phase gain cycle, ProbeRTT) plus a Recovery overlay.
It exposes the same :class:`CongestionController` interface as Cubic, so
any experiment can swap it in.
"""

from __future__ import annotations

from typing import Optional

from ...core.instrumentation import Trace
from ..rtt import RttEstimator
from .interface import BBRState, CongestionController
from .kernels import (
    BBR_BW_WINDOW_ROUNDS as BW_WINDOW_ROUNDS,
    BBR_DRAIN_GAIN as DRAIN_GAIN,
    BBR_MIN_RTT_WINDOW as MIN_RTT_WINDOW,
    BBR_PROBE_BW_GAINS as PROBE_BW_GAINS,
    BBR_PROBE_RTT_DURATION as PROBE_RTT_DURATION,
    BBR_STARTUP_GAIN as STARTUP_GAIN,
    BBRKernel,
)


class BBR(CongestionController):
    """Bottleneck Bandwidth and RTT, v1-style, simplified.

    A thin trace-emitting adapter over
    :class:`repro.transport.cc.kernels.BBRKernel`: the kernel owns the
    bandwidth filter, the Startup/Drain/ProbeBW/ProbeRTT machine and the
    BDP-tracking cwnd; this class adds the recovery overlay and logs the
    Fig. 3b state transitions into the attached trace.
    """

    def __init__(self, rtt: RttEstimator, mss: int = 1350,
                 trace: Optional[Trace] = None) -> None:
        super().__init__(trace)
        self.rtt = rtt
        self.mss = mss
        self.kernel = BBRKernel(mss=mss)
        self.in_recovery = False
        self._delivered_bytes = 0
        self._set_state(0.0, BBRState.STARTUP.value)

    # ------------------------------------------------------------------
    @property
    def cwnd(self) -> int:
        return int(self.kernel.cwnd)

    def can_send_bytes(self, in_flight: int) -> int:
        return max(int(self.kernel.cwnd) - in_flight, 0)

    def pacing_rate(self) -> Optional[float]:
        return self.kernel.pacing_rate(self.rtt.smoothed_rtt)

    def _bandwidth(self) -> float:
        return self.kernel.bandwidth()

    # ------------------------------------------------------------------
    def on_connection_start(self, now: float) -> None:
        self.kernel.min_rtt_stamp = now

    def on_packet_sent(self, now: float, size_bytes: int,
                       is_retransmission: bool) -> None:
        pass

    def on_ack(self, now: float, acked_bytes: int, *, cwnd_limited: bool) -> None:
        kernel = self.kernel
        if self.in_recovery:
            self.in_recovery = False
            self._set_state(now, kernel.mode)
        if cwnd_limited:
            kernel.app_limited = False
        prev_mode = kernel.mode
        kernel.on_ack(acked_bytes, now, self.rtt.smoothed_rtt,
                      self.rtt.min_rtt())
        self._delivered_bytes += acked_bytes
        if kernel.mode != prev_mode and not self.in_recovery:
            self._set_state(now, kernel.mode)
        self.trace.log_cwnd(now, int(kernel.cwnd))

    def on_rtt_sample(self, now: float, rtt: float) -> None:
        self.kernel.on_rtt_sample(now, rtt, self.rtt.min_rtt())

    def on_congestion_event(self, now: float, in_flight: int) -> None:
        # BBR v1 reacts to loss only by entering a shallow recovery:
        # cap cwnd at in-flight (packet conservation) for one round.
        self.in_recovery = True
        self.kernel.on_loss(now, float(in_flight))
        self._set_state(now, BBRState.RECOVERY.value)

    def on_recovery_exit(self, now: float) -> None:
        if self.in_recovery:
            self.in_recovery = False
            self._set_state(now, self.kernel.mode)

    def on_retransmission_timeout(self, now: float) -> None:
        self.kernel.on_timeout(now)
        self.in_recovery = True
        self._set_state(now, BBRState.RECOVERY.value)

    def on_rto_resolved(self, now: float) -> None:
        self.on_recovery_exit(now)

    def on_application_limited(self, now: float) -> None:
        # Until a cwnd-limited ACK, the delivery-rate samples measure the
        # application, not the bottleneck: they must not end Startup.
        self.kernel.app_limited = True
