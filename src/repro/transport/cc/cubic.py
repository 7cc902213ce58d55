"""Cubic congestion control, parameterised for both QUIC and TCP.

The paper's central protocol comparison is *Cubic vs. Cubic*: "we expect
that QUIC and TCP should be relatively fair to each other because they
both use the Cubic congestion control protocol" (Sec. 5.1) — and yet QUIC
wins, because of how it is *driven* (per-packet unambiguous ACKs, pacing,
N-connection emulation, PRR, TLP, a maximum allowed congestion window).

This class implements RFC-8312-style Cubic with the Chromium extensions
the paper discusses:

* **N-connection emulation** (``num_emulated_connections``): Chromium's
  ``cubic.cc`` scales beta to ``(N - 1 + 0.7) / N`` and the Reno-friendly
  alpha to ``3 N² (1 - beta) / (1 + beta)`` so one QUIC connection behaves
  like N TCP connections (default N=2 in QUIC 34, N=1 in QUIC 37).
* **Maximum allowed congestion window** (``max_cwnd_packets``): the MACW
  of Sec. 4.1/5.4 — 107 packets in the uncalibrated public server, 430 in
  Chrome at paper time, 2000 in QUIC 37.  Hitting it puts the sender in
  the ``CongestionAvoidanceMaxed`` state of Table 3.
* **Hybrid Slow Start** with Chromium's delay-increase exit.
* **PRR** during recovery.
* The **Chromium-52 ssthresh bug** (Sec. 4.1): when
  ``ssthresh_from_receiver_buffer`` is False, ssthresh stays at the small
  ``buggy_initial_ssthresh_packets`` default instead of being raised to
  the receiver-advertised buffer, forcing an early slow-start exit.

State bookkeeping follows Table 3; transitions are logged to the attached
:class:`~repro.core.instrumentation.Trace` for state-machine inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ...core.instrumentation import Trace
from ..rtt import RttEstimator
from .hybrid_slow_start import HybridSlowStart
from .interface import CCState, CongestionController
from .kernels import CubicKernel
from .prr import ProportionalRateReduction


@dataclass(frozen=True)
class CubicConfig:
    """Tunables for one Cubic instance.

    The defaults correspond to QUIC version 34 as calibrated in the paper
    (Sec. 4.1); :mod:`repro.quic.config` and :mod:`repro.tcp.config`
    derive protocol- and version-specific variants.
    """

    mss: int = 1350
    #: Initial congestion window, packets (Chromium QUIC default).
    initial_cwnd_packets: int = 32
    #: Maximum allowed congestion window (MACW), packets; None = unlimited.
    max_cwnd_packets: Optional[int] = 430
    #: Minimum window after an RTO, packets.
    min_cwnd_packets: int = 2
    #: Cubic scaling constant C (packets/sec^3) and backoff beta.
    cubic_c: float = 0.4
    beta: float = 0.7
    #: Chromium's N-connection emulation (Sec. 5.1).
    num_emulated_connections: int = 1
    #: Fast convergence halves W_max further on repeated losses.
    fast_convergence: bool = True
    #: Hybrid Slow Start on/off and sensitivity.
    hybrid_slow_start: bool = True
    hss_threshold_divisor: float = 8.0
    #: Proportional rate reduction during recovery.
    prr: bool = True
    #: Pacing gains (bytes/sec = gain * cwnd / srtt); None disables pacing.
    pacing_gain_slow_start: Optional[float] = 2.0
    pacing_gain_ca: Optional[float] = 1.25
    #: Receiver-buffer-driven ssthresh initialisation (the Chromium-52
    #: bug of Sec. 4.1 is modelled by turning this off).
    ssthresh_from_receiver_buffer: bool = True
    buggy_initial_ssthresh_packets: int = 100

    def scaled_beta(self) -> float:
        n = max(self.num_emulated_connections, 1)
        return (n - 1 + self.beta) / n

    def reno_alpha(self) -> float:
        """TCP-friendly additive-increase factor for N emulated connections."""
        n = max(self.num_emulated_connections, 1)
        beta = self.scaled_beta()
        return 3.0 * n * n * (1.0 - beta) / (1.0 + beta)


class CubicCC(CongestionController):
    """Cubic with Hybrid Slow Start, PRR, MACW and N-connection emulation.

    A thin trace-emitting adapter over
    :class:`repro.transport.cc.kernels.CubicKernel`: the kernel owns the
    window arithmetic (slow start, cubic epoch growth, multiplicative
    decrease, MACW clamp); this class adds the connection-facing
    overlays — PRR rationing during recovery, Hybrid Slow Start exits,
    receiver-buffer ssthresh anchoring, TLP/RTO/app-limited state
    resolution and Table 3 trace logging.
    """

    def __init__(self, config: CubicConfig, rtt: RttEstimator,
                 trace: Optional[Trace] = None) -> None:
        super().__init__(trace)
        self.config = config
        self.rtt = rtt
        if config.ssthresh_from_receiver_buffer:
            initial_ssthresh = float("inf")
        else:
            # Chromium-52 bug: ssthresh never raised to the receiver buffer.
            initial_ssthresh = float(
                config.buggy_initial_ssthresh_packets * config.mss)
        self.kernel = CubicKernel(
            mss=config.mss,
            initial_cwnd=config.initial_cwnd_packets * config.mss,
            min_cwnd=config.min_cwnd_packets * config.mss,
            max_cwnd=(config.max_cwnd_packets * config.mss
                      if config.max_cwnd_packets is not None else None),
            ssthresh=initial_ssthresh,
            cubic_c=config.cubic_c,
            beta=config.scaled_beta(),
            reno_alpha=config.reno_alpha(),
            fast_convergence=config.fast_convergence,
            pacing_gain_slow_start=config.pacing_gain_slow_start,
            pacing_gain_ca=config.pacing_gain_ca,
        )
        self._hss = HybridSlowStart(config.hss_threshold_divisor)
        self._prr: Optional[ProportionalRateReduction] = None
        self.in_recovery = False
        self._in_rto = False
        self._in_tlp = False
        self._app_limited = False
        #: Phase when no overlay (recovery/RTO/TLP/app-limited) is active.
        self._started = False
        # Statistics for root-cause analysis.
        self.loss_events = 0
        self.rto_events = 0
        self.slow_start_exits_by_delay = 0
        #: The kernel's window in whole bytes, re-read after every kernel
        #: call that can move it (only this class calls the kernel); the
        #: connection reads it per ACK and per send-loop pass.
        self.cwnd = int(self.kernel.cwnd)
        self.trace.log_state(0.0, CCState.INIT.value)
        self.trace.log_cwnd(0.0, self.cwnd)

    # ------------------------------------------------------------------
    # window & pacing
    # ------------------------------------------------------------------
    @property
    def ssthresh(self) -> float:
        return self.kernel.ssthresh

    @property
    def in_slow_start(self) -> bool:
        return (self.kernel.cwnd < self.kernel.ssthresh
                and not self.in_recovery)

    def can_send_bytes(self, in_flight: int) -> int:
        if self.in_recovery and self._prr is not None:
            return self._prr.can_send(in_flight)
        budget = self.cwnd - in_flight
        return budget if budget > 0 else 0

    def pacing_rate(self) -> Optional[float]:
        # Inlined in_slow_start and clamp: called once per sent packet.
        kernel = self.kernel
        if kernel.cwnd < kernel.ssthresh and not self.in_recovery:
            gain = self.config.pacing_gain_slow_start
        else:
            gain = self.config.pacing_gain_ca
        if gain is None:
            return None
        srtt = self.rtt.smoothed_rtt
        if srtt < 1e-6:
            srtt = 1e-6
        return gain * kernel.cwnd / srtt

    # ------------------------------------------------------------------
    # receiver buffer (calibration / Chromium-52 bug)
    # ------------------------------------------------------------------
    def on_receiver_buffer(self, buffer_bytes: int) -> None:
        """Receiver advertised its buffer; raise ssthresh accordingly.

        With ``ssthresh_from_receiver_buffer`` off this is the no-op that
        constitutes the Chromium-52 bug (Sec. 4.1).
        """
        if not self.config.ssthresh_from_receiver_buffer:
            return
        if not math.isfinite(self.kernel.ssthresh):
            # First advertisement: anchor ssthresh at the receiver buffer.
            # Later congestion events lower it; never raise it back here.
            self.kernel.ssthresh = float(
                max(buffer_bytes, self.kernel.min_cwnd))

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------
    def on_connection_start(self, now: float) -> None:
        if not self._started:
            self._started = True
            self._set_state(now, self._phase_state())

    def on_packet_sent(self, now: float, size_bytes: int,
                       is_retransmission: bool) -> None:
        if self._prr is not None and self.in_recovery:
            self._prr.on_sent(size_bytes)
        if self._app_limited:
            self._app_limited = False
            self._refresh_state(now)

    def on_ack(self, now: float, acked_bytes: int, *, cwnd_limited: bool) -> None:
        if self._in_rto:
            self._in_rto = False
            self._refresh_state(now)
        if self._in_tlp:
            self._in_tlp = False
            self._refresh_state(now)
        if self.in_recovery:
            if self._prr is not None:
                self._prr.on_ack(acked_bytes)
            return
        if not cwnd_limited:
            # RFC 7661: do not grow a window the application is not using.
            return
        self.kernel.on_ack(acked_bytes, now, self.rtt.smoothed_rtt,
                           self.rtt.min_rtt())
        self.cwnd = int(self.kernel.cwnd)
        self.trace.log_cwnd(now, self.cwnd)
        self._refresh_state(now)

    def on_rtt_sample(self, now: float, rtt: float) -> None:
        if not (self.config.hybrid_slow_start and self.in_slow_start):
            return
        should_exit = self._hss.on_rtt_sample(
            now, rtt,
            baseline_min_rtt=self.rtt.min_rtt(),
            srtt=self.rtt.smoothed_rtt,
            cwnd_packets=self.kernel.cwnd / self.config.mss,
        )
        if should_exit:
            self.kernel.ssthresh = self.kernel.cwnd
            self.slow_start_exits_by_delay += 1
            self.trace.log(now, "hss_exit", int(self.kernel.cwnd))
            self._refresh_state(now)

    def on_congestion_event(self, now: float, in_flight: int) -> None:
        self.loss_events += 1
        kernel = self.kernel
        prev_cwnd = kernel.cwnd
        kernel.on_loss(now, float(in_flight))
        self.in_recovery = True
        if self.config.prr:
            # PRR rations sending during recovery instead of collapsing
            # the window immediately; restore the kernel's pre-loss cwnd.
            kernel.cwnd = prev_cwnd
            self._prr = ProportionalRateReduction(
                int(kernel.ssthresh), int(prev_cwnd), in_flight,
                self.config.mss
            )
        else:
            self._prr = None
        self.cwnd = int(kernel.cwnd)
        self._set_state(now, CCState.RECOVERY.value)
        self.trace.log_cwnd(now, self.cwnd)

    def on_recovery_exit(self, now: float) -> None:
        if not self.in_recovery:
            return
        self.in_recovery = False
        self._prr = None
        self.kernel.on_recovery_exit()
        self.cwnd = int(self.kernel.cwnd)
        self.trace.log_cwnd(now, self.cwnd)
        self._refresh_state(now)

    def on_retransmission_timeout(self, now: float) -> None:
        self.rto_events += 1
        self.kernel.on_timeout(now)
        self.in_recovery = False
        self._prr = None
        self._in_rto = True
        self._hss.restart()
        self.cwnd = int(self.kernel.cwnd)
        self._set_state(now, CCState.RETRANSMISSION_TIMEOUT.value)
        self.trace.log_cwnd(now, self.cwnd)

    def on_rto_resolved(self, now: float) -> None:
        if self._in_rto:
            self._in_rto = False
            self._refresh_state(now)

    def on_tail_loss_probe(self, now: float) -> None:
        self._in_tlp = True
        self._set_state(now, CCState.TAIL_LOSS_PROBE.value)

    def on_tlp_resolved(self, now: float) -> None:
        if self._in_tlp:
            self._in_tlp = False
            self._refresh_state(now)

    def on_application_limited(self, now: float) -> None:
        if self.in_recovery or self._in_rto or self._in_tlp:
            return
        if not self._app_limited:
            self._app_limited = True
            self._set_state(now, CCState.APPLICATION_LIMITED.value)

    # ------------------------------------------------------------------
    # state resolution
    # ------------------------------------------------------------------
    def _phase_state(self) -> str:
        kernel = self.kernel
        if kernel.max_cwnd is not None and kernel.cwnd >= kernel.max_cwnd:
            return CCState.CA_MAXED.value
        if kernel.cwnd < kernel.ssthresh:
            return CCState.SLOW_START.value
        return CCState.CONGESTION_AVOIDANCE.value

    def _refresh_state(self, now: float) -> None:
        if self._in_rto:
            self._set_state(now, CCState.RETRANSMISSION_TIMEOUT.value)
        elif self.in_recovery:
            self._set_state(now, CCState.RECOVERY.value)
        elif self._in_tlp:
            self._set_state(now, CCState.TAIL_LOSS_PROBE.value)
        elif self._app_limited:
            self._set_state(now, CCState.APPLICATION_LIMITED.value)
        else:
            self._set_state(now, self._phase_state())
