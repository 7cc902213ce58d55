"""Round-trip-time estimation.

Both transports use the standard SRTT/RTTVAR estimator (RFC 6298), but they
*feed* it very differently — and that difference is one of the paper's key
explanations for QUIC's performance:

* QUIC retransmissions carry **new packet numbers**, so every ACK yields an
  unambiguous sample, and the peer reports its ACK delay so the sample can
  be corrected.  The paper credits this "elimination of ACK ambiguity" for
  QUIC's better bandwidth tracking (Fig. 11).
* TCP must apply Karn's rule (no samples from retransmitted segments) and
  samples only on (delayed) cumulative ACKs, producing fewer and noisier
  samples.

The estimator also keeps a windowed minimum RTT, which Hybrid Slow Start
uses for its delay-increase exit signal.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


class RttEstimator:
    """SRTT / RTTVAR / windowed-min RTT tracking (RFC 6298 + min filter)."""

    ALPHA = 1.0 / 8.0
    BETA = 1.0 / 4.0
    K = 4.0

    def __init__(self, initial_rtt: float = 0.1,
                 min_rtt_window: float = 10.0) -> None:
        if initial_rtt <= 0:
            raise ValueError("initial_rtt must be positive")
        self.initial_rtt = initial_rtt
        self.min_rtt_window = min_rtt_window
        #: SRTT, or ``initial_rtt`` before any sample.  Kept current by
        #: :meth:`on_sample`, its only writer; read once or more per ACK.
        self.smoothed_rtt = initial_rtt
        self.rttvar: float = initial_rtt / 2.0
        self.latest: Optional[float] = None
        self.samples = 0
        #: (time, rtt) samples kept only while they may be the window min.
        self._min_queue: Deque[Tuple[float, float]] = deque()

    # ------------------------------------------------------------------
    def on_sample(self, rtt: float, now: float, ack_delay: float = 0.0) -> None:
        """Feed one RTT sample taken at simulated time ``now``.

        ``ack_delay`` is the peer-reported delay between receiving the
        packet and sending the ACK; it is subtracted when doing so does not
        push the sample below the current minimum (QUIC's rule).
        """
        if rtt <= 0:
            return
        self.samples += 1
        raw = rtt
        # Maintain the windowed minimum on the *raw* sample.
        while self._min_queue and self._min_queue[-1][1] >= raw:
            self._min_queue.pop()
        self._min_queue.append((now, raw))
        while self._min_queue and now - self._min_queue[0][0] > self.min_rtt_window:
            self._min_queue.popleft()

        adjusted = rtt
        if ack_delay > 0 and rtt - ack_delay >= self.min_rtt():
            adjusted = rtt - ack_delay
        if self.latest is None:  # first sample
            self.smoothed_rtt = adjusted
            self.rttvar = adjusted / 2.0
        else:
            srtt = self.smoothed_rtt
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(srtt - adjusted)
            self.smoothed_rtt = (1 - self.ALPHA) * srtt + self.ALPHA * adjusted
        self.latest = adjusted

    # ------------------------------------------------------------------
    def min_rtt(self) -> float:
        """Minimum RTT observed within the sliding window.

        The deque is maintained monotonically non-decreasing in the RTT
        value, so the front entry is always the window minimum.
        """
        if not self._min_queue:
            return self.initial_rtt
        return self._min_queue[0][1]

    def retransmission_timeout(self, min_rto: float = 0.2,
                               max_rto: float = 60.0) -> float:
        """RFC 6298 RTO with the given floor/ceiling."""
        rto = self.smoothed_rtt + max(self.K * self.rttvar, 0.001)
        return min(max(rto, min_rto), max_rto)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RttEstimator srtt={self.smoothed_rtt * 1000:.2f}ms "
            f"var={self.rttvar * 1000:.2f}ms min={self.min_rtt() * 1000:.2f}ms>"
        )
