"""Congestion-control interface and the state vocabulary of Table 3.

The paper's root-cause analysis revolves around *states*: its Table 3
lists the states of QUIC's Cubic sender, Fig. 3 shows the inferred state
machines, and Fig. 13 compares dwell times across devices.  Every
congestion controller in this package therefore exposes a ``state``
property drawn from :class:`CCState` (or :class:`BBRState` for BBR) and
logs transitions into a :class:`repro.core.instrumentation.Trace`.
"""

from __future__ import annotations

import abc
import enum
from typing import Optional

from ...core.instrumentation import Trace


class CCState(str, enum.Enum):
    """Congestion-control states of the Cubic sender (paper Table 3)."""

    INIT = "Init"
    SLOW_START = "SlowStart"
    CONGESTION_AVOIDANCE = "CongestionAvoidance"
    CA_MAXED = "CongestionAvoidanceMaxed"
    APPLICATION_LIMITED = "ApplicationLimited"
    RECOVERY = "Recovery"
    TAIL_LOSS_PROBE = "TailLossProbe"
    RETRANSMISSION_TIMEOUT = "RetransmissionTimeout"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class BBRState(str, enum.Enum):
    """States of the (experimental) BBR sender, for Fig. 3b."""

    STARTUP = "Startup"
    DRAIN = "Drain"
    PROBE_BW = "ProbeBW"
    PROBE_RTT = "ProbeRTT"
    RECOVERY = "Recovery"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CongestionController(abc.ABC):
    """Abstract congestion controller driven by a transport connection.

    The connection calls the ``on_*`` hooks; the controller answers two
    questions: *how much may be in flight* (:attr:`cwnd`,
    :meth:`can_send_bytes`) and *how fast to pace* (:meth:`pacing_rate`).
    """

    def __init__(self, trace: Optional[Trace] = None) -> None:
        self.trace = trace if trace is not None else Trace(enabled=False)
        self._state: str = CCState.INIT.value

    # -- state ----------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state name (a Table 3 / BBR state string)."""
        return self._state

    def _set_state(self, now: float, state: str) -> None:
        if state != self._state:
            self._state = state
            self.trace.log_state(now, state)

    # -- window ---------------------------------------------------------
    #: Congestion window in bytes: an attribute the controller keeps
    #: current (or a property), read per ACK and per send-loop pass.
    cwnd: int

    @abc.abstractmethod
    def can_send_bytes(self, in_flight: int) -> int:
        """How many further bytes may be committed to the network now."""

    @abc.abstractmethod
    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in bytes/second, or None for unpaced senders."""

    # -- event hooks ------------------------------------------------------
    @abc.abstractmethod
    def on_connection_start(self, now: float) -> None:
        """The handshake completed; data transfer is about to begin."""

    @abc.abstractmethod
    def on_packet_sent(self, now: float, size_bytes: int,
                       is_retransmission: bool) -> None:
        """A (re)transmission entered the network."""

    @abc.abstractmethod
    def on_ack(self, now: float, acked_bytes: int, *, cwnd_limited: bool) -> None:
        """Previously-unacked bytes were newly acknowledged."""

    @abc.abstractmethod
    def on_rtt_sample(self, now: float, rtt: float) -> None:
        """A fresh RTT sample arrived (Hybrid Slow Start hook)."""

    @abc.abstractmethod
    def on_congestion_event(self, now: float, in_flight: int) -> None:
        """Loss detected; begin a recovery episode (at most one per window)."""

    @abc.abstractmethod
    def on_recovery_exit(self, now: float) -> None:
        """All data outstanding at loss time has been repaired."""

    @abc.abstractmethod
    def on_retransmission_timeout(self, now: float) -> None:
        """The RTO fired: collapse the window and restart slow start."""

    @abc.abstractmethod
    def on_rto_resolved(self, now: float) -> None:
        """First ACK after an RTO arrived; leave the RTO state."""

    def on_tail_loss_probe(self, now: float) -> None:
        """A TLP fired (QUIC only; default no-op for controllers without TLP)."""

    def on_tlp_resolved(self, now: float) -> None:
        """An ACK arrived after a TLP; leave the TLP state."""

    @abc.abstractmethod
    def on_application_limited(self, now: float) -> None:
        """The sender has window available but nothing to send."""

    # -- recovery status ---------------------------------------------------
    #: True while a loss-recovery episode is active (an attribute the
    #: controller keeps current; read once per ACK).
    in_recovery: bool
