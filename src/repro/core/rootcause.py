"""Root-cause analysis from instrumented traces (paper Secs. 4.2, 5.2).

The paper's distinctive move is explaining *why* a protocol wins or loses
using the states it visited: mobile slowness ← ApplicationLimited dwell;
reordering collapse ← false-loss floods + Recovery dwell; many-small-
objects loss ← Hybrid Slow Start early exit.  This module turns traces
and connection counters into those diagnoses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .instrumentation import Trace


@dataclass
class DwellComparison:
    """Fig. 13: time-in-state fractions for two environments."""

    label_a: str
    label_b: str
    fractions_a: Dict[str, float]
    fractions_b: Dict[str, float]

    def states(self) -> List[str]:
        return sorted(set(self.fractions_a) | set(self.fractions_b))

    def delta(self, state: str) -> float:
        return self.fractions_b.get(state, 0.0) - self.fractions_a.get(state, 0.0)

    def dominant_shift(self) -> Tuple[str, float]:
        """The state whose dwell changed the most (the root cause candidate)."""
        best = max(self.states(), key=lambda s: abs(self.delta(s)))
        return best, self.delta(best)

    def render(self) -> str:
        lines = [f"{'state':<28}{self.label_a:>12}{self.label_b:>12}{'delta':>10}"]
        for state in self.states():
            fa = self.fractions_a.get(state, 0.0) * 100
            fb = self.fractions_b.get(state, 0.0) * 100
            lines.append(
                f"{state:<28}{fa:>11.1f}%{fb:>11.1f}%{fb - fa:>+9.1f}%"
            )
        return "\n".join(lines)


def compare_dwell(trace_a: Trace, trace_b: Trace,
                  label_a: str = "A", label_b: str = "B") -> DwellComparison:
    return DwellComparison(
        label_a, label_b, trace_a.dwell_fractions(), trace_b.dwell_fractions()
    )


@dataclass
class LossReport:
    """Loss-detection behaviour of one sender (Fig. 10's explanation)."""

    protocol: str
    losses_declared: int
    false_losses: int
    rto_fires: int
    tlp_fires: int
    final_threshold: Optional[int] = None

    @property
    def false_loss_rate(self) -> float:
        if self.losses_declared == 0:
            return 0.0
        return self.false_losses / self.losses_declared

    def describe(self) -> str:
        threshold = (
            f", final reordering threshold {self.final_threshold}"
            if self.final_threshold is not None else ""
        )
        return (
            f"{self.protocol}: {self.losses_declared} losses declared, "
            f"{self.false_losses} spurious ({self.false_loss_rate * 100:.0f}%), "
            f"{self.tlp_fires} TLPs, {self.rto_fires} RTOs{threshold}"
        )


#: Each stack's own loss counters, read from its sender connection:
#: (losses declared, spurious losses, final reordering threshold).
_LOSS_COUNTERS = {
    "quic": lambda c: (c.loss_detector.losses_declared,
                       c.loss_detector.false_losses,
                       c.loss_detector.threshold),
    "tcp": lambda c: (c.stats.retransmits, c.stats.spurious_retransmits,
                      c.dupthresh),
}


def loss_report(connection: Any) -> LossReport:
    """Build a loss report from either transport's sender connection."""
    declared, false_losses, threshold = (
        _LOSS_COUNTERS[connection.protocol](connection))
    return LossReport(
        protocol=connection.protocol,
        losses_declared=declared,
        false_losses=false_losses,
        rto_fires=connection.stats.rto_fires,
        tlp_fires=connection.trace.count("tlp"),
        final_threshold=threshold,
    )


@dataclass
class SlowStartReport:
    """Hybrid Slow Start behaviour (the many-small-objects root cause)."""

    exited_early: bool
    exit_time: Optional[float]
    exit_cwnd_bytes: Optional[int]

    def describe(self) -> str:
        if not self.exited_early:
            return "slow start ran to loss/ssthresh (no delay-based exit)"
        return (
            f"Hybrid Slow Start exited early at t={self.exit_time:.3f}s "
            f"with cwnd={self.exit_cwnd_bytes} bytes"
        )


@dataclass
class EfficiencyReport:
    """Wire efficiency of a sender: goodput vs everything else.

    Useful for quantifying retransmission waste (reordering pathologies)
    and fixed overheads (FEC's bandwidth tax).
    """

    protocol: str
    app_bytes: int
    wire_payload_bytes: int
    packets_sent: int

    @property
    def overhead_fraction(self) -> float:
        """Share of payload bytes that were not first-copy app data."""
        if self.wire_payload_bytes <= 0:
            return 0.0
        waste = max(self.wire_payload_bytes - self.app_bytes, 0)
        return waste / self.wire_payload_bytes

    def describe(self) -> str:
        return (
            f"{self.protocol}: {self.app_bytes} app bytes over "
            f"{self.wire_payload_bytes} payload bytes in "
            f"{self.packets_sent} packets "
            f"({self.overhead_fraction * 100:.1f}% overhead)"
        )


def efficiency_report(server: Any, app_bytes: int) -> EfficiencyReport:
    """Build a wire-efficiency report for either protocol's sender."""
    return EfficiencyReport(
        protocol=server.protocol,
        app_bytes=app_bytes,
        wire_payload_bytes=server.stats.bytes_sent,
        packets_sent=(server.stats.packets_sent if server.protocol == "quic"
                      else server.stats.segments_sent),
    )


def slow_start_report(connection: Any) -> SlowStartReport:
    cc = connection.cc
    hss = getattr(cc, "_hss", None)
    exits = getattr(cc, "slow_start_exits_by_delay", 0)
    if hss is None or exits == 0:
        return SlowStartReport(False, None, None)
    exit_cwnd = None
    for t, kind, detail in connection.trace.records:
        if kind == "hss_exit":
            exit_cwnd = detail
            break
    return SlowStartReport(True, hss.exit_time, exit_cwnd)
