"""Head-to-head comparisons with significance (paper Sec. 3.3).

A :class:`Comparison` holds matched samples for two protocols (paired by
run round, as the paper runs TCP and QUIC back-to-back in each round) and
answers the three questions every heatmap cell needs: the percent
difference, its direction, and whether it is statistically significant
under Welch's t-test at p < 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .stats import ALPHA, TTestResult, mean, percent_difference, sample_std, welch_t_test


@dataclass
class Comparison:
    """QUIC-vs-TCP samples for one experimental cell.

    ``metric`` is "smaller is better" (PLT) by convention; positive
    :attr:`pct_diff` means QUIC outperformed TCP, matching the red cells
    of the paper's heatmaps.
    """

    label: str
    quic: List[float]
    tcp: List[float]
    metric: str = "plt"
    #: What the two sides are called; variant comparisons (e.g. 0-RTT
    #: on/off) override these so reports name the actual treatments.
    treatment_name: str = "QUIC"
    baseline_name: str = "TCP"

    def __post_init__(self) -> None:
        if not self.quic or not self.tcp:
            raise ValueError("both sample sets must be non-empty")

    @property
    def quic_mean(self) -> float:
        return mean(self.quic)

    @property
    def tcp_mean(self) -> float:
        return mean(self.tcp)

    @property
    def pct_diff(self) -> float:
        """Percent difference of QUIC over TCP; positive = QUIC faster."""
        return percent_difference(self.tcp, self.quic)

    @property
    def ttest(self) -> TTestResult:
        return welch_t_test(self.quic, self.tcp)

    def significant(self, alpha: float = ALPHA) -> bool:
        return self.ttest.significant(alpha)

    @property
    def winner(self) -> str:
        """"quic", "tcp", or "inconclusive" (the paper's white cells)."""
        if not self.significant():
            return "inconclusive"
        return "quic" if self.quic_mean < self.tcp_mean else "tcp"

    def cell_text(self) -> str:
        """Heatmap cell rendering: signed percent or a dot when white."""
        if not self.significant():
            return "   ·  "
        return f"{self.pct_diff:+5.0f}%"

    def describe(self) -> str:
        t = self.ttest
        return (
            f"{self.label}: {self.treatment_name} {self.quic_mean:.3f}s "
            f"(sd {sample_std(self.quic):.3f}) vs {self.baseline_name} "
            f"{self.tcp_mean:.3f}s "
            f"(sd {sample_std(self.tcp):.3f}) -> {self.pct_diff:+.1f}% "
            f"(p={t.p_value:.4f}, {self.winner})"
        )
