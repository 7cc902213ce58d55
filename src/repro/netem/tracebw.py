"""Trace-driven bandwidth emulation (mahimahi-style).

Das's thesis [20] — one of the prior studies the paper extends — replayed
web pages over mahimahi, which drives link capacity from a *packet
delivery trace*: a list of millisecond timestamps, each granting one
MTU-sized delivery opportunity.  This module brings the same capability
to the simulator, complementing :class:`~repro.netem.link.BandwidthSchedule`
(which redraws a token-bucket rate) with empirically-shaped capacity:

* :class:`BandwidthTrace` — the timestamp list plus conversions to/from
  per-interval rates; loops when the trace is shorter than the run.
* :func:`saw_tooth_trace`, :func:`lte_like_trace` — synthetic generators
  standing in for the cellular traces shipped with mahimahi (which are
  proprietary captures we cannot redistribute; the LTE generator matches
  their coarse statistics: mean rate, burstiness, outage gaps).
* :class:`TraceDrivenLink` driver — applies the trace to a
  :class:`~repro.netem.link.Link` by re-setting its rate each interval.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .link import Link
from .sim import Simulator

#: Bytes granted per delivery opportunity (mahimahi uses one 1500 B MTU).
MTU_BYTES = 1500


@dataclass
class BandwidthTrace:
    """A capacity trace: per-interval achievable rates in bits/second."""

    interval: float
    rates_bps: List[float]

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if not self.rates_bps:
            raise ValueError("trace must contain at least one interval")
        if any(rate < 0 for rate in self.rates_bps):
            raise ValueError("rates must be non-negative")

    @property
    def duration(self) -> float:
        return self.interval * len(self.rates_bps)

    def mean_rate_bps(self) -> float:
        return sum(self.rates_bps) / len(self.rates_bps)

    def rate_at(self, time: float) -> float:
        """Rate in effect at ``time`` (the trace loops)."""
        index = int(time / self.interval) % len(self.rates_bps)
        return self.rates_bps[index]

    @classmethod
    def from_delivery_timestamps(cls, timestamps_ms: Sequence[int],
                                 interval: float = 0.1) -> "BandwidthTrace":
        """Build from a mahimahi-format list of delivery timestamps (ms).

        Each timestamp grants one MTU; the per-interval rate is the MTU
        count in the interval divided by its length.
        """
        if not timestamps_ms:
            raise ValueError("empty delivery trace")
        horizon = max(timestamps_ms) / 1000.0
        buckets = max(int(math.ceil(horizon / interval)), 1)
        counts = [0] * buckets
        for ts in timestamps_ms:
            index = min(int(ts / 1000.0 / interval), buckets - 1)
            counts[index] += 1
        rates = [count * MTU_BYTES * 8 / interval for count in counts]
        return cls(interval, rates)

    def to_delivery_timestamps(self) -> List[int]:
        """Export back to mahimahi's format (millisecond grants)."""
        out: List[int] = []
        for i, rate in enumerate(self.rates_bps):
            grants = int(rate * self.interval / 8 / MTU_BYTES)
            start_ms = i * self.interval * 1000
            for g in range(grants):
                out.append(int(start_ms + g * (self.interval * 1000 / max(grants, 1))))
        return out


def saw_tooth_trace(low_mbps: float, high_mbps: float, period: float = 2.0,
                    duration: float = 60.0, interval: float = 0.1) -> BandwidthTrace:
    """Deterministic ramp between two rates — a worst case for trackers."""
    if low_mbps <= 0 or high_mbps < low_mbps:
        raise ValueError("need 0 < low <= high")
    rates = []
    steps = int(duration / interval)
    for i in range(steps):
        phase = (i * interval % period) / period
        rates.append((low_mbps + (high_mbps - low_mbps) * phase) * 1e6)
    return BandwidthTrace(interval, rates)


def lte_like_trace(mean_mbps: float = 8.0, duration: float = 60.0,
                   interval: float = 0.1, outage_prob: float = 0.01,
                   seed: int = 0) -> BandwidthTrace:
    """A synthetic LTE-ish trace: log-normal rate bursts + rare outages.

    Matches the coarse statistics of mahimahi's Verizon LTE capture:
    heavy-tailed instantaneous rates around the mean and occasional
    sub-second outages (handovers / scheduler gaps).
    """
    rng = random.Random(seed)
    sigma = 0.6
    mu = math.log(mean_mbps) - sigma * sigma / 2
    rates: List[float] = []
    steps = int(duration / interval)
    outage_left = 0
    for _ in range(steps):
        if outage_left > 0:
            rates.append(0.0)
            outage_left -= 1
            continue
        if rng.random() < outage_prob:
            outage_left = rng.randint(1, 5)
            rates.append(0.0)
            continue
        rates.append(rng.lognormvariate(mu, sigma) * 1e6)
    return BandwidthTrace(interval, rates)


class TraceDrivenLink:
    """Drives a link's rate from a :class:`BandwidthTrace`.

    Zero-rate intervals are modelled as a tiny epsilon rate (the link is
    stalled, packets queue) rather than ``None`` (which would mean
    *infinite* rate).
    """

    EPSILON_BPS = 1000.0

    def __init__(self, sim: Simulator, links: List[Link],
                 trace: BandwidthTrace) -> None:
        self.sim = sim
        self.links = links
        self.trace = trace
        self._step = 0
        self._stopped = False
        self.applied: List[float] = []

    def start(self) -> None:
        self._tick()

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        rate = self.trace.rates_bps[self._step % len(self.trace.rates_bps)]
        effective = max(rate, self.EPSILON_BPS)
        for link in self.links:
            link.set_rate(effective)
        self.applied.append(effective)
        self._step += 1
        self.sim.post(self.trace.interval, self._tick)
