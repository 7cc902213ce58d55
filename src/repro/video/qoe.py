"""Video QoE experiment driver (Table 6).

Runs the paper's exact protocol: open the one-hour title at a pinned
quality, stream for 60 seconds over QUIC or TCP in the emulated
environment (100 Mbps with 1% loss for the headline table), log QoE,
repeat over seeded rounds, and aggregate mean/std per metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.executor import ProtocolLike, ProtocolSpec
from ..core.stats import mean, sample_std
from ..devices import DESKTOP, DeviceProfile
from ..netem.profiles import Scenario, emulated
from ..netem.sim import Simulator
from ..netem.topology import build_path
from .catalog import one_hour_video
from .player import QoEMetrics, VideoPlayer

#: The headline Table 6 environment.
TABLE6_SCENARIO_KWARGS = dict(rate_mbps=100.0, loss_pct=1.0)


def play_video_once(
    scenario: Scenario,
    quality: str,
    protocol: ProtocolLike,
    *,
    seed: int = 0,
    test_seconds: float = 60.0,
    device: DeviceProfile = DESKTOP,
) -> QoEMetrics:
    """One 60-second streaming session; returns its QoE metrics.

    ``protocol`` is a :class:`~repro.core.executor.ProtocolSpec` (or a
    bare ``"quic"``/``"tcp"`` for the defaults).
    """
    spec = ProtocolSpec.of(protocol)
    sim = Simulator()
    path = build_path(sim, scenario, seed=seed)
    client, _server = spec.open_pair(
        sim, path.client, path.server, device=device,
        request_handler=lambda meta: meta["size"], seed=seed,
    )
    player = VideoPlayer(sim, client, one_hour_video(quality))
    player.start()
    sim.run(until=test_seconds)
    return player.finalize()


@dataclass
class QoEAggregate:
    """Mean (std) per metric over the measurement rounds — a Table 6 cell."""

    quality: str
    protocol: str
    runs: List[QoEMetrics]

    def _collect(self, attr: str) -> List[float]:
        values = []
        for run in self.runs:
            value = getattr(run, attr)
            values.append(0.0 if value is None else float(value))
        return values

    def stat(self, attr: str) -> Tuple[float, float]:
        values = self._collect(attr)
        return mean(values), sample_std(values)

    def row(self) -> str:
        tts = self.stat("time_to_start")
        loaded = self.stat("video_loaded_pct")
        ratio = self.stat("buffer_play_ratio_pct")
        rebuf = self.stat("rebuffer_count")
        per_sec = self.stat("rebuffers_per_played_sec")
        return (
            f"{self.quality:<8} {self.protocol:<5} "
            f"start {tts[0]:5.2f} ({tts[1]:4.2f})  "
            f"loaded% {loaded[0]:5.1f} ({loaded[1]:4.2f})  "
            f"buf/play% {ratio[0]:6.1f} ({ratio[1]:5.2f})  "
            f"rebufs {rebuf[0]:4.1f} ({rebuf[1]:3.1f})  "
            f"per-sec {per_sec[0]:5.3f} ({per_sec[1]:4.3f})"
        )


def measure_video_qoe(
    quality: str,
    protocol: ProtocolLike,
    runs: int = 10,
    *,
    scenario: Optional[Scenario] = None,
    seed_base: int = 0,
    **kwargs,
) -> QoEAggregate:
    """Table 6: repeated 60-second sessions, aggregated."""
    spec = ProtocolSpec.of(protocol)
    scenario = scenario if scenario is not None else emulated(
        TABLE6_SCENARIO_KWARGS["rate_mbps"],
        loss_pct=TABLE6_SCENARIO_KWARGS["loss_pct"],
    )
    sessions = [
        play_video_once(scenario, quality, spec, seed=seed_base + i, **kwargs)
        for i in range(runs)
    ]
    return QoEAggregate(quality, spec.name, sessions)
