"""Adaptive bitrate streaming (extension beyond the paper).

The paper pins quality per run because it studies the *transport*; real
YouTube adapts.  This module adds a rate-based ABR controller on top of
:class:`~repro.video.player.VideoPlayer` so the interaction between
transport behaviour and quality adaptation can be studied: a transport
with steadier goodput (the paper's QUIC-under-fluctuation claim) should
sustain higher qualities with fewer downward switches.

The controller is classic throughput-rule ABR: pick the highest quality
whose bitrate fits within ``safety_factor`` x the harmonic-mean
throughput of the last few segment downloads; never switch more than one
rung at a time (YouTube-style smoothing).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..netem.sim import Simulator
from .catalog import QUALITIES, QUALITY_BITRATES, Video, one_hour_video
from .player import QoEMetrics, VideoPlayer


class AbrVideoPlayer(VideoPlayer):
    """A player that re-selects quality per segment from throughput."""

    def __init__(self, sim: Simulator, connection: Any, *,
                 start_quality: str = "medium",
                 safety_factor: float = 0.8, window: int = 3,
                 segment_duration: float = 2.0, **player_kwargs: Any) -> None:
        if start_quality not in QUALITIES:
            raise KeyError(f"unknown quality {start_quality!r}")
        self.ladder: List[Video] = [
            one_hour_video(q, segment_duration) for q in QUALITIES
        ]
        self._level = QUALITIES.index(start_quality)
        super().__init__(sim, connection, self.ladder[self._level],
                         **player_kwargs)
        self.safety_factor = safety_factor
        self.window = window
        self._samples_mbps: List[float] = []
        self._request_started_at: Optional[float] = None
        #: (segment_index, quality) history for QoE analysis.
        self.quality_history: List[tuple] = []
        self.switches_up = 0
        self.switches_down = 0

    # -- quality selection ------------------------------------------------
    def _estimate_mbps(self) -> Optional[float]:
        if not self._samples_mbps:
            return None
        recent = self._samples_mbps[-self.window:]
        return len(recent) / sum(1.0 / s for s in recent)  # harmonic mean

    def _choose_level(self) -> int:
        estimate = self._estimate_mbps()
        if estimate is None:
            return self._level
        budget = estimate * self.safety_factor * 1e6
        best = 0
        for idx, quality in enumerate(QUALITIES):
            if QUALITY_BITRATES[quality] <= budget:
                best = idx
        # Smooth: at most one rung per decision.
        if best > self._level:
            return self._level + 1
        if best < self._level:
            return self._level - 1
        return self._level

    # -- hooks into the base player -----------------------------------------
    def _fill_pipeline(self) -> None:
        # Re-point self.video at the currently selected rung before the
        # base class forms the next request.
        new_level = self._choose_level()
        if new_level != self._level:
            if new_level > self._level:
                self.switches_up += 1
            else:
                self.switches_down += 1
            self._level = new_level
            self.video = self.ladder[new_level]
        if (self._outstanding == 0
                and self._next_to_request < self.video.segment_count):
            self._request_started_at = self.sim.now
        super()._fill_pipeline()

    def _on_segment(self, stream_id: int, meta: Any, now: float) -> None:
        if self._request_started_at is not None:
            elapsed = max(now - self._request_started_at, 1e-6)
            mbps = meta["size"] * 8 / elapsed / 1e6
            self._samples_mbps.append(mbps)
            self._request_started_at = None
        self.quality_history.append(
            (meta.get("seg"), QUALITIES[self._level]))
        super()._on_segment(stream_id, meta, now)

    # -- reporting ------------------------------------------------------------
    def finalize(self) -> QoEMetrics:
        metrics = super().finalize()
        metrics.quality = self.current_quality
        return metrics

    @property
    def current_quality(self) -> str:
        return QUALITIES[self._level]

    def mean_level(self) -> float:
        """Average ladder rung over the downloaded segments."""
        if not self.quality_history:
            return float(self._level)
        return sum(QUALITIES.index(q) for _, q in self.quality_history) \
            / len(self.quality_history)
