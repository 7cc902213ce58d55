"""The streaming player and its QoE logger (paper Sec. 5.3, Table 6).

Reimplements the paper's measurement tool: open the one-hour video at a
pinned quality, let it run for 60 seconds, and log QoE metrics — time to
start, fraction of the video loaded in the window, buffering-to-playing
ratio, and rebuffer counts.  ABR is disabled (the paper pins quality per
run), so the transport's sustained goodput is the only variable, exactly
the property Sec. 5.3 isolates.

Player model: segments are fetched in order with a small request
pipeline; playback starts once :attr:`startup_segments` are buffered;
an empty buffer stalls playback (a rebuffer event) until
:attr:`resume_segments` are available again; the forward buffer is
capped (YouTube-style preload limit), which is what bounds the
"fraction loaded" for the tiny quality in Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..netem.sim import Simulator
from .catalog import Video


@dataclass
class QoEMetrics:
    """Table 6's columns for one playback session."""

    quality: str
    protocol: str
    time_to_start: Optional[float]
    video_loaded_pct: float
    buffer_play_ratio_pct: float
    rebuffer_count: int
    rebuffers_per_played_sec: float
    played_seconds: float
    stalled_seconds: float

    def row(self) -> str:
        tts = f"{self.time_to_start:.2f}" if self.time_to_start is not None else "n/a"
        return (
            f"{self.quality:<8} {self.protocol:<5} start={tts}s "
            f"loaded={self.video_loaded_pct:5.1f}% "
            f"buffer/play={self.buffer_play_ratio_pct:6.1f}% "
            f"rebuffers={self.rebuffer_count} "
            f"({self.rebuffers_per_played_sec:.3f}/s)"
        )


class VideoPlayer:
    """Streams a :class:`Video` over a transport connection."""

    def __init__(
        self,
        sim: Simulator,
        connection: Any,
        video: Video,
        *,
        startup_segments: int = 1,
        resume_segments: int = 1,
        pipeline_depth: int = 1,
        max_buffer_ahead: float = 1200.0,
    ) -> None:
        self.sim = sim
        self.connection = connection
        self.video = video
        self.startup_segments = startup_segments
        self.resume_segments = resume_segments
        self.pipeline_depth = pipeline_depth
        self.max_buffer_ahead = max_buffer_ahead

        self._next_to_request = 0
        self._outstanding = 0
        self._downloaded_segments = 0
        self._buffered_seconds = 0.0
        self._playing = False
        self._started_at: Optional[float] = None
        self._play_resumed_at: Optional[float] = None
        self._played_seconds = 0.0
        self._stall_started_at: Optional[float] = None
        self._stalled_seconds = 0.0
        self._rebuffer_count = 0
        self._underrun_timer = sim.timer(self._on_underrun)
        self._start_time = 0.0
        self._finished = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Open the connection and begin fetching."""
        self._start_time = self.sim.now
        self.connection.connect(self._on_ready)
        if self.connection.handshake_ready_time is not None:
            self._fill_pipeline()

    def _on_ready(self, _now: float) -> None:
        self._fill_pipeline()

    # ------------------------------------------------------------------
    # download pipeline
    # ------------------------------------------------------------------
    def _fill_pipeline(self) -> None:
        while (
            self._outstanding < self.pipeline_depth
            and self._next_to_request < self.video.segment_count
            and self._buffered_seconds < self.max_buffer_ahead
        ):
            segment = self.video.segment(self._next_to_request)
            self._next_to_request += 1
            self._outstanding += 1
            meta = {"obj": segment.index, "size": segment.size_bytes,
                    "seg": segment.index}
            self.connection.request(meta, self._on_segment)

    def _on_segment(self, _stream_id: int, meta: Any, now: float) -> None:
        self._outstanding -= 1
        self._downloaded_segments += 1
        self._buffered_seconds += self.video.segment_duration
        if not self._playing:
            if self._buffered_seconds >= (
                self.startup_segments if self._started_at is None
                else self.resume_segments
            ) * self.video.segment_duration:
                self._resume_playback(now)
        else:
            self._reschedule_underrun(now)
        self._fill_pipeline()

    # ------------------------------------------------------------------
    # playback clock
    # ------------------------------------------------------------------
    def _resume_playback(self, now: float) -> None:
        self._playing = True
        if self._started_at is None:
            self._started_at = now
        if self._stall_started_at is not None:
            self._stalled_seconds += now - self._stall_started_at
            self._stall_started_at = None
        self._play_resumed_at = now
        self._reschedule_underrun(now)

    def _reschedule_underrun(self, now: float) -> None:
        self._underrun_timer.arm(max(self._current_buffer(now), 0.0))

    def _current_buffer(self, now: float) -> float:
        """Seconds of media buffered ahead of the playhead right now."""
        if not self._playing or self._play_resumed_at is None:
            return self._buffered_seconds
        consumed = now - self._play_resumed_at
        return self._buffered_seconds - consumed

    def _on_underrun(self) -> None:
        now = self.sim.now
        if not self._playing:
            return
        # Settle the playback accounting up to now.
        consumed = now - (self._play_resumed_at or now)
        self._played_seconds += consumed
        self._buffered_seconds = max(self._buffered_seconds - consumed, 0.0)
        self._play_resumed_at = None
        self._playing = False
        if self._next_to_request >= self.video.segment_count and self._outstanding == 0:
            self._finished = True
            return
        self._rebuffer_count += 1
        self._stall_started_at = now
        self._fill_pipeline()

    # ------------------------------------------------------------------
    def finalize(self) -> QoEMetrics:
        """Stop the session and compute Table 6's metrics."""
        now = self.sim.now
        self._underrun_timer.cancel()
        if self._playing and self._play_resumed_at is not None:
            consumed = min(now - self._play_resumed_at, self._buffered_seconds)
            self._played_seconds += consumed
            self._buffered_seconds -= consumed
            self._playing = False
        if self._stall_started_at is not None:
            self._stalled_seconds += now - self._stall_started_at
            self._stall_started_at = None
        played = self._played_seconds
        loaded_pct = (
            self._downloaded_segments * self.video.segment_duration
            / self.video.duration * 100.0
        )
        buffer_ratio = (self._stalled_seconds / played * 100.0) if played > 0 else 0.0
        time_to_start = (
            self._started_at - self._start_time
            if self._started_at is not None else None
        )
        return QoEMetrics(
            quality=self.video.quality,
            protocol=self.connection.protocol,
            time_to_start=time_to_start,
            video_loaded_pct=loaded_pct,
            buffer_play_ratio_pct=buffer_ratio,
            rebuffer_count=self._rebuffer_count,
            rebuffers_per_played_sec=(
                self._rebuffer_count / played if played > 0 else 0.0
            ),
            played_seconds=played,
            stalled_seconds=self._stalled_seconds,
        )
