"""White-box tests for the video player's buffer/playback clock."""

import pytest

from repro.netem import Simulator, emulated
from repro.video import VideoPlayer, one_hour_video

from .conftest import make_quic_pair


def make_player(sim, scenario, quality="medium", **kw):
    _path, client, _server = make_quic_pair(sim, scenario)
    player = VideoPlayer(sim, client, one_hour_video(quality), **kw)
    return player


class TestStartupAndResume:
    def test_playback_starts_after_startup_segments(self):
        sim = Simulator()
        player = make_player(sim, emulated(20.0), startup_segments=3)
        player.start()
        sim.run(until=5.0)
        metrics = player.finalize()
        # Three 2-second segments buffered before start.
        assert metrics.time_to_start is not None
        assert metrics.time_to_start > 0

    def test_pipeline_depth_controls_outstanding(self):
        sim = Simulator()
        player = make_player(sim, emulated(1.0), pipeline_depth=2,
                             quality="hd720")
        player.start()
        sim.run(until=0.05)
        assert player._outstanding <= 2

    def test_resume_threshold_after_stall(self):
        sim = Simulator()
        # hd720 at 2 Mbps: cannot sustain 2.5 Mbps, stalls periodically.
        player = make_player(sim, emulated(2.0), quality="hd720",
                             resume_segments=2)
        player.start()
        sim.run(until=40.0)
        metrics = player.finalize()
        assert metrics.rebuffer_count >= 1
        assert metrics.stalled_seconds > 0


class TestAccountingIdentities:
    @pytest.mark.parametrize("rate", [2.0, 20.0])
    def test_time_budget_identity(self, rate):
        """played + stalled + time-to-start <= wall clock."""
        sim = Simulator()
        player = make_player(sim, emulated(rate), quality="hd720")
        player.start()
        horizon = 10.0
        sim.run(until=horizon)
        metrics = player.finalize()
        used = metrics.played_seconds + metrics.stalled_seconds
        if metrics.time_to_start is not None:
            used += metrics.time_to_start
        assert used <= horizon + 0.25

    def test_loaded_fraction_matches_segment_count(self):
        sim = Simulator()
        player = make_player(sim, emulated(20.0))
        player.start()
        sim.run(until=8.0)
        metrics = player.finalize()
        expected = (player._downloaded_segments
                    * player.video.segment_duration / 3600 * 100)
        assert metrics.video_loaded_pct == pytest.approx(expected)

    def test_finalize_idempotent_snapshot(self):
        sim = Simulator()
        player = make_player(sim, emulated(20.0))
        player.start()
        sim.run(until=10.0)
        first = player.finalize()
        second = player.finalize()
        assert second.played_seconds == pytest.approx(first.played_seconds)
        assert second.rebuffer_count == first.rebuffer_count

    def test_no_rebuffer_counted_at_video_end(self):
        """Running out of *video* is not a rebuffer event."""
        sim = Simulator()
        _path, client, _server = make_quic_pair(sim, emulated(50.0))
        from repro.video.catalog import Video

        tiny_clip = Video(quality="medium", duration=8.0,
                          segment_duration=2.0, bitrate=0.75e6)
        player = VideoPlayer(sim, client, tiny_clip)
        player.start()
        sim.run(until=30.0)
        metrics = player.finalize()
        assert metrics.rebuffer_count == 0
        assert metrics.played_seconds == pytest.approx(8.0, abs=0.5)
