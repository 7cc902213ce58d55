"""Tests for the video catalog, player, and QoE metrics (Table 6)."""

import pytest

from repro.netem import Simulator, emulated
from repro.video import (
    QUALITIES,
    QUALITY_BITRATES,
    VideoPlayer,
    measure_video_qoe,
    one_hour_video,
    play_video_once,
)

from .conftest import make_quic_pair, make_tcp_pair


class TestCatalog:
    def test_quality_ladder_ordered(self):
        rates = [QUALITY_BITRATES[q] for q in QUALITIES]
        assert rates == sorted(rates)

    def test_one_hour_video_segments(self):
        video = one_hour_video("hd720", segment_duration=2.0)
        assert video.segment_count == 1800
        seg = video.segment(0)
        assert seg.size_bytes == int(2.5e6 * 2 / 8)

    def test_segment_bounds(self):
        video = one_hour_video("tiny")
        with pytest.raises(IndexError):
            video.segment(video.segment_count)

    def test_unknown_quality(self):
        with pytest.raises(KeyError):
            one_hour_video("hd9000")


def run_player(scenario, quality, seconds=30.0, protocol="quic", **player_kw):
    sim = Simulator()
    if protocol == "quic":
        _, client, _ = make_quic_pair(sim, scenario)
    else:
        _, client, _ = make_tcp_pair(sim, scenario)
    player = VideoPlayer(sim, client, one_hour_video(quality), **player_kw)
    player.start()
    sim.run(until=seconds)
    return player.finalize()


@pytest.fixture(scope="module")
def fast_link_medium():
    """One fast-link session for every test that only reads its metrics;
    5 s at 100 Mbps buffers eleven minutes of "medium" ahead."""
    return run_player(emulated(100.0), "medium", seconds=5.0)


class TestPlayer:
    def test_fast_link_low_quality_never_rebuffers(self, fast_link_medium):
        metrics = fast_link_medium
        assert metrics.rebuffer_count == 0
        assert metrics.time_to_start is not None
        assert metrics.time_to_start < 1.0
        assert metrics.buffer_play_ratio_pct < 10.0

    def test_starved_player_rebuffers(self):
        # 4K at 5 Mbps: the 35 Mbps ladder cannot be sustained.
        metrics = run_player(emulated(5.0), "hd2160", seconds=30.0)
        assert metrics.rebuffer_count > 0
        assert metrics.stalled_seconds > 0

    def test_played_plus_stalled_bounded_by_wallclock(self):
        metrics = run_player(emulated(5.0), "hd720", seconds=30.0)
        total = metrics.played_seconds + metrics.stalled_seconds
        assert total <= 30.0 + 1e-6

    def test_buffer_cap_bounds_loaded_fraction(self):
        """The preload cap limits 'fraction loaded' for tiny quality
        (Table 6's tiny row: ~33.8% for both protocols)."""
        metrics = run_player(emulated(100.0), "tiny", seconds=60.0,
                             max_buffer_ahead=1200.0)
        expected_cap = (1200.0 + 60.0) / 3600.0 * 100
        assert metrics.video_loaded_pct <= expected_cap + 2.0
        assert metrics.video_loaded_pct > 25.0

    def test_higher_quality_loads_smaller_fraction(self):
        low = run_player(emulated(50.0), "medium", seconds=5.0)
        high = run_player(emulated(50.0), "hd2160", seconds=5.0)
        assert high.video_loaded_pct < low.video_loaded_pct

    def test_time_to_start_grows_with_quality(self):
        # 6 s covers the slower start: one 4K segment is 3.5 s at 20 Mbps
        low = run_player(emulated(20.0), "tiny", seconds=6.0)
        high = run_player(emulated(20.0), "hd2160", seconds=6.0)
        assert high.time_to_start > low.time_to_start

    def test_tcp_player_works(self):
        # a 60 s preload cap: 30 s of playback never needs more
        metrics = run_player(emulated(100.0), "hd720", protocol="tcp",
                             max_buffer_ahead=60.0)
        assert metrics.played_seconds > 20.0

    def test_metrics_row_renders(self, fast_link_medium):
        text = fast_link_medium.row()
        assert "medium" in text and "rebuffers" in text


class TestQoEHarness:
    def test_play_video_once(self):
        metrics = play_video_once(emulated(100.0, loss_pct=1.0), "hd720",
                                  "quic", seed=1, test_seconds=20.0)
        assert metrics.quality == "hd720"
        assert metrics.protocol == "quic"

    def test_aggregate_over_runs(self):
        agg = measure_video_qoe("medium", "quic", runs=3,
                                scenario=emulated(50.0), test_seconds=5.0)
        assert len(agg.runs) == 3
        m, sd = agg.stat("video_loaded_pct")
        assert m > 0
        assert "medium" in agg.row()

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            play_video_once(emulated(10.0), "tiny", "sctp")
