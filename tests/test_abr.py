"""Tests for the ABR extension player."""

import pytest

from repro.netem import BandwidthSchedule, Simulator, build_path, emulated, mbps
from repro.video import AbrVideoPlayer
from repro.video.catalog import QUALITIES

from .conftest import make_quic_pair


def run_abr(scenario, seconds=40.0, variable=None, seed=1, **kw):
    sim = Simulator()
    path, client, _server = (lambda p: (p[0], p[1], p[2]))(
        make_quic_pair(sim, scenario, seed=seed))
    if variable:
        lo, hi = variable
        sched = BandwidthSchedule(sim, [path.bottleneck_down],
                                  mbps(lo), mbps(hi), period=2.0)
        sched.start()
    player = AbrVideoPlayer(sim, client, **kw)
    player.start()
    sim.run(until=seconds)
    return player, player.finalize()


@pytest.fixture(scope="module")
def fat_pipe():
    """One fat-pipe session for every test that only reads it; the
    ladder is climbed within the first five segments."""
    return run_abr(emulated(100.0), seconds=8.0)


class TestAbr:
    def test_upswitches_on_fat_pipe(self, fat_pipe):
        player, metrics = fat_pipe
        assert player.switches_up >= 2
        assert player.current_quality in ("hd720", "hd2160")
        assert metrics.rebuffer_count == 0

    def test_stays_low_on_thin_pipe(self):
        player, _metrics = run_abr(emulated(0.5), seconds=60.0)
        assert player.current_quality in ("tiny", "medium")
        assert player.switches_up <= 1

    def test_downswitches_when_bandwidth_collapses(self):
        sim = Simulator()
        path, client, _server = make_quic_pair(sim, emulated(50.0), seed=2)
        player = AbrVideoPlayer(sim, client, start_quality="hd720")
        player.start()
        sim.run(until=6.0)
        path.bottleneck_down.set_rate(mbps(0.4))
        path.bottleneck_up.set_rate(mbps(0.4))
        sim.run(until=60.0)
        assert player.switches_down >= 1
        assert player.current_quality in ("tiny", "medium")

    def test_switches_one_rung_at_a_time(self, fat_pipe):
        player, _ = fat_pipe
        levels = [QUALITIES.index(q) for _, q in player.quality_history]
        for a, b in zip(levels, levels[1:]):
            assert abs(a - b) <= 1

    def test_history_and_mean_level(self):
        player, _ = run_abr(emulated(20.0), seconds=6.0)
        assert len(player.quality_history) > 3
        assert 0.0 <= player.mean_level() <= len(QUALITIES) - 1

    def test_unknown_start_quality(self):
        sim = Simulator()
        _path, client, _server = make_quic_pair(sim, emulated(10.0))
        with pytest.raises(KeyError):
            AbrVideoPlayer(sim, client, start_quality="8k")
