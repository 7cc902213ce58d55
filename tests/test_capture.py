"""Tests for packet capture and path characterisation."""

import pytest

from repro.netem import (
    CELLULAR_PROFILES,
    PacketCapture,
    Packet,
    Simulator,
    build_path,
    characterize_scenario,
    emulated,
)


def flood(sim, path, n=500, size=1400, interval=0.001):
    path.server.register_handler(lambda p: None)

    state = {"sent": 0}

    def tick():
        if state["sent"] >= n:
            return
        path.client.send(Packet("client", "server", size, flow_id="f"))
        state["sent"] += 1
        sim.post(interval, tick)

    tick()
    sim.run()


class TestPacketCapture:
    def test_records_deliveries(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        flood(sim, path, n=50)
        assert len(capture.records) == 50
        chars = capture.characterize()
        assert chars.delivered_packets == 50
        assert chars.loss_pct == 0.0
        assert chars.reordering_pct == 0.0

    def test_loss_measured(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0, loss_pct=10.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        flood(sim, path, n=2000)
        chars = capture.characterize()
        assert chars.loss_pct == pytest.approx(10.0, abs=2.5)

    def test_reordering_measured(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0, jitter_ms=10.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        flood(sim, path, n=500, interval=0.0005)
        chars = capture.characterize()
        assert chars.reordering_pct > 5.0
        assert chars.mean_reorder_depth >= 1.0

    def test_throughput_respects_cap(self):
        sim = Simulator()
        path = build_path(sim, emulated(10.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        flood(sim, path, n=3000, interval=0.0005)  # offered ~22 Mbps
        chars = capture.characterize()
        assert chars.throughput_mbps == pytest.approx(10.0, rel=0.1)
        assert chars.dropped_packets > 0

    def test_csv_export(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        flood(sim, path, n=5)
        text = capture.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("time,src,dst")
        assert len(lines) == 6

    def test_detach_restores_link(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        capture.detach()
        flood(sim, path, n=10)
        assert len(capture.records) == 0

    def test_max_records_bounds_memory(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0), seed=1)
        capture = PacketCapture(path.bottleneck_up, max_records=10)
        flood(sim, path, n=100)
        assert len(capture.records) == 10
        assert capture.characterize().delivered_packets == 100


class TestScenarioCharacterisation:
    """Close the paper's measure-then-emulate loop: the emulated cell
    profiles must exhibit (approximately) their Table 5 characteristics."""

    def test_emulated_loss_round_trips(self):
        chars = characterize_scenario(emulated(10.0, loss_pct=2.0),
                                      duration=30.0, seed=2)
        assert chars.loss_pct == pytest.approx(2.0, abs=0.8)

    def test_emulated_rate_round_trips(self):
        chars = characterize_scenario(emulated(5.0), duration=20.0, seed=1)
        assert chars.throughput_mbps == pytest.approx(5.0, rel=0.1)

    @pytest.mark.parametrize("name", ["sprint-lte", "verizon-lte"])
    def test_cellular_profiles_exhibit_their_spec(self, name):
        profile = CELLULAR_PROFILES[name]
        chars = characterize_scenario(profile.scenario(), duration=30.0,
                                      seed=3)
        assert chars.throughput_mbps == pytest.approx(
            profile.throughput_mbps, rel=0.15)
        assert chars.loss_pct == pytest.approx(profile.loss_pct, abs=0.25)

    def test_3g_reordering_exceeds_lte(self):
        g3 = characterize_scenario(
            CELLULAR_PROFILES["sprint-3g"].scenario(), duration=40.0, seed=4)
        lte = characterize_scenario(
            CELLULAR_PROFILES["sprint-lte"].scenario(), duration=40.0, seed=4)
        assert g3.reordering_pct > lte.reordering_pct


class TestCharacterizeEdgeCases:
    """Degenerate captures must yield well-defined characteristics —
    zeros, not ZeroDivisionError — so measurement tooling can run
    unconditionally (e.g. on a link a flow never used)."""

    def test_empty_capture(self):
        sim = Simulator()
        path = build_path(sim, emulated(10.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        sim.run(until=1.0)  # no traffic at all
        chars = capture.characterize()
        assert chars.delivered_packets == 0
        assert chars.delivered_bytes == 0
        assert chars.duration == 0.0
        assert chars.throughput_mbps == 0.0
        assert chars.loss_pct == 0.0
        assert chars.reordering_pct == 0.0
        assert chars.mean_reorder_depth == 0.0
        assert chars.describe()  # renders without dividing by zero

    def test_single_packet_flow(self):
        sim = Simulator()
        path = build_path(sim, emulated(10.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        flood(sim, path, n=1)
        chars = capture.characterize()
        assert chars.delivered_packets == 1
        # One delivery means zero observation window: throughput must
        # degrade to 0, not to a division by zero.
        assert chars.duration == 0.0
        assert chars.throughput_mbps == 0.0
        assert chars.loss_pct == 0.0
        assert chars.reordering_pct == 0.0
        assert chars.mean_reorder_depth == 0.0

    def test_all_dropped_flow(self):
        sim = Simulator()
        path = build_path(sim, emulated(10.0), seed=1)
        capture = PacketCapture(path.bottleneck_up)
        path.bottleneck_up.drop_next(50)  # deterministic total loss
        flood(sim, path, n=50)
        chars = capture.characterize()
        assert chars.delivered_packets == 0
        assert chars.lost_packets == 50
        assert chars.loss_pct == 100.0
        assert chars.throughput_mbps == 0.0
        assert chars.reordering_pct == 0.0
        assert chars.describe()
