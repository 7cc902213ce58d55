"""Tests for device CPU models and the packet processor."""

import random

import pytest

from repro.devices import (
    DESKTOP,
    DEVICE_PROFILES,
    MOTOG,
    NEXUS6,
    DeviceProfile,
    PacketProcessor,
)
from repro.netem.sim import Simulator


class TestProfiles:
    def test_registry(self):
        assert set(DEVICE_PROFILES) == {"desktop", "nexus6", "motog"}

    def test_desktop_is_free(self):
        assert DESKTOP.quic_packet_cost == 0.0
        assert DESKTOP.quic_consume_cost == 0.0

    def test_phone_ordering(self):
        """Older phone = slower: MotoG > Nexus6 > desktop on every cost."""
        for attr in ("quic_packet_cost", "quic_consume_cost",
                     "tcp_packet_cost", "crypto_setup_cost"):
            assert getattr(MOTOG, attr) >= getattr(NEXUS6, attr) > \
                getattr(DESKTOP, attr) - 1e-12

    def test_quic_costs_exceed_tcp(self):
        """Userspace QUIC consume path costs more than kernel TCP."""
        for profile in (NEXUS6, MOTOG):
            assert profile.quic_consume_cost > profile.tcp_packet_cost

    def test_packet_cost_lookup(self):
        assert MOTOG.packet_cost("quic") == MOTOG.quic_packet_cost
        assert MOTOG.packet_cost("tcp") == MOTOG.tcp_packet_cost
        with pytest.raises(ValueError):
            MOTOG.packet_cost("sctp")


class TestPacketProcessor:
    def test_zero_cost_is_inline(self):
        sim = Simulator()
        out = []
        proc = PacketProcessor(sim, 0.0, out.append)
        proc.submit("a")
        assert out == ["a"]  # no event needed
        sim.run()
        assert sim.events_processed == 0

    def test_items_processed_in_fifo_order(self):
        sim = Simulator()
        out = []
        proc = PacketProcessor(sim, 0.001, out.append, cost_jitter=0.0)
        for item in ("a", "b", "c"):
            proc.submit(item)
        sim.run()
        assert out == ["a", "b", "c"]

    def test_per_item_cost_serialises(self):
        sim = Simulator()
        stamps = []
        proc = PacketProcessor(sim, 0.01, lambda i: stamps.append(sim.now),
                               cost_jitter=0.0)
        for _ in range(3):
            proc.submit(object())
        sim.run()
        assert stamps == pytest.approx([0.01, 0.02, 0.03])

    def test_backlog_reflects_queue(self):
        sim = Simulator()
        proc = PacketProcessor(sim, 0.01, lambda i: None, cost_jitter=0.0)
        for _ in range(5):
            proc.submit(object())
        assert proc.backlog == 5
        sim.run()
        assert proc.backlog == 0
        assert proc.processed == 5

    def test_jitter_varies_cost_within_bounds(self):
        sim = Simulator()
        stamps = []
        proc = PacketProcessor(sim, 0.01, lambda i: stamps.append(sim.now),
                               rng=random.Random(1), cost_jitter=0.2)
        for _ in range(50):
            proc.submit(object())
        sim.run()
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(0.008 - 1e9 * 0 <= g <= 0.012 + 1e-9 for g in gaps)
        assert len(set(round(g, 6) for g in gaps)) > 1

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            PacketProcessor(Simulator(), -1e-6, lambda i: None)

    def test_submissions_during_processing_are_queued(self):
        sim = Simulator()
        out = []
        proc = PacketProcessor(sim, 0.01, out.append, cost_jitter=0.0)
        proc.submit(1)
        sim.post(0.005, proc.submit, 2)
        sim.run()
        assert out == [1, 2]
