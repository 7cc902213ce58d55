"""Tests for XOR FEC (the removed GQUIC feature, kept for ablation)."""

import pytest

from repro.netem import Simulator, emulated
from repro.quic import quic_config
from repro.quic.fec import FecDecoder, FecEncoder, FecFrame, FecPacketPayload
from repro.quic.frames import StreamFrame
from repro.transport.util import RangeSet

from .conftest import make_quic_pair, quic_download


def frames_for(pkt_num):
    return [StreamFrame(1, pkt_num * 1000, 1000)]


class TestEncoder:
    def test_group_completes_after_n_packets(self):
        enc = FecEncoder(group_size=3)
        assert enc.on_packet_sent(1, frames_for(1), 1000) is None
        assert enc.on_packet_sent(2, frames_for(2), 1200) is None
        payload = enc.on_packet_sent(3, frames_for(3), 1100)
        assert payload is not None
        assert set(payload.members) == {1, 2, 3}
        # FEC packet sized to the largest member (XOR width).
        assert payload.size_bytes == 1200 + 16

    def test_ack_only_packets_not_protected(self):
        enc = FecEncoder(group_size=2)
        assert enc.on_packet_sent(1, [], 50) is None
        assert enc.on_packet_sent(2, frames_for(2), 1000) is None
        payload = enc.on_packet_sent(3, frames_for(3), 1000)
        assert payload is not None
        assert set(payload.members) == {2, 3}

    def test_groups_are_disjoint(self):
        enc = FecEncoder(group_size=2)
        enc.on_packet_sent(1, frames_for(1), 1000)
        first = enc.on_packet_sent(2, frames_for(2), 1000)
        enc.on_packet_sent(3, frames_for(3), 1000)
        second = enc.on_packet_sent(4, frames_for(4), 1000)
        assert set(first.members) == {1, 2}
        assert set(second.members) == {3, 4}
        assert second.group_id == first.group_id + 1

    def test_flush_emits_partial_group(self):
        enc = FecEncoder(group_size=5)
        enc.on_packet_sent(1, frames_for(1), 1000)
        enc.on_packet_sent(2, frames_for(2), 1000)
        payload = enc.flush()
        assert payload is not None and set(payload.members) == {1, 2}

    def test_flush_needs_two_members(self):
        enc = FecEncoder(group_size=5)
        enc.on_packet_sent(1, frames_for(1), 1000)
        assert enc.flush() is None

    def test_min_group_size(self):
        with pytest.raises(ValueError):
            FecEncoder(group_size=1)


class TestDecoder:
    def payload(self):
        return FecPacketPayload(1, {n: frames_for(n) for n in (1, 2, 3)}, 1016)

    def test_revives_single_missing(self):
        dec = FecDecoder()
        received = RangeSet([(1, 2), (3, 4)])  # 2 missing
        revived = dec.on_fec_packet(self.payload(), received)
        assert revived is not None
        num, frames = revived
        assert num == 2
        assert frames[0].offset == 2000
        assert dec.revived_packets == 1

    def test_useless_when_all_received(self):
        dec = FecDecoder()
        received = RangeSet([(1, 4)])
        assert dec.on_fec_packet(self.payload(), received) is None
        assert dec.unhelpful_fec_packets == 1

    def test_useless_when_two_missing(self):
        dec = FecDecoder()
        received = RangeSet([(1, 2)])
        assert dec.on_fec_packet(self.payload(), received) is None


class TestEndToEnd:
    def test_fec_disabled_by_default(self, sim):
        _, client, server = make_quic_pair(sim, emulated(10.0))
        assert server.fec_encoder is None
        assert client.fec_decoder is None

    def test_fec_transfer_completes_and_revives(self, sim):
        cfg = quic_config(34).with_(fec_enabled=True)
        _, client, server = make_quic_pair(
            sim, emulated(20.0, loss_pct=2.0), cfg=cfg, seed=3)
        quic_download(sim, client, 2_000_000, timeout=120.0)
        assert server.fec_encoder.fec_packets_built > 0
        assert client.fec_decoder.revived_packets > 0

    def test_fec_packets_are_congestion_charged(self, sim):
        """FEC rides inside the congestion window (GQUIC behaviour), so
        the data-packet count grows by roughly the group overhead."""
        cfg = quic_config(34).with_(fec_enabled=True, fec_group_size=5)
        _, client, server = make_quic_pair(sim, emulated(20.0), cfg=cfg, seed=3)
        quic_download(sim, client, 2_000_000, timeout=120.0)
        data_pkts = 2_000_000 // 1338 + 1
        fec_pkts = server.fec_encoder.fec_packets_built
        # ~1 per 5 protected packets (retransmissions are protected too,
        # so the count sits somewhat above the pure-data estimate).
        assert data_pkts / 5 <= fec_pkts <= data_pkts / 3
        # They are tracked like data: nothing left dangling in flight.
        sim.run(until=sim.now + 2.0)
        assert server.bytes_in_flight == 0

    def test_fec_bandwidth_tax_slows_clean_transfers(self):
        """The reason GQUIC removed FEC: pure overhead without loss."""
        times = {}
        for fec in (False, True):
            sim = Simulator()
            cfg = quic_config(34).with_(fec_enabled=fec)
            _, client, _ = make_quic_pair(sim, emulated(20.0), cfg=cfg, seed=3)
            times[fec] = quic_download(sim, client, 2_000_000, timeout=120.0)
        assert times[True] > times[False]
