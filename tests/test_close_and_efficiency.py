"""Tests for graceful connection teardown and wire-efficiency reports."""

import pytest

from repro.core.rootcause import efficiency_report
from repro.netem import Simulator, emulated
from repro.quic import quic_config
from repro.tcp import tcp_config

from .conftest import make_quic_pair, make_tcp_pair, quic_download, tcp_download


class TestQuicClose:
    def test_close_notifies_peer(self, sim):
        _, client, server = make_quic_pair(sim, emulated(10.0))
        quic_download(sim, client, 50_000)
        client.close()
        sim.run(until=sim.now + 0.5)
        assert server.closed

    def test_peer_stops_timers_after_close(self, sim):
        """Closing mid-transfer must not leave the peer retransmitting
        into the void until RTO backoff exhausts."""
        _, client, server = make_quic_pair(sim, emulated(10.0))
        client.connect()
        client.request({"size": 2_000_000}, lambda *a: None)
        sim.run(until=0.2)
        client.close()
        sim.run(until=0.5)
        rto_before = server.stats.rto_fires
        sim.run(until=5.0)
        assert server.closed
        assert server.stats.rto_fires == rto_before

    def test_close_idempotent_and_silent_variant(self, sim):
        _, client, server = make_quic_pair(sim, emulated(10.0))
        client.connect()
        client.close(notify_peer=False)
        client.close()
        sim.run(until=1.0)
        assert client.closed
        assert not server.closed  # never told


class TestTcpClose:
    def test_rst_closes_peer(self, sim):
        _, client, server = make_tcp_pair(sim, emulated(10.0))
        tcp_download(sim, client, 50_000)
        client.close()
        sim.run(until=sim.now + 0.5)
        assert server.closed

    def test_mid_transfer_reset(self, sim):
        _, client, server = make_tcp_pair(sim, emulated(10.0))
        client.connect(lambda now: client.request({"size": 2_000_000},
                                                  lambda *a: None))
        sim.run(until=0.4)
        client.close()
        sim.run(until=1.0)
        assert server.closed


class TestEfficiencyReport:
    def test_clean_transfer_low_overhead(self, sim):
        scn = emulated(10.0).with_(queue_bytes=10_000_000)
        _, client, server = make_quic_pair(sim, scn)
        quic_download(sim, client, 1_000_000)
        report = efficiency_report(server, 1_000_000)
        assert report.protocol == "quic"
        assert report.overhead_fraction < 0.08
        assert "overhead" in report.describe()

    def test_fec_overhead_visible(self, sim):
        cfg = quic_config(34).with_(fec_enabled=True)
        scn = emulated(10.0).with_(queue_bytes=10_000_000)
        _, client, server = make_quic_pair(sim, scn, cfg=cfg)
        quic_download(sim, client, 1_000_000)
        report = efficiency_report(server, 1_000_000)
        assert report.overhead_fraction > 0.12  # ~1/6 FEC tax visible

    def test_tcp_report(self, sim):
        _, client, server = make_tcp_pair(sim, emulated(10.0))
        tcp_download(sim, client, 500_000)
        report = efficiency_report(server, 500_000)
        assert report.protocol == "tcp"
        assert 0.0 <= report.overhead_fraction < 0.25
