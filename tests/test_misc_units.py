"""Assorted cheap unit tests: packet validation, config guards,
handshake fragmentation, and small rendering helpers."""

import pytest

from repro.netem import DEFAULT_MSS, HEADER_BYTES, Packet, Simulator, emulated
from repro.quic import KNOWN_VERSIONS, QuicConfig, quic_config
from repro.tcp import tcp_config

from .conftest import make_quic_pair, make_tcp_pair


class TestPacket:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Packet("a", "b", 0)

    def test_ids_unique_and_increasing(self):
        a = Packet("a", "b", 1)
        b = Packet("a", "b", 1)
        assert b.packet_id > a.packet_id

    def test_constants(self):
        assert DEFAULT_MSS == 1350
        assert HEADER_BYTES == 40


class TestQuicConfigGuards:
    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            quic_config(99)

    def test_known_versions_span_study_window(self):
        assert KNOWN_VERSIONS[0] == 25 and KNOWN_VERSIONS[-1] == 37

    def test_label_mentions_macw(self):
        assert "430" in quic_config(34).label()

    def test_with_copies(self):
        cfg = quic_config(34)
        other = cfg.with_(nack_threshold=10)
        assert other.nack_threshold == 10
        assert cfg.nack_threshold == 3

    def test_uncalibrated_has_bug_and_small_macw(self):
        cfg = quic_config(34, calibrated=False)
        assert cfg.cc.max_cwnd_packets == 107
        assert cfg.cc.ssthresh_from_receiver_buffer is False

    def test_version_37_defaults(self):
        cfg = quic_config(37)
        assert cfg.cc.max_cwnd_packets == 2000
        assert cfg.cc.num_emulated_connections == 1


class TestTcpConfigGuards:
    def test_with_copies(self):
        cfg = tcp_config()
        other = cfg.with_(dupthresh=10)
        assert other.dupthresh == 10 and cfg.dupthresh == 3

    def test_defaults_match_docstring(self):
        cfg = tcp_config()
        assert cfg.tls_rtts == 2
        assert cfg.tlp_enabled is False
        assert cfg.cc.max_cwnd_packets is None
        assert cfg.cc.pacing_gain_ca is None


class TestHandshakeFragmentation:
    def test_quic_rej_fragmented_below_mss(self, sim):
        cfg = quic_config(34, zero_rtt=False)
        _, client, server = make_quic_pair(sim, emulated(10.0), cfg=cfg)
        client.connect()
        sim.run(until=0.2)
        # The 2.2 KB REJ crossed as MSS-sized fragments, and the flow
        # completed (client became ready).
        assert client.handshake_ready_time is not None

    def test_tcp_server_hello_fragmented(self, sim):
        _, client, server = make_tcp_pair(sim, emulated(10.0))
        ready = {}
        client.connect(lambda now: ready.update({"t": now}))
        sim.run(until=0.5)
        assert "t" in ready
        # ServerHello (3.6 KB) left as 3 packets: total ctrl sends > 6.
        assert server.stats.segments_sent >= 5


class TestScenarioRendering:
    def test_describe_is_stable(self):
        scn = emulated(10.0, loss_pct=1.0, extra_delay_ms=50, jitter_ms=5)
        text = scn.describe()
        for token in ("10Mbps", "86ms", "loss=1%", "jitter=5ms"):
            assert token in text

    def test_effective_queue_none_for_unlimited(self):
        assert emulated(None).effective_queue_bytes() is None


class TestLoadPageHelper:
    def test_load_page_convenience(self):
        from repro.http import load_page, page, page_request_handler
        from repro.netem import Simulator, build_path

        sim = Simulator()
        web_page = page(2, 10 * 1024)
        path = build_path(sim, emulated(10.0), seed=1)
        from repro.quic import open_quic_pair

        client, _ = open_quic_pair(sim, path.client, path.server,
                                   quic_config(34),
                                   request_handler=page_request_handler(web_page))
        result = load_page(sim, client, web_page)
        assert result.complete
        assert result.protocol == "quic"


class TestQoEAggregateEdges:
    def test_none_time_to_start_counts_as_zero(self):
        from repro.video.player import QoEMetrics
        from repro.video.qoe import QoEAggregate

        runs = [QoEMetrics("tiny", "quic", None, 0.0, 0.0, 0, 0.0, 0.0, 0.0),
                QoEMetrics("tiny", "quic", 2.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0)]
        agg = QoEAggregate("tiny", "quic", runs)
        mean_tts, _sd = agg.stat("time_to_start")
        assert mean_tts == pytest.approx(1.0)


class TestCcExports:
    def test_cc_package_surface(self):
        from repro.transport.cc import (
            BBR,
            BBRState,
            CCState,
            CongestionController,
            CubicCC,
            CubicConfig,
            HybridSlowStart,
            Pacer,
            ProportionalRateReduction,
        )

        assert issubclass(CubicCC, CongestionController)
        assert issubclass(BBR, CongestionController)
        assert len(list(CCState)) == 8  # the Table 3 vocabulary
        assert len(list(BBRState)) == 5
