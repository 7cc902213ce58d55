"""Behavioural tests for the QUIC connection."""

import pytest

from repro.devices import MOTOG
from repro.netem import emulated
from repro.quic import quic_config

from .conftest import FAST, JITTERY, LOSSY, MEDIUM, SLOW, make_quic_pair, quic_download


class TestBasicTransfer:
    def test_small_transfer_completes(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        elapsed = quic_download(sim, client, 100_000)
        assert 0.1 < elapsed < 1.0

    def test_transfer_time_scales_with_size(self, sim):
        _, client, _ = make_quic_pair(sim, MEDIUM)
        t_small = quic_download(sim, client, 50_000)
        sim2 = type(sim)()
        _, client2, _ = make_quic_pair(sim2, MEDIUM)
        t_large = quic_download(sim2, client2, 2_000_000)
        assert t_large > t_small * 3

    def test_throughput_near_link_rate(self, sim):
        _, client, _ = make_quic_pair(sim, MEDIUM)
        size = 5_000_000
        elapsed = quic_download(sim, client, size)
        assert size * 8 / elapsed / 1e6 > 7.5  # > 75% of the 10 Mbps cap

    def test_no_losses_on_big_clean_queue(self, sim):
        scn = emulated(10.0).with_(queue_bytes=10_000_000)
        _, client, server = make_quic_pair(sim, scn)
        quic_download(sim, client, 1_000_000)
        assert server.loss_detector.losses_declared == 0

    def test_delivery_log_monotone(self, sim):
        _, client, _ = make_quic_pair(sim, MEDIUM)
        quic_download(sim, client, 500_000)
        log = client.delivery_log
        assert log[-1][1] == 500_000
        assert all(b1 <= b2 for (_, b1), (_, b2) in zip(log, log[1:]))


class TestHandshake:
    def test_zero_rtt_request_in_first_flight(self, sim):
        """With 0-RTT the response arrives ~1 RTT + serialization later."""
        _, client, _ = make_quic_pair(sim, emulated(100.0))
        elapsed = quic_download(sim, client, 5_000)
        assert elapsed < 2.2 * 0.036 + 0.02

    def test_non_zero_rtt_costs_one_extra_round(self, sim):
        cfg = quic_config(34, zero_rtt=False)
        _, client, _ = make_quic_pair(sim, emulated(100.0), cfg=cfg)
        elapsed = quic_download(sim, client, 5_000)
        assert elapsed > 2 * 0.036

    def test_zero_rtt_faster_than_one_rtt(self):
        from repro.netem import Simulator

        times = {}
        for zero_rtt in (True, False):
            sim = Simulator()
            cfg = quic_config(34, zero_rtt=zero_rtt)
            _, client, _ = make_quic_pair(sim, emulated(100.0), cfg=cfg)
            times[zero_rtt] = quic_download(sim, client, 5_000)
        saved = times[False] - times[True]
        assert saved == pytest.approx(0.036, abs=0.015)

    def test_handshake_ready_time_recorded(self, sim):
        _, client, _ = make_quic_pair(sim, MEDIUM)
        client.connect()
        assert client.handshake_ready_time == sim.now


class TestMultiplexing:
    def test_concurrent_requests_share_connection(self, sim):
        _, client, _ = make_quic_pair(sim, MEDIUM)
        done = {}
        client.connect()
        for i in range(10):
            client.request({"size": 50_000, "i": i},
                           lambda s, m, t: done.update({m["i"]: t}))
        assert sim.run_until(lambda: len(done) == 10, timeout=30.0)

    def test_mspc_limits_concurrency(self, sim):
        cfg = quic_config(34).with_(max_streams_per_connection=2)
        _, client, _ = make_quic_pair(sim, MEDIUM, cfg=cfg)
        done = {}
        client.connect()
        for i in range(6):
            client.request({"size": 20_000, "i": i},
                           lambda s, m, t: done.update({m["i"]: t}))
        assert client._active_requests == 2
        assert len(client._request_queue) == 4
        assert sim.run_until(lambda: len(done) == 6, timeout=30.0)

    def test_mspc_one_serialises_requests(self):
        """MSPC=1 forces sequential fetches (paper: 'worsens performance')."""
        from repro.netem import Simulator

        times = {}
        for mspc in (1, 100):
            sim = Simulator()
            cfg = quic_config(34).with_(max_streams_per_connection=mspc)
            _, client, _ = make_quic_pair(sim, emulated(10.0), cfg=cfg)
            done = {}
            client.connect()
            for i in range(10):
                client.request({"size": 30_000, "i": i},
                               lambda s, m, t: done.update({m["i"]: t}))
            assert sim.run_until(lambda: len(done) == 10, timeout=60.0)
            times[mspc] = max(done.values())
        assert times[1] > times[100] * 1.5


class TestLossRecovery:
    def test_random_loss_recovered(self, sim):
        _, client, server = make_quic_pair(sim, LOSSY)
        quic_download(sim, client, 1_000_000)
        assert server.loss_detector.losses_declared > 0
        assert server.loss_detector.false_losses == 0

    def test_tail_loss_recovered_by_probe(self, sim):
        """Drop everything after a point: TLP/RTO must repair the tail."""
        scn = emulated(10.0)
        path, client, server = make_quic_pair(sim, scn)
        done = {}
        client.connect()
        client.request({"size": 200_000}, lambda s, m, t: done.update({1: t}))
        # Let most of the transfer happen, then blackhole briefly.
        sim.run(until=0.1)
        original_loss = path.bottleneck_down.loss_rate
        path.bottleneck_down.loss_rate = 0.9999
        sim.run(until=0.25)
        path.bottleneck_down.loss_rate = original_loss
        assert sim.run_until(lambda: 1 in done, timeout=30.0)
        assert server.stats.tlp_probes + server.stats.rto_fires > 0

    def test_reordering_triggers_false_losses(self, sim):
        _, client, server = make_quic_pair(sim, JITTERY)
        quic_download(sim, client, 2_000_000)
        assert server.loss_detector.false_losses > 0

    def test_higher_nack_threshold_reduces_false_losses(self):
        from repro.netem import Simulator

        false = {}
        for threshold in (3, 50):
            sim = Simulator()
            cfg = quic_config(34).with_(nack_threshold=threshold)
            _, client, server = make_quic_pair(sim, JITTERY, cfg=cfg)
            quic_download(sim, client, 2_000_000)
            false[threshold] = server.loss_detector.false_losses
        assert false[50] < false[3] / 2

    def test_adaptive_threshold_converges(self, sim):
        cfg = quic_config(34).with_(adaptive_nack_threshold=True)
        _, client, server = make_quic_pair(sim, JITTERY, cfg=cfg)
        quic_download(sim, client, 2_000_000)
        assert server.loss_detector.threshold > 3


class TestFlowControl:
    def test_slow_consumer_blocks_sender(self, sim):
        _, client, server = make_quic_pair(sim, emulated(50.0), device=MOTOG)
        quic_download(sim, client, 5_000_000, timeout=60.0)
        assert server.stats.flow_blocked_events > 0

    def test_window_updates_unblock(self, sim):
        """Transfer far larger than the initial windows still completes."""
        cfg = quic_config(34).with_(
            conn_flow_window=64_000, conn_flow_window_cap=256_000,
            stream_flow_window=32_000, stream_flow_window_cap=128_000)
        _, client, server = make_quic_pair(sim, MEDIUM, cfg=cfg)
        elapsed = quic_download(sim, client, 2_000_000, timeout=60.0)
        assert elapsed < 60.0

    def test_fast_consumer_never_blocked(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        quic_download(sim, client, 1_000_000)
        assert server.stats.flow_blocked_events == 0


class TestStats:
    def test_packet_accounting(self, sim):
        _, client, server = make_quic_pair(sim, MEDIUM)
        quic_download(sim, client, 500_000)
        assert server.stats.data_packets_sent >= 500_000 // 1350
        sim.run(until=sim.now + 1.0)  # drain the final ACKs
        assert server.bytes_in_flight == 0
        assert client.stats.packets_received > 0

    def test_trace_records_states(self, sim):
        from repro.core.instrumentation import Trace

        trace = Trace("server", enabled=True)
        _, client, server = make_quic_pair(sim, MEDIUM, server_trace=trace)
        quic_download(sim, client, 500_000)
        states = trace.state_sequence()
        assert states[0] == "Init"
        assert "SlowStart" in states
