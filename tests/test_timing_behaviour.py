"""Timing-level behavioural tests: pacing on the wire, delayed ACKs,
TLP/RTO scheduling — the clock-sensitive mechanics."""

import pytest

from repro.netem import Packet, Simulator, build_path, emulated
from repro.quic import open_quic_pair, quic_config
from repro.tcp import open_tcp_pair, tcp_config

from .conftest import make_quic_pair, make_tcp_pair


def arrival_times(link):
    times = []
    link.on_deliver = lambda now, p: times.append(now)
    return times


class TestPacingOnTheWire:
    def test_paced_quic_spreads_initial_window(self):
        """After the 10-packet burst allowance, departures are spaced."""
        sim = Simulator()
        scn = emulated(100.0).with_(queue_bytes=10_000_000,
                                    rtt_run_variation=0.0)
        path, client, server = make_quic_pair(sim, scn)
        times = arrival_times(path.bottleneck_down)
        client.connect()
        client.request({"size": 500_000}, lambda *a: None)
        sim.run(until=0.05)  # first flight only
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) > 10
        spaced = [g for g in gaps[10:] if g > 1e-9]
        assert spaced, "expected paced (non-zero) departure gaps"

    def test_unpaced_tcp_bursts_back_to_back(self):
        """TCP's initial window leaves as a line-rate burst."""
        sim = Simulator()
        scn = emulated(100.0).with_(queue_bytes=10_000_000,
                                    rtt_run_variation=0.0)
        path, client, server = make_tcp_pair(sim, scn)
        times = arrival_times(path.bottleneck_down)
        client.connect(lambda now: client.request({"size": 500_000},
                                                  lambda *a: None))
        sim.run(until=0.2)
        gaps = [b - a for a, b in zip(times, times[1:])]
        serialization = (1350 + 12 + 40) * 8 / 100e6
        line_rate = [g for g in gaps if g <= serialization * 1.01]
        assert len(line_rate) >= len(gaps) * 0.5


class TestDelayedAckTimer:
    def test_tcp_lone_segment_acked_after_timeout(self):
        """A single odd segment waits ~40 ms for the delayed-ACK timer."""
        sim = Simulator()
        scn = emulated(10.0).with_(rtt_run_variation=0.0)
        path, client, server = make_tcp_pair(sim, scn)
        done = {}
        client.connect(lambda now: client.request(
            {"size": 600}, lambda m, meta, t: done.update({1: t})))
        sim.run_until(lambda: 1 in done, timeout=5.0)
        t_done = done[1]
        # Wait for the final ACK of the lone response segment.
        sim.run(until=t_done + 0.2)
        assert server._snd_una == server._snd_nxt

    def test_quic_ack_timer_quarter_of_tcp(self):
        """QUIC's 25 ms delayed-ACK bound vs TCP's 40 ms (config check +
        observable single-packet behaviour)."""
        assert quic_config(34).ack_delay_timer == pytest.approx(0.025)
        assert tcp_config().delayed_ack_timeout == pytest.approx(0.040)


class TestRetransmissionTimers:
    def test_quic_tlp_fires_around_two_srtt(self):
        sim = Simulator()
        scn = emulated(10.0).with_(queue_bytes=10_000_000,
                                   rtt_run_variation=0.0)
        path, client, server = make_quic_pair(
            sim, scn, cfg=quic_config(34, macw_packets=20))
        done = {}
        client.connect()
        client.request({"size": 100_000}, lambda s, m, t: done.update({1: t}))

        def arm():
            stream = server.send_streams.get(1)
            if stream is not None and stream.bytes_sent >= 100_000 - 3 * 1350:
                path.bottleneck_down.drop_next(3)
                return
            sim.post(0.002, arm)

        sim.post(0.002, arm)
        assert sim.run_until(lambda: 1 in done, timeout=30.0)
        assert server.stats.tlp_probes >= 1
        # TLP repaired the tail well before a 200 ms RTO would have.
        # (clean PLT ~0.17 s; with the drop it stays under RTO territory)
        assert done[1] < 0.45

    def test_tcp_min_rto_enforced(self):
        sim = Simulator()
        scn = emulated(10.0).with_(queue_bytes=10_000_000,
                                   rtt_run_variation=0.0)
        path, client, server = make_tcp_pair(sim, scn)
        done = {}
        client.connect(lambda now: client.request(
            {"size": 100_000}, lambda m, meta, t: done.update({1: t})))
        sim.run(until=0.15)
        before = sim.now
        # Kill the next 10 wire packets: the tail of the flight dies but
        # later retransmissions survive.
        path.bottleneck_down.drop_next(10)
        assert sim.run_until(lambda: 1 in done, timeout=30.0)
        if server.stats.rto_fires:
            # Recovery had to wait at least (roughly) the 200 ms RTO floor.
            assert done[1] - before >= 0.15
