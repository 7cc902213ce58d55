"""Tests for the flow throughput monitor (Fig. 4/11 data source)."""

import pytest

from repro.core.monitors import FlowThroughputMonitor
from repro.netem import Packet, Simulator, build_bottleneck, fairness_bottleneck


def setup_bottleneck():
    sim = Simulator()
    net, clients, servers, down = build_bottleneck(
        sim, fairness_bottleneck(), 2, seed=1)
    for c in clients:
        c.register_handler(lambda p: None)
    return sim, clients, servers, down


class TestFlowThroughputMonitor:
    def test_invalid_interval(self):
        sim, _c, _s, down = setup_bottleneck()
        with pytest.raises(ValueError):
            FlowThroughputMonitor(down, interval=0)

    def test_per_flow_accounting(self):
        sim, clients, servers, down = setup_bottleneck()
        monitor = FlowThroughputMonitor(down, interval=0.5)
        for i in range(20):
            servers[0].send(Packet("server0", "client0", 1000, flow_id="a"))
            servers[1].send(Packet("server1", "client1", 500, flow_id="b"))
        sim.run()
        assert monitor.flows() == ["a", "b"]
        assert monitor.total_bytes("a") == 20_000
        assert monitor.total_bytes("b") == 10_000

    def test_average_mbps_over_duration(self):
        sim, clients, servers, down = setup_bottleneck()
        monitor = FlowThroughputMonitor(down, interval=0.5)

        def send(i=0):
            if i >= 100:
                return
            servers[0].send(Packet("server0", "client0", 1250, flow_id="a"))
            sim.post(0.01, send, i + 1)

        send()
        sim.run()
        # 100 * 1250 B over 2 seconds = 0.5 Mbps.
        assert monitor.average_mbps("a", duration=2.0) == pytest.approx(0.5, rel=0.05)

    def test_series_buckets(self):
        sim, clients, servers, down = setup_bottleneck()
        monitor = FlowThroughputMonitor(down, interval=0.25)

        def send(i=0):
            if i >= 40:
                return
            servers[0].send(Packet("server0", "client0", 1000, flow_id="a"))
            sim.post(0.05, send, i + 1)

        send()
        sim.run()
        series = monitor.series_mbps("a")
        assert len(series) >= 6
        for t, mbps in series:
            assert mbps >= 0

    def test_unknown_flow(self):
        sim, _c, _s, down = setup_bottleneck()
        monitor = FlowThroughputMonitor(down)
        assert monitor.average_mbps("ghost") == 0.0
        assert monitor.series_mbps("ghost") == []
        assert monitor.total_bytes("ghost") == 0

    def test_missing_flow_id_bucketed_as_unknown(self):
        sim, clients, servers, down = setup_bottleneck()
        monitor = FlowThroughputMonitor(down)
        servers[0].send(Packet("server0", "client0", 1000))
        sim.run()
        assert monitor.flows() == ["unknown"]
