"""Chaos tests: the system must stay correct under adversarial timing.

These complement the per-module suites with cross-cutting scenarios:
mid-transfer rate collapse, repeated blackholes, proxy chains under loss,
and many concurrent connections sharing nodes.
"""

import pytest

from repro.http import PageLoader, page, page_request_handler, single_object_page
from repro.netem import Simulator, build_path, build_proxy_path, emulated, mbps
from repro.proxy import SplitConnectionProxy
from repro.quic import open_quic_pair, quic_config
from repro.tcp import open_tcp_pair, tcp_config

from .conftest import make_quic_pair, make_tcp_pair, quic_download, tcp_download


class TestRateCollapse:
    @pytest.mark.parametrize("protocol", ["quic", "tcp"])
    def test_survives_100x_rate_drop(self, protocol):
        sim = Simulator()
        if protocol == "quic":
            path, client, _ = make_quic_pair(sim, emulated(100.0), seed=5)
        else:
            path, client, _ = make_tcp_pair(sim, emulated(100.0), seed=5)
        done = {}
        if protocol == "quic":
            client.connect()
            client.request({"size": 3_000_000},
                           lambda s, m, t: done.update({1: t}))
        else:
            client.connect(lambda now: client.request(
                {"size": 3_000_000}, lambda m, meta, t: done.update({1: t})))
        sim.run(until=0.1)
        path.bottleneck_down.set_rate(mbps(1.0))
        path.bottleneck_up.set_rate(mbps(1.0))
        assert sim.run_until(lambda: 1 in done, timeout=120.0)

    @pytest.mark.parametrize("protocol", ["quic", "tcp"])
    def test_survives_rate_restoration(self, protocol):
        sim = Simulator()
        if protocol == "quic":
            path, client, _ = make_quic_pair(sim, emulated(1.0), seed=5)
        else:
            path, client, _ = make_tcp_pair(sim, emulated(1.0), seed=5)
        done = {}
        if protocol == "quic":
            client.connect()
            client.request({"size": 3_000_000},
                           lambda s, m, t: done.update({1: t}))
        else:
            client.connect(lambda now: client.request(
                {"size": 3_000_000}, lambda m, meta, t: done.update({1: t})))
        sim.run(until=2.0)
        path.bottleneck_down.set_rate(mbps(100.0))
        path.bottleneck_up.set_rate(mbps(100.0))
        assert sim.run_until(lambda: 1 in done, timeout=120.0)
        # The restored rate must actually get used.
        assert done[1] < 8.0


class TestRepeatedBlackholes:
    def test_quic_survives_three_blackholes(self):
        sim = Simulator()
        path, client, server = make_quic_pair(sim, emulated(10.0), seed=6)
        done = {}
        client.connect()
        client.request({"size": 1_000_000}, lambda s, m, t: done.update({1: t}))
        for start in (0.2, 0.7, 1.2):
            sim.run(until=start)
            path.bottleneck_down.loss_rate = 0.999
            sim.run(until=start + 0.15)
            path.bottleneck_down.loss_rate = 0.0
        assert sim.run_until(lambda: 1 in done, timeout=120.0)

    def test_tcp_survives_three_blackholes(self):
        sim = Simulator()
        path, client, server = make_tcp_pair(sim, emulated(10.0), seed=6)
        done = {}
        client.connect(lambda now: client.request(
            {"size": 1_000_000}, lambda m, meta, t: done.update({1: t})))
        for start in (0.3, 0.9, 1.5):
            sim.run(until=start)
            path.bottleneck_down.loss_rate = 0.999
            sim.run(until=start + 0.15)
            path.bottleneck_down.loss_rate = 0.0
        assert sim.run_until(lambda: 1 in done, timeout=120.0)


class TestProxyUnderStress:
    @pytest.mark.parametrize("protocol", ["quic", "tcp"])
    def test_proxied_multiplexed_page_under_loss(self, protocol):
        sim = Simulator()
        scn = emulated(10.0, loss_pct=2.0, extra_delay_ms=50)
        path = build_proxy_path(sim, scn, seed=7)
        web_page = page(20, 30 * 1024)
        proxy = SplitConnectionProxy(
            sim, path, protocol, page_request_handler(web_page), seed=7,
        )
        loader = PageLoader(sim, proxy.client, web_page)
        loader.start()
        assert sim.run_until(lambda: loader.done, timeout=240.0)
        assert proxy.forwarded_bytes >= web_page.total_bytes


class TestManyConnections:
    def test_ten_quic_connections_share_one_path(self):
        sim = Simulator()
        path = build_path(sim, emulated(50.0), seed=8)
        done = {}
        for i in range(10):
            client, _server = open_quic_pair(
                sim, path.client, path.server, quic_config(34),
                request_handler=lambda m: m["size"], seed=100 + i,
                flow_id=f"c{i}",
            )
            client.connect()
            client.request({"size": 200_000, "i": i},
                           lambda s, m, t: done.update({m["i"]: t}))
        assert sim.run_until(lambda: len(done) == 10, timeout=120.0)

    def test_mixed_protocol_connections_coexist(self):
        sim = Simulator()
        path = build_path(sim, emulated(50.0), seed=9)
        done = {}
        qc, _ = open_quic_pair(sim, path.client, path.server, quic_config(34),
                               request_handler=lambda m: m["size"], seed=1)
        tc, _ = open_tcp_pair(sim, path.client, path.server, tcp_config(),
                              request_handler=lambda m: m["size"], seed=2)
        qc.connect()
        qc.request({"size": 400_000}, lambda s, m, t: done.update({"q": t}))
        tc.connect(lambda now: tc.request(
            {"size": 400_000}, lambda m, meta, t: done.update({"t": t})))
        assert sim.run_until(lambda: len(done) == 2, timeout=60.0)
