"""Tests for split-connection proxies (Sec. 5.5)."""

import pytest

from repro.core.runner import run_page_load
from repro.http import page, single_object_page
from repro.netem import Simulator, build_proxy_path, emulated
from repro.proxy import SplitConnectionProxy, install_proxy
from repro.http import PageLoader, page_request_handler


def proxied_load(protocol, web_page, scenario, seed=1):
    sim = Simulator()
    path = build_proxy_path(sim, scenario, seed=seed)
    proxy = SplitConnectionProxy(
        sim, path, protocol, page_request_handler(web_page), seed=seed,
    )
    loader = PageLoader(sim, proxy.client, web_page)
    loader.start()
    assert sim.run_until(lambda: loader.done, timeout=120.0)
    return loader.result, proxy


HIGH_DELAY = emulated(10.0, extra_delay_ms=100)


class TestForwarding:
    @pytest.mark.parametrize("protocol", ["quic", "tcp"])
    def test_page_completes_through_proxy(self, protocol):
        result, proxy = proxied_load(protocol, page(3, 50_000), HIGH_DELAY)
        assert result.complete
        assert proxy.forwarded_bytes >= 3 * 50_000

    @pytest.mark.parametrize("protocol", ["quic", "tcp"])
    def test_large_object_streams_through(self, protocol):
        """Cut-through forwarding: PLT must be far below 2x the direct
        time (store-and-forward would double it)."""
        size = 2_000_000
        direct = run_page_load(HIGH_DELAY, single_object_page(size), protocol,
                               seed=1).plt
        result, _ = proxied_load(protocol, single_object_page(size), HIGH_DELAY)
        assert result.plt < direct * 1.6

    def test_proxy_requires_proxy_path(self):
        sim = Simulator()
        from repro.netem import build_path

        path = build_path(sim, HIGH_DELAY, seed=1)
        with pytest.raises(ValueError):
            SplitConnectionProxy(sim, path, "tcp", lambda m: 100)

    def test_unknown_protocol_rejected(self):
        sim = Simulator()
        path = build_proxy_path(sim, HIGH_DELAY, seed=1)
        with pytest.raises(ValueError):
            SplitConnectionProxy(sim, path, "sctp", lambda m: 100)

    def test_bare_name_runs_the_spec_defaults(self):
        """A bare "quic" proxy runs ProtocolSpec's default config: the
        same PLT as the runner's proxied load of the same spec."""
        web_page = page(3, 20_000)
        runner_plt = run_page_load(HIGH_DELAY, web_page, "quic", seed=5,
                                   proxied=True).plt
        sim = Simulator()
        path = build_proxy_path(sim, HIGH_DELAY, seed=5)
        proxy = SplitConnectionProxy(sim, path, "quic",
                                     page_request_handler(web_page), seed=5)
        loader = PageLoader(sim, proxy.client, web_page)
        assert loader.run(120.0).plt == runner_plt


class TestPaperEffects:
    def test_tcp_proxy_helps_on_high_delay(self):
        """Split handshakes + per-leg recovery shrink TCP's PLT (Fig. 17)."""
        web_page = single_object_page(100_000)
        direct = run_page_load(HIGH_DELAY, web_page, "tcp", seed=1).plt
        result, _ = proxied_load("tcp", web_page, HIGH_DELAY)
        assert result.plt < direct

    def test_quic_proxy_hurts_small_objects(self):
        """The unoptimized QUIC proxy loses 0-RTT: small objects suffer
        (Fig. 18's blue cells)."""
        web_page = single_object_page(10_000)
        direct = run_page_load(HIGH_DELAY, web_page, "quic", seed=1).plt
        result, _ = proxied_load("quic", web_page, HIGH_DELAY)
        assert result.plt > direct

    def test_quic_proxy_legs_disable_zero_rtt(self):
        _, proxy = proxied_load("quic", single_object_page(10_000), HIGH_DELAY)
        assert proxy.client.config.zero_rtt is False
        assert proxy.right_client.config.zero_rtt is False

    def test_runner_proxied_flag(self):
        out = run_page_load(HIGH_DELAY, single_object_page(50_000), "tcp",
                            seed=2, proxied=True)
        assert out.result.complete
        assert len(out.proxy_connections) == 2


class TestInstallHelper:
    def test_install_proxy_returns_endpoints(self):
        sim = Simulator()
        path = build_proxy_path(sim, HIGH_DELAY, seed=3)
        client, origin, (left, right) = install_proxy(
            sim, path, "tcp", lambda m: m["size"],
        )
        assert client.node.name == "client"
        assert origin.node.name == "server"
        assert left.node.name == "proxy" and right.node.name == "proxy"
