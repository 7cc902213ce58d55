"""Tests for workloads, the page loader, and HAR-style timings."""

import pytest

from repro.http import (
    COUNT_GRID,
    KB,
    SIZE_GRID_BYTES,
    PageLoader,
    WebObject,
    WebPage,
    count_grid_pages,
    page,
    page_request_handler,
    single_object_page,
    size_grid_pages,
    sized_request_handler,
)
from repro.netem import Simulator, emulated

from .conftest import MEDIUM, make_quic_pair, make_tcp_pair


class TestWorkloads:
    def test_page_constructor(self):
        p = page(5, 10 * KB)
        assert p.object_count == 5
        assert p.total_bytes == 50 * KB
        assert p.name == "5x10KB"

    def test_single_object_page(self):
        p = single_object_page(200 * KB)
        assert p.object_count == 1
        assert p.objects[0].size_bytes == 200 * KB

    def test_size_grid_matches_table2(self):
        sizes = [p.objects[0].size_bytes for p in size_grid_pages()]
        assert sizes == [s * KB for s in (5, 10, 100, 200, 500, 1000, 10_000)]

    def test_count_grid_isolates_count(self):
        pages = count_grid_pages()
        assert [p.object_count for p in pages] == list(COUNT_GRID)
        assert len({p.objects[0].size_bytes for p in pages}) == 1

    def test_invalid_workloads_rejected(self):
        with pytest.raises(ValueError):
            page(0, 100)
        with pytest.raises(ValueError):
            WebObject(0, 0)


class TestServerHandlers:
    def test_page_handler_serves_by_id(self):
        p = page(3, 1000)
        handler = page_request_handler(p)
        assert handler({"obj": 1}) == 1000

    def test_page_handler_unknown_object(self):
        handler = page_request_handler(page(1, 1000))
        with pytest.raises(KeyError):
            handler({"obj": 9})

    def test_sized_handler_echoes(self):
        assert sized_request_handler()({"size": 123}) == 123


class TestPageLoader:
    def load(self, protocol, web_page, scenario=MEDIUM):
        sim = Simulator()
        handler = page_request_handler(web_page)
        if protocol == "quic":
            _, client, _ = make_quic_pair(sim, scenario, handler=handler)
        else:
            _, client, _ = make_tcp_pair(sim, scenario, handler=handler)
        loader = PageLoader(sim, client, web_page)
        loader.start()
        assert sim.run_until(lambda: loader.done, timeout=60.0)
        return loader.result

    def test_quic_page_load(self):
        result = self.load("quic", page(5, 20 * KB))
        assert result.complete
        assert result.plt > 0
        assert all(t.completed_at is not None for t in result.timings)

    def test_tcp_page_load(self):
        result = self.load("tcp", page(5, 20 * KB))
        assert result.complete
        # TCP PLT includes the 3-RTT handshake.
        assert result.plt > 3 * 0.036

    def test_plt_is_last_object_completion(self):
        result = self.load("quic", page(4, 50 * KB))
        assert result.plt == max(t.completed_at for t in result.timings)

    def test_har_timings_per_object(self):
        result = self.load("quic", page(3, 10 * KB))
        assert len(result.timings) == 3
        for timing in result.timings:
            assert timing.protocol == "quic"
            assert timing.elapsed is not None and timing.elapsed > 0

    def test_quic_requests_issued_at_time_zero(self):
        """0-RTT: requests leave immediately, before any round trip."""
        result = self.load("quic", page(2, 10 * KB))
        assert all(t.requested_at == result.started_at for t in result.timings)

    def test_tcp_requests_wait_for_handshake(self):
        result = self.load("tcp", page(2, 10 * KB))
        assert result.handshake_ready_at is not None
        assert all(t.requested_at >= result.handshake_ready_at
                   for t in result.timings)

    def test_plt_raises_until_finished(self):
        sim = Simulator()
        p = page(1, 10 * KB)
        _, client, _ = make_quic_pair(sim, MEDIUM,
                                      handler=page_request_handler(p))
        loader = PageLoader(sim, client, p)
        with pytest.raises(RuntimeError):
            _ = loader.result.plt

    def test_bigger_page_takes_longer(self):
        small = self.load("quic", page(1, 10 * KB))
        big = self.load("quic", page(1, 1000 * KB))
        assert big.plt > small.plt
