"""Shared test helpers: tiny testbeds and transfer drivers."""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Optional, Tuple

import pytest

from repro.devices import DESKTOP, DeviceProfile
from repro.netem import Scenario, Simulator, build_path, emulated
from repro.quic import QuicConfig, open_quic_pair, quic_config
from repro.tcp import TcpConfig, open_tcp_pair, tcp_config
from repro.transport.util import RangeSet


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


class CountingRangeSet(RangeSet):
    """A ``RangeSet`` that counts its ``gaps``, ``add``, ``covers`` and
    ``containing`` calls by name, to pin that ACK processing does work in
    proportion to what is new."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        super().__init__()
        self.calls: Counter = Counter()

    def gaps(self, lo, hi):
        self.calls["gaps"] += 1
        return super().gaps(lo, hi)

    def add(self, lo, hi):
        self.calls["add"] += 1
        return super().add(lo, hi)

    def covers(self, lo, hi):
        self.calls["covers"] += 1
        return super().covers(lo, hi)

    def containing(self, value):
        self.calls["containing"] += 1
        return super().containing(value)


def make_quic_pair(
    sim: Simulator,
    scenario: Scenario,
    *,
    seed: int = 1,
    cfg: Optional[QuicConfig] = None,
    device: DeviceProfile = DESKTOP,
    handler=None,
    **pair_kwargs: Any,
):
    """Build a path + QUIC client/server pair serving sized requests."""
    path = build_path(sim, scenario, seed=seed)
    cfg = cfg if cfg is not None else quic_config(34)
    handler = handler if handler is not None else (lambda meta: meta["size"])
    client, server = open_quic_pair(
        sim, path.client, path.server, cfg, device=device,
        request_handler=handler, seed=seed, **pair_kwargs,
    )
    return path, client, server


def make_tcp_pair(
    sim: Simulator,
    scenario: Scenario,
    *,
    seed: int = 1,
    cfg: Optional[TcpConfig] = None,
    device: DeviceProfile = DESKTOP,
    handler=None,
    **pair_kwargs: Any,
):
    """Build a path + TCP client/server pair serving sized requests."""
    path = build_path(sim, scenario, seed=seed)
    cfg = cfg if cfg is not None else tcp_config()
    handler = handler if handler is not None else (lambda meta: meta["size"])
    client, server = open_tcp_pair(
        sim, path.client, path.server, cfg, device=device,
        request_handler=handler, seed=seed, **pair_kwargs,
    )
    return path, client, server


def quic_download(sim: Simulator, client, size: int, *, timeout: float = 120.0,
                  meta_extra: Optional[Dict[str, Any]] = None) -> float:
    """Connect, download one object over QUIC, return completion time."""
    done: Dict[int, float] = {}
    meta = {"size": size}
    if meta_extra:
        meta.update(meta_extra)
    client.connect()
    client.request(meta, lambda sid, m, now: done.update({sid: now}))
    finished = sim.run_until(lambda: len(done) == 1, timeout=timeout)
    assert finished, f"QUIC download of {size}B did not finish in {timeout}s"
    return next(iter(done.values()))


def tcp_download(sim: Simulator, client, size: int, *, timeout: float = 120.0,
                 meta_extra: Optional[Dict[str, Any]] = None) -> float:
    """Connect, download one object over TCP, return completion time."""
    done: Dict[int, float] = {}
    meta = {"size": size}
    if meta_extra:
        meta.update(meta_extra)
    client.connect(
        lambda now: client.request(meta, lambda mid, m, t: done.update({mid: t}))
    )
    finished = sim.run_until(lambda: len(done) == 1, timeout=timeout)
    assert finished, f"TCP download of {size}B did not finish in {timeout}s"
    return next(iter(done.values()))


FAST = emulated(100.0, name="fast-100Mbps")
MEDIUM = emulated(10.0, name="medium-10Mbps")
SLOW = emulated(5.0, name="slow-5Mbps")
LOSSY = emulated(100.0, loss_pct=1.0, name="lossy-1pct")
JITTERY = emulated(100.0, jitter_ms=10.0, name="jitter-10ms")
