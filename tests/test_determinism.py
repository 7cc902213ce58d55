"""Golden-seed determinism gate for the hot path.

The hot-path optimisation contract (see docs/PERFORMANCE.md) is that the
simulator may get *faster* but never *different*: for a fixed seed, every
outcome — PLT, handshake time, per-link counters — is byte-identical to
the unoptimised reference implementation.  The constants below were
captured on that reference tree; any change to the event loop, the netem
layer or the transports that alters behaviour — a reordered RNG draw, a
float computed in a different order — fails these tests loudly.  The
``events_processed`` / ``events_*`` lines pin the *cost model*: they move
only in a PR whose purpose is a different event model and that states
old -> new (last: one event per packet per uncongested hop, 5893 -> 4533,
2849 -> 2575, 47354 -> 42911, 4419 -> 3666, 5957 -> 5092, every outcome
line untouched); any other change must leave them exactly alone.

Two fixed cells cover the paths the optimisations touch:

* QUIC over a lossy, jittery link — loss draws, jitter draws, packet
  reordering, ACK-range bookkeeping, 0-RTT handshake.
* TCP on a MotoG over a lossy link — the PacketProcessor device model
  (per-packet cost jitter draws), droptail overflow, SACK recovery and a
  retransmitted (timer-driven) handshake.

Exact ``==`` on floats is deliberate: bit-identity is the guarantee.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.bench import bench_plt
from repro.core.executor import ProtocolSpec
from repro.core.runner import run_page_load
from repro.devices import MOTOG
from repro.http.objects import page
from repro.netem.profiles import Scenario, emulated
from repro.quic.config import quic_config


def _link_counts(stats):
    return (stats.enqueued_packets, stats.enqueued_bytes,
            stats.dropped_packets, stats.lost_packets,
            stats.delivered_packets, stats.delivered_bytes,
            stats.reordered_packets)


class TestGoldenQuic:
    """20 Mbps, +20 ms, 0.5 % loss, 2 ms jitter; 10 x 100 KB; seed 0."""

    def _run(self):
        scenario = emulated(20.0, extra_delay_ms=20.0, loss_pct=0.5,
                            jitter_ms=2.0)
        return run_page_load(scenario, page(10, 100 * 1024), "quic", seed=0)

    def test_exact_metrics(self):
        out = self._run()
        assert out.result.plt == 1.706718879842138
        assert out.result.handshake_ready_at == 0.0
        assert out.sim.events_processed == 4533

    def test_exact_link_counters(self):
        out = self._run()
        assert _link_counts(out.path.bottleneck_up.stats) == (
            595, 52094, 0, 1, 583, 51030, 103)
        assert _link_counts(out.path.bottleneck_down.stats) == (
            1045, 1088018, 0, 3, 1042, 1085058, 310)


class TestGoldenTcp:
    """10 Mbps, +10 ms, 1 % loss; 6 x 80 KB on a MotoG; seed 3."""

    def _run(self):
        scenario = emulated(10.0, extra_delay_ms=10.0, loss_pct=1.0)
        return run_page_load(scenario, page(6, 80 * 1024), "tcp", seed=3,
                             device=MOTOG)

    def test_exact_metrics(self):
        out = self._run()
        assert out.result.plt == 1.9992743918294384
        assert out.result.handshake_ready_at == 1.1676615640906947
        assert out.sim.events_processed == 2575

    def test_exact_link_counters(self):
        out = self._run()
        assert _link_counts(out.path.bottleneck_up.stats) == (
            272, 27314, 0, 4, 268, 26946, 0)
        assert _link_counts(out.path.bottleneck_down.stats) == (
            374, 517688, 84, 3, 371, 514792, 0)


class TestGoldenQuicBbr:
    """QUIC with BBR: 50 Mbps, 36 ms RTT, clean; 1 x 10 MB; seed 1.

    The classic stack's drive of the shared ``BBRKernel``: its bandwidth
    filter is read once per packet sent (pacing) and once per ACK.
    Captured on the last commit with the linear windowed-max filter.
    """

    def test_exact_metrics(self):
        out = run_page_load(
            Scenario(name="s", rate_mbps=50.0, rtt=0.036),
            page(1, 10 * 1024 * 1024),
            ProtocolSpec.quic(replace(quic_config(34), use_bbr=True)),
            seed=1)
        assert out.result.plt == 1.885478055352652
        assert out.sim.events_processed == 42911


class TestCanonicalBenchCell:
    """The BENCH_sim.json canonical cell is itself a golden pair.

    This ties the perf numbers to behaviour: if the benchmark's PLT or
    event count drifts, the committed BENCH_sim.json comparison is
    comparing different work and the perf gate is void.
    """

    def test_canonical_plt_pair(self):
        sample = bench_plt()
        assert sample["plt_quic"] == 0.7314250558227289
        assert sample["plt_tcp"] == 1.2991408814263505
        assert sample["events_quic"] == 3666
        assert sample["events_tcp"] == 5092

    def test_repeatability_in_process(self):
        first = bench_plt()
        second = bench_plt()
        assert first["plt_quic"] == second["plt_quic"]
        assert first["plt_tcp"] == second["plt_tcp"]
        assert first["events_quic"] == second["events_quic"]
        assert first["events_tcp"] == second["events_tcp"]


class TestManyflowDeterminism:
    """The thousand-flow fast path honours the same contract: a fixed
    (config, seed) pair yields identical arrival schedules and metrics
    whether runs execute serially, in a worker pool, or against a
    fabric store server."""

    def _requests(self):
        from repro.core.manyflow import ManyflowConfig, manyflow_requests

        config = ManyflowConfig(flows=30, duration=120.0)
        return manyflow_requests(config, seeds=(0, 1, 2, 3))

    def _cc_requests(self):
        # One request per pluggable kernel, so the executor / store /
        # fabric contracts below cover the whole CC axis.  A lossy link
        # is what separates the kernels: without drops all three ride
        # the same slow-start trajectory.
        from repro.core.manyflow import (ManyflowConfig, manyflow_requests,
                                         manyflow_scenario)
        from repro.transport.cc import KERNEL_NAMES

        scenario = manyflow_scenario(rate_mbps=20.0, loss_rate=0.01)
        requests = []
        for cc in KERNEL_NAMES:
            config = ManyflowConfig(flows=30, duration=90.0, cc=cc)
            requests.extend(manyflow_requests(config, scenario=scenario,
                                              seeds=(0, 1)))
        return requests

    def test_build_flows_is_pure(self):
        from repro.core.manyflow import ManyflowConfig, build_flows

        config = ManyflowConfig(flows=50)
        first = build_flows(config, 5)
        second = build_flows(config, 5)
        assert first == second
        arrivals, sizes, protos = first
        assert len(arrivals) == len(sizes) == len(protos) == 50

    def test_serial_matches_pool(self):
        from repro.core.executor import run_requests

        requests = self._requests()
        serial = run_requests(requests, jobs=1)
        pooled = run_requests(requests, jobs=2, force_pool=True)
        assert [r.metrics for r in serial] == [r.metrics for r in pooled]
        assert [r.plt for r in serial] == [r.plt for r in pooled]

    def test_fabric_store_matches_serial(self, tmp_path):
        from repro.core.executor import run_requests
        from repro.fabric import RemoteStore, StoreServer
        from repro.store import ShardStore

        requests = self._requests()
        serial = run_requests(requests, jobs=1)
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as srv:
            remote = run_requests(requests, store=RemoteStore(srv.url))
            # Warm-cache pass replays the same records from the server.
            cached = run_requests(requests, store=RemoteStore(srv.url))
        assert [r.metrics for r in remote] == [r.metrics for r in serial]
        assert all(r.cached for r in cached)
        assert [r.metrics for r in cached] == [r.metrics for r in serial]

    def test_cc_axis_serial_matches_pool(self):
        from repro.core.executor import run_requests

        requests = self._cc_requests()
        serial = run_requests(requests, jobs=1)
        pooled = run_requests(requests, jobs=2, force_pool=True)
        assert [r.metrics for r in serial] == [r.metrics for r in pooled]
        # Distinct kernels must actually be running distinct dynamics —
        # a silent fall-through to reno would pass the equality above.
        by_cc = {r.request.manyflow.cc: r.metrics for r in serial
                 if r.request.seed == 0}
        assert len({m["plt_p50"] for m in by_cc.values()}) == 3

    def test_cc_axis_fabric_store_round_trips(self, tmp_path):
        from repro.core.executor import run_requests
        from repro.fabric import RemoteStore, StoreServer
        from repro.store import ShardStore

        requests = self._cc_requests()
        serial = run_requests(requests, jobs=1)
        with StoreServer(ShardStore(tmp_path / "central"), port=0) as srv:
            remote = run_requests(requests, store=RemoteStore(srv.url))
            cached = run_requests(requests, store=RemoteStore(srv.url))
        assert [r.metrics for r in remote] == [r.metrics for r in serial]
        assert all(r.cached for r in cached)
        assert [r.request.manyflow.cc for r in cached] == \
            [r.request.manyflow.cc for r in serial]
