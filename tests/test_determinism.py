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

The fixed cells cover the paths the optimisations touch:

* QUIC over a lossy, jittery link — loss draws, jitter draws, packet
  reordering, ACK-range bookkeeping, 0-RTT handshake.
* TCP on a MotoG over a lossy link — the PacketProcessor device model
  (per-packet cost jitter draws), droptail overflow, SACK recovery and a
  retransmitted (timer-driven) handshake.
* QUIC with 100 concurrent streams under 10 ms jitter — the stream
  round-robin and heavy reordering; pins the final clock and both
  endpoints' full stats too.
* TCP through the split proxy — router and proxy forwarding over eight
  links, every one of them pinned.
* TCP 1 MB under 10 ms jitter — SACK recovery under reordering, DSACK
  and the adaptive duplicate threshold.
* QUIC 1 MB over a 1 % lossy link — many-block ACK frames, NACK loss
  detection and tail loss probes.
* QUIC through the split proxy — the proxy's QUIC legs (no 0-RTT) and
  its streaming-response relay, every link pinned.
* Video playback over QUIC and over TCP — the player's pipeline on
  either stack, every QoE field pinned.
* One QUIC and one TCP bulk flow sharing a bottleneck — the fairness
  driver's per-side connection set-up and kick-off order.
* Fig. 11's variable-bandwidth bulk transfer over QUIC and over TCP — the
  ``BandwidthSchedule`` redraw chain and the cwnd trace.
* A transfer over a trace-driven LTE link — ``TraceDrivenLink``'s rate
  steps and TCP's RTO through the trace's outages.
* ``characterize_scenario``'s probe stream — its self-rescheduling
  sender and the capture's reorder accounting.
* The thousand-flow manyflow cell — the second engine's batched link
  delivery, flow table and Reno kernel at scale.
* The ``repro validate`` oracle grid — every CC kernel's steady-state
  throughput next to its closed-form model.

Exact ``==`` on floats is deliberate: bit-identity is the guarantee.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, replace

import pytest

from repro.core.bench import bench_plt
from repro.core.executor import ProtocolSpec
from repro.core.runner import run_bulk_transfer, run_fairness, run_page_load
from repro.devices import MOTOG
from repro.http.objects import page
from repro.netem import (Simulator, TraceDrivenLink, build_path,
                         characterize_scenario, lte_like_trace)
from repro.netem.profiles import Scenario, emulated
from repro.quic.config import quic_config
from repro.tcp import open_tcp_pair, tcp_config
from repro.video import play_video_once


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


def _every_link(out):
    """Every link's full counters, keyed by ``(src, dst)``."""
    return {key: (_link_counts(link.stats), link.stats.dropped_bytes)
            for key, link in out.path.network.links.items()}


class TestGoldenQuicManyStreams:
    """10 Mbps, +50 ms, 10 ms jitter; 100 x 10 KB; seed 2.

    A hundred concurrent streams under heavy reordering: the stream
    round-robin's frame packing order and the ACK-range bookkeeping.
    """

    def test_exact_outcome(self):
        out = run_page_load(
            emulated(10.0, extra_delay_ms=50.0, jitter_ms=10.0),
            page(100, 10 * 1024), "quic", seed=2)
        assert out.result.plt == 5.1590368708344085
        assert out.sim.events_processed == 5055
        assert out.sim.now == 5.1590368708344085
        assert vars(out.client.stats) == {
            "packets_sent": 693, "bytes_sent": 61160, "data_packets_sent": 29,
            "retransmitted_ranges": 3, "acks_sent": 664,
            "packets_received": 1073, "duplicate_bytes": 50219,
            "tlp_probes": 0, "rto_fires": 0, "flow_blocked_events": 0,
            "app_limited_events": 8}
        assert vars(out.server.stats) == {
            "packets_sent": 1073, "bytes_sent": 1090135,
            "data_packets_sent": 1054, "retransmitted_ranges": 45,
            "acks_sent": 19, "packets_received": 688, "duplicate_bytes": 3870,
            "tlp_probes": 0, "rto_fires": 0, "flow_blocked_events": 20,
            "app_limited_events": 25}
        assert _every_link(out) == {
            ("client", "router"): ((693, 88880, 0, 0, 692, 88808, 0), 0),
            ("router", "client"): ((1073, 1133055, 0, 0, 1073, 1133055, 0), 0),
            ("router", "server"): ((692, 88808, 0, 0, 688, 88512, 216), 0),
            ("server", "router"): ((1073, 1133055, 0, 0, 1073, 1133055, 451),
                                   0),
        }


class TestGoldenTcpProxied:
    """20 Mbps, +40 ms, 1 % loss; 5 x 50 KB through a split proxy; seed 4.

    Eight links, two routers and a proxy: router forwarding and the
    proxy's relaying on both legs.
    """

    def test_exact_outcome(self):
        out = run_page_load(
            emulated(20.0, extra_delay_ms=40.0, loss_pct=1.0),
            page(5, 50 * 1024), "tcp", seed=4, proxied=True)
        assert out.result.plt == 0.4552179211522618
        assert out.sim.events_processed == 2454
        assert out.sim.now == 0.4552179211522618
        assert vars(out.client.stats) == {
            "segments_sent": 5, "bytes_sent": 1500, "acks_sent": 112,
            "retransmits": 0, "spurious_retransmits": 0, "rto_fires": 0,
            "dsacks_sent": 0, "segments_received": 190,
            "duplicate_segments": 0}
        assert vars(out.server.stats) == {
            "segments_sent": 205, "bytes_sent": 257350, "acks_sent": 3,
            "retransmits": 1, "spurious_retransmits": 0, "rto_fires": 0,
            "dsacks_sent": 0, "segments_received": 5,
            "duplicate_segments": 0}
        assert _every_link(out) == {
            ("client", "router-a"): ((117, 12754, 0, 0, 117, 12754, 0), 0),
            ("proxy", "router-a"): ((197, 271574, 0, 1, 196, 270172, 0), 0),
            ("proxy", "router-b"): ((152, 15854, 0, 1, 151, 15762, 0), 0),
            ("router-a", "client"): ((196, 270172, 0, 0, 196, 270172, 0), 0),
            ("router-a", "proxy"): ((117, 12754, 0, 1, 116, 12662, 0), 0),
            ("router-b", "proxy"): ((208, 272226, 0, 1, 207, 270824, 0), 0),
            ("router-b", "server"): ((151, 15762, 0, 0, 151, 15762, 0), 0),
            ("server", "router-b"): ((208, 272226, 0, 0, 208, 272226, 0), 0),
        }


class TestGoldenQuicProxied:
    """The proxied cell of :class:`TestGoldenTcpProxied`, over QUIC.

    The "unoptimized" QUIC proxy: both legs without 0-RTT (Sec. 5.5),
    response bytes relayed through streaming responses.
    """

    def test_exact_outcome(self):
        out = run_page_load(
            emulated(20.0, extra_delay_ms=40.0, loss_pct=1.0),
            page(5, 50 * 1024), "quic", seed=4, proxied=True)
        assert out.result.plt == 0.2731410125330144
        assert out.sim.events_processed == 2049
        assert out.sim.now == 0.2731410125330144
        assert vars(out.client.stats) == {
            "packets_sent": 101, "bytes_sent": 5644, "data_packets_sent": 3,
            "retransmitted_ranges": 0, "acks_sent": 98,
            "packets_received": 199, "duplicate_bytes": 0,
            "tlp_probes": 0, "rto_fires": 0, "flow_blocked_events": 0,
            "app_limited_events": 1}
        assert vars(out.server.stats) == {
            "packets_sent": 202, "bytes_sent": 263134,
            "data_packets_sent": 199, "retransmitted_ranges": 1,
            "acks_sent": 3, "packets_received": 103, "duplicate_bytes": 0,
            "tlp_probes": 0, "rto_fires": 0, "flow_blocked_events": 0,
            "app_limited_events": 55}
        assert _every_link(out) == {
            ("client", "router-a"): ((101, 9684, 0, 0, 100, 9612, 0), 0),
            ("proxy", "router-a"): ((200, 271098, 0, 1, 199, 269708, 0), 0),
            ("proxy", "router-b"): ((105, 11584, 0, 1, 103, 11424, 0), 0),
            ("router-a", "client"): ((199, 269708, 0, 0, 199, 269708, 0), 0),
            ("router-a", "proxy"): ((100, 9612, 0, 1, 99, 9540, 0), 0),
            ("router-b", "proxy"): ((202, 271214, 0, 1, 201, 269824, 0), 0),
            ("router-b", "server"): ((103, 11424, 0, 0, 103, 11424, 0), 0),
            ("server", "router-b"): ((202, 271214, 0, 0, 202, 271214, 0), 0),
        }


class TestGoldenVideo:
    """10 Mbps, 1 % loss; 20 s of the medium title; seed 1, per protocol."""

    def _play(self, protocol):
        return asdict(play_video_once(emulated(10.0, loss_pct=1.0), "medium",
                                      protocol, seed=1, test_seconds=20.0))

    def test_exact_quic_qoe(self):
        assert self._play("quic") == {
            "quality": "medium", "protocol": "quic",
            "time_to_start": 0.2518650974995549,
            "video_loaded_pct": 3.3333333333333335,
            "buffer_play_ratio_pct": 0.0, "rebuffer_count": 0,
            "rebuffers_per_played_sec": 0.0,
            "played_seconds": 19.748134902500446, "stalled_seconds": 0.0}

    def test_exact_tcp_qoe(self):
        assert self._play("tcp") == {
            "quality": "medium", "protocol": "tcp",
            "time_to_start": 0.3625486060816035,
            "video_loaded_pct": 2.111111111111111,
            "buffer_play_ratio_pct": 0.0, "rebuffer_count": 0,
            "rebuffers_per_played_sec": 0.0,
            "played_seconds": 19.637451393918397, "stalled_seconds": 0.0}


class TestGoldenFairness:
    """One QUIC and one TCP flow on the default bottleneck; 10 s; seed 2."""

    def test_exact_throughputs(self):
        result = run_fairness(n_quic=1, n_tcp=1, duration=10.0, seed=2)
        assert result.average_mbps == {"quic": 3.9148584, "tcp": 1.0655296}
        assert {flow: len(points) for flow, points in result.series.items()} \
            == {"quic": 40, "tcp": 37}
        # Every (time, Mbps) point of both series, exact.
        digest = hashlib.sha256(
            repr(sorted(result.series.items())).encode()).hexdigest()
        assert digest == ("b636928107e0e72171219f071722f74e"
                          "90ee5feff3b81e4d004100aa4ce17d3d")


class TestGoldenTcpJitterSack:
    """10 Mbps, +50 ms, 10 ms jitter; 1 x 1 MB; seed 3.

    Reordering deep enough to trip FACK: three spurious retransmits, each
    reported back by DSACK, raise the duplicate threshold.  Pins the SACK
    scoreboard's bookkeeping end to end.
    """

    def test_exact_outcome(self):
        out = run_page_load(
            emulated(10.0, extra_delay_ms=50.0, jitter_ms=10.0),
            page(1, 1024 * 1024), "tcp", seed=3)
        assert out.result.plt == 4.200294054849584
        assert out.sim.events_processed == 7121
        assert out.sim.now == 4.200294054849584
        assert vars(out.client.stats) == {
            "segments_sent": 4, "bytes_sent": 300, "acks_sent": 948,
            "retransmits": 0, "spurious_retransmits": 0, "rto_fires": 0,
            "dsacks_sent": 3, "segments_received": 1164,
            "duplicate_segments": 3}
        assert vars(out.server.stats) == {
            "segments_sent": 1169, "bytes_sent": 1052626, "acks_sent": 1,
            "retransmits": 3, "spurious_retransmits": 3, "rto_fires": 0,
            "dsacks_sent": 0, "segments_received": 1,
            "duplicate_segments": 0}
        assert (out.server.dupthresh, out.server.cc.cwnd) == (8, 27315)
        assert _every_link(out) == {
            ("client", "router"): ((952, 88414, 0, 0, 952, 88414, 0), 0),
            ("router", "client"): ((1170, 1117446, 0, 0, 1170, 1117446, 0),
                                   0),
            ("router", "server"): ((952, 88414, 0, 0, 943, 87586, 447), 0),
            ("server", "router"): ((1170, 1117446, 0, 0, 1170, 1117446, 650),
                                   0),
        }


class TestGoldenQuicLossyAckBlocks:
    """5 Mbps, 1 % loss; 1 x 1 MB; seed 5.

    Random loss leaves holes in the receiver's packet numbers, so ACK
    frames carry many blocks, most of them repeats; NACK loss detection
    and three tail loss probes run on top.
    """

    def test_exact_outcome(self):
        out = run_page_load(emulated(5.0, loss_pct=1.0),
                            page(1, 1024 * 1024), "quic", seed=5)
        assert out.result.plt == 2.051958897318542
        assert out.sim.events_processed == 4689
        assert out.sim.now == 2.051958897318542
        assert vars(out.client.stats) == {
            "packets_sent": 512, "bytes_sent": 69716, "data_packets_sent": 7,
            "retransmitted_ranges": 1, "acks_sent": 505,
            "packets_received": 1016, "duplicate_bytes": 0,
            "tlp_probes": 3, "rto_fires": 0, "flow_blocked_events": 0,
            "app_limited_events": 5}
        assert vars(out.server.stats) == {
            "packets_sent": 1040, "bytes_sent": 1091849,
            "data_packets_sent": 1040, "retransmitted_ranges": 24,
            "acks_sent": 0, "packets_received": 498, "duplicate_bytes": 0,
            "tlp_probes": 0, "rto_fires": 0, "flow_blocked_events": 0,
            "app_limited_events": 6}
        detector = out.server.loss_detector
        assert (detector.losses_declared, detector.false_losses,
                detector.threshold, out.server.cc.cwnd) == (24, 0, 3, 22342)
        assert _every_link(out) == {
            ("client", "router"): ((512, 90196, 0, 0, 511, 89972, 0), 0),
            ("router", "client"): ((1016, 1102892, 0, 0, 1016, 1102892, 0),
                                   0),
            ("router", "server"): ((511, 89972, 0, 8, 498, 86252, 0), 0),
            ("server", "router"): ((1029, 1118642, 11, 13, 1016, 1102892, 0),
                                   14807),
        }


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


class TestGoldenVariableBandwidth:
    """Fig. 11: 2 MB over 50 Mbps redrawn in [10, 50] Mbps every 0.5 s;
    seed 3, per protocol."""

    def _transfer(self, protocol):
        return run_bulk_transfer(emulated(50.0), 2 * 1024 * 1024, protocol,
                                 seed=3, variable_bw=(10.0, 50.0, 0.5))

    def test_exact_quic_transfer(self):
        result = self._transfer("quic")
        assert repr(result.elapsed) == "0.9352374846415704"
        assert (result.losses, result.false_losses,
                len(result.cwnd_series)) == (0, 0, 83)
        assert vars(result.stats) == {
            "packets_sent": 1725, "bytes_sent": 2119140,
            "data_packets_sent": 1725, "retransmitted_ranges": 0,
            "acks_sent": 0, "packets_received": 852, "duplicate_bytes": 0,
            "tlp_probes": 0, "rto_fires": 0, "flow_blocked_events": 0,
            "app_limited_events": 157}

    def test_exact_tcp_transfer(self):
        result = self._transfer("tcp")
        assert repr(result.elapsed) == "1.3491170380174304"
        assert (result.losses, result.false_losses,
                len(result.cwnd_series)) == (180, 0, 57)
        assert vars(result.stats) == {
            "segments_sent": 2064, "bytes_sent": 2210691, "acks_sent": 1,
            "retransmits": 180, "spurious_retransmits": 0, "rto_fires": 0,
            "dsacks_sent": 0, "segments_received": 1,
            "duplicate_segments": 0}


class TestGoldenTraceDrivenTcp:
    """3 MB of TCP over a 100 Mbps path whose bottleneck follows a
    synthetic LTE trace (8 Mbps mean, outages); seed 1.  Built the way
    the trace-driven extension bench builds its transfer."""

    def test_exact_outcome(self):
        sim = Simulator()
        path = build_path(sim, emulated(100.0), seed=1)
        trace = lte_like_trace(mean_mbps=8.0, duration=120.0, seed=1)
        driver = TraceDrivenLink(
            sim, [path.bottleneck_down, path.bottleneck_up], trace)
        driver.start()
        done = {}
        client, server = open_tcp_pair(
            sim, path.client, path.server, tcp_config(),
            request_handler=lambda m: m["size"], seed=1)
        client.connect(lambda now: client.request(
            {"size": 3 * 1024 * 1024},
            lambda m, meta, t: done.update({1: t})))
        assert sim.run_until(lambda: 1 in done, timeout=300.0)
        driver.stop()
        assert repr(done[1]) == "15.643428076527009"
        assert sim.events_processed == 17844
        assert len(driver.applied) == 157
        assert vars(server.stats) == {
            "segments_sent": 3235, "bytes_sent": 3259128, "acks_sent": 1,
            "retransmits": 84, "spurious_retransmits": 84, "rto_fires": 7,
            "dsacks_sent": 0, "segments_received": 1,
            "duplicate_segments": 0}
        links = {key: (_link_counts(link.stats), link.stats.dropped_bytes)
                 for key, link in path.network.links.items()}
        assert links == {
            ("client", "router"): ((1661, 153642, 0, 0, 1660, 153550, 0), 0),
            ("router", "client"): ((3236, 3431380, 0, 0, 3236, 3431380, 0),
                                   0),
            ("router", "server"): ((1660, 153550, 0, 0, 1653, 152906, 0), 0),
            ("server", "router"): ((3236, 3431380, 0, 0, 3236, 3431380, 0),
                                   0),
        }


class TestGoldenCharacterize:
    """``characterize_scenario`` on 20 Mbps, 1 % loss, 5 ms jitter; seed 1."""

    def test_exact_characteristics(self):
        measured = characterize_scenario(
            emulated(20.0, loss_pct=1.0, jitter_ms=5.0), seed=1)
        assert asdict(measured) == {
            "duration": 20.05822836653376, "delivered_packets": 35463,
            "delivered_bytes": 49648200, "dropped_packets": 7047,
            "lost_packets": 348, "reordered_packets": 24590,
            "mean_reorder_depth": 3.9224074827165514}


class TestGoldenManyflowCell:
    """1000 mixed QUIC/TCP flows, droptail, Reno, seed 0, 300 s cap:
    the cell ``benchmarks/sim_manyflow.py`` times.  ``heap_events`` is
    left out: it is the batching cost model, which a fast-path change
    exists to move."""

    def test_exact_outcome(self):
        from repro.core.manyflow import (ManyflowConfig, ManyflowEngine,
                                         manyflow_scenario)

        config = ManyflowConfig(flows=1000, aqm="droptail", duration=300.0)
        metrics = ManyflowEngine(manyflow_scenario(), config, seed=0).run()
        metrics.pop("heap_events")
        assert metrics == {
            "flows": 1000.0, "flows_completed": 1000.0,
            "plt_p10": 0.07850197052050349, "plt_p50": 0.17250861035658804,
            "plt_p90": 0.8428467341642429, "plt_p99": 2.5074160607904656,
            "plt_quic_p50": 0.14479705312448732,
            "plt_tcp_p50": 0.2076581959277708,
            "jain_index": 0.4128240770166004,
            "rate_p50": 394403.04986589693,
            "quic_share": 0.5257466763163383,
            "bytes_acked": 219749102.0, "packets_delivered": 163261.0,
            "acks_processed": 163261.0, "tx_completions": 163261.0,
            "logical_events": 489783.0, "queue_drops": 10925.0,
            "loss_drops": 0.0, "codel_drops": 0.0, "sim_time": 300.0}


class TestGoldenOracleFit:
    """The default ``oracle_requests()`` grid — the one ``repro
    validate`` runs — fitted against the closed-form models.  Each row:
    the exact observed and predicted rates (bytes/s), then the ratio to
    four places and the regime, as a reader compares them with the
    ``repro validate`` table."""

    #: (cc, proto, loss_rate): (observed, predicted, ratio, regime)
    FIT = {
        ("bbr", "quic", 0.01): (5076366.076443465, 6009442.446043165,
                                0.8447, "capacity-limited"),
        ("bbr", "tcp", 0.01): (4728184.577483466, 6009442.446043165,
                               0.7868, "capacity-limited"),
        ("cubic", "quic", 0.01): (901050.1248427839, 826702.7881893226,
                                  1.0899, "loss-limited"),
        ("cubic", "quic", 0.02): (530031.4094619123, 584567.147554496,
                                  0.9067, "loss-limited"),
        ("cubic", "tcp", 0.01): (458254.799784192, 413351.3940946613,
                                 1.1086, "loss-limited"),
        ("cubic", "tcp", 0.02): (245388.33288102783, 292283.57377724804,
                                 0.8396, "loss-limited"),
        ("reno", "quic", 0.01): (1121833.8539497557, 838106.1239485127,
                                 1.3385, "loss-limited"),
        ("reno", "quic", 0.02): (650912.9483683712, 592630.5235979665,
                                 1.0983, "loss-limited"),
        ("reno", "tcp", 0.01): (609499.5795841392, 568097.1527828668,
                                1.0729, "loss-limited"),
        ("reno", "tcp", 0.02): (389819.784018651, 401705.34910553525,
                                0.9704, "loss-limited"),
    }

    @pytest.fixture(scope="class")
    def cells(self):
        from repro.core.models import fit_records, oracle_requests
        from repro.sweep import run_requests

        records = run_requests(oracle_requests())
        assert all(record.complete for record in records)
        return fit_records(records).cells()

    def test_exact_fit(self, cells):
        assert {(c.cc, c.proto, c.loss_rate):
                (c.observed, c.predicted, round(c.ratio, 4), c.regime)
                for c in cells} == self.FIT

    def test_every_cell_within_tolerance(self, cells):
        from repro.core.models import DEFAULT_TOLERANCE

        assert len(cells) == 10
        assert all(c.gated and c.within(DEFAULT_TOLERANCE) for c in cells)


class TestCanonicalBenchCell:
    """The canonical PLT pair ``repro bench`` profiles is itself a golden.

    This is the one place the pair's PLTs and event counts are pinned:
    a drift in either means the profiler now measures different work,
    so profiles from before and after the change no longer compare.
    """

    def test_canonical_plt_pair(self):
        sample = bench_plt()
        assert sample["plt_quic"] == 0.7314250558227289
        assert sample["plt_tcp"] == 1.2991408814263505
        assert sample["events_quic"] == 3666
        assert sample["events_tcp"] == 5092

    def test_event_census_sums_to_events_processed(self):
        """The profile's "Events by handler" census counts the run loop's
        callees; however a hop is plumbed, every event must be one of
        them, so the census equals both runs' live ``events_processed``."""
        import io
        import re

        from repro.core.bench import profile_run

        sample, out = {}, io.StringIO()
        profile_run(lambda: sample.update(bench_plt()), top=1, out=out)
        census = out.getvalue().split(
            "Events by handler (callees of the run loop):\n")[1]
        lines = census.split("\n\n")[0].splitlines()
        counts = {label: int(count.replace(",", ""))
                  for label, count, *_ in map(str.split, lines)}
        live = sample["events_quic"] + sample["events_tcp"]
        assert counts.pop("total") == sum(counts.values()) == live
        # The total line also carries the Python calls behind the events.
        calls = re.search(r"; ([\d,]+) Python calls, ([\d.]+) per delivered "
                          r"packet$", lines[-1])
        assert int(calls.group(1).replace(",", "")) > live
        assert float(calls.group(2)) > 1.0

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
