"""Behavioural tests for the TCP(+TLS, HTTP/2 framing) connection."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.executor import ProtocolSpec
from repro.core.rootcause import loss_report
from repro.core.runner import run_page_load
from repro.devices import MOTOG
from repro.http import single_object_page
from repro.netem import Simulator, emulated
from repro.tcp import tcp_config
from repro.tcp.connection import TcpConnection

from .conftest import FAST, JITTERY, LOSSY, MEDIUM, make_tcp_pair, tcp_download


class TestHandshake:
    def test_three_rtts_before_first_byte(self, sim):
        """TCP + 2-RTT TLS: readiness at ~3 RTT (paper's comparison point)."""
        _, client, _ = make_tcp_pair(sim, emulated(100.0))
        ready = {}
        client.connect(lambda now: ready.update({"t": now}))
        sim.run_until(lambda: "t" in ready, timeout=5.0)
        assert ready["t"] == pytest.approx(3 * 0.036, rel=0.15)

    def test_tls13_style_one_rtt_option(self, sim):
        cfg = tcp_config(tls_rtts=1)
        _, client, _ = make_tcp_pair(sim, emulated(100.0), cfg=cfg)
        ready = {}
        client.connect(lambda now: ready.update({"t": now}))
        sim.run_until(lambda: "t" in ready, timeout=5.0)
        assert ready["t"] == pytest.approx(2 * 0.036, rel=0.15)

    def test_handshake_survives_loss(self, sim):
        """Handshake control packets are retried on a timer."""
        scn = emulated(10.0, loss_pct=20.0)
        _, client, _ = make_tcp_pair(sim, scn, seed=5)
        ready = {}
        client.connect(lambda now: ready.update({"t": now}))
        assert sim.run_until(lambda: "t" in ready, timeout=30.0)

    def test_requests_queue_until_ready(self, sim):
        _, client, _ = make_tcp_pair(sim, MEDIUM)
        done = {}
        # Issue the request immediately; it must wait for the handshake.
        client.connect(None)
        client.request({"size": 10_000}, lambda m, meta, t: done.update({m: t}))
        assert sim.run_until(lambda: len(done) == 1, timeout=10.0)
        assert next(iter(done.values())) > 3 * 0.036


class TestBasicTransfer:
    def test_transfer_completes(self, sim):
        _, client, _ = make_tcp_pair(sim, MEDIUM)
        elapsed = tcp_download(sim, client, 100_000)
        assert 0.1 < elapsed < 2.0

    def test_throughput_near_link_rate(self, sim):
        _, client, _ = make_tcp_pair(sim, MEDIUM)
        size = 5_000_000
        elapsed = tcp_download(sim, client, size)
        assert size * 8 / elapsed / 1e6 > 7.0

    def test_multiple_objects_multiplexed(self, sim):
        _, client, _ = make_tcp_pair(sim, MEDIUM)
        done = {}
        client.connect(lambda now: [
            client.request({"size": 50_000, "i": i},
                           lambda m, meta, t: done.update({meta["i"]: t}))
            for i in range(10)
        ])
        assert sim.run_until(lambda: len(done) == 10, timeout=30.0)

    def test_roundrobin_interleaves_completions(self, sim):
        """Fair DATA scheduling: equal objects finish at similar times."""
        _, client, _ = make_tcp_pair(sim, MEDIUM)
        done = {}
        client.connect(lambda now: [
            client.request({"size": 200_000, "i": i},
                           lambda m, meta, t: done.update({meta["i"]: t}))
            for i in range(4)
        ])
        sim.run_until(lambda: len(done) == 4, timeout=30.0)
        spread = max(done.values()) - min(done.values())
        total = max(done.values())
        assert spread < total * 0.25

    def test_fifo_scheduler_serialises(self, sim):
        cfg = tcp_config(scheduler="fifo")
        _, client, _ = make_tcp_pair(sim, MEDIUM, cfg=cfg)
        order = []
        client.connect(lambda now: [
            client.request({"size": 200_000, "i": i},
                           lambda m, meta, t: order.append((meta["i"], t)))
            for i in range(3)
        ])
        sim.run_until(lambda: len(order) == 3, timeout=30.0)
        # FIFO finishes one whole response before the next (the order of
        # the responses themselves depends on server think-time noise).
        times = sorted(t for _, t in order)
        assert times[1] - times[0] > 0.05
        assert times[2] - times[1] > 0.05


class TestHeadOfLineBlocking:
    def test_loss_on_stream_delays_all_messages(self):
        """The HOL property: under loss, *all* objects slow down together
        (QUIC's independent streams do not; see integration tests)."""
        results = {}
        for loss in (0.0, 2.0):
            sim = Simulator()
            _, client, _ = make_tcp_pair(sim, emulated(10.0, loss_pct=loss),
                                         seed=3)
            done = {}
            client.connect(lambda now: [
                client.request({"size": 100_000, "i": i},
                               lambda m, meta, t: done.update({meta["i"]: t}))
                for i in range(5)
            ])
            assert sim.run_until(lambda: len(done) == 5, timeout=60.0)
            results[loss] = min(done.values())  # even the *first* finisher
        assert results[2.0] > results[0.0] * 1.3

    def test_in_order_delivery_enforced(self, sim):
        """Bytes are only delivered up to the first gap."""
        path, client, server = make_tcp_pair(sim, MEDIUM)
        done = {}
        client.connect(lambda now: client.request(
            {"size": 500_000}, lambda m, meta, t: done.update({m: t})))
        sim.run(until=0.3)
        frontier = client._rcv_frontier
        total_seen = client._rcv_ranges.total()
        assert frontier <= total_seen or total_seen == 0


class TestLossRecovery:
    def test_fast_retransmit_repairs_random_loss(self, sim):
        _, client, server = make_tcp_pair(sim, LOSSY)
        tcp_download(sim, client, 1_000_000)
        assert server.stats.retransmits > 0
        assert server.stats.spurious_retransmits == 0

    def test_rto_repairs_tail_loss(self, sim):
        path, client, server = make_tcp_pair(sim, MEDIUM)
        done = {}
        client.connect(lambda now: client.request(
            {"size": 200_000}, lambda m, meta, t: done.update({1: t})))
        sim.run(until=0.3)
        path.bottleneck_down.loss_rate = 0.9999
        sim.run(until=0.5)
        path.bottleneck_down.loss_rate = 0.0
        assert sim.run_until(lambda: 1 in done, timeout=60.0)
        assert server.stats.rto_fires > 0

    def test_dsack_adapts_dupthresh_under_reordering(self, sim):
        _, client, server = make_tcp_pair(sim, JITTERY)
        tcp_download(sim, client, 2_000_000)
        assert server.dupthresh > 3
        assert server.stats.spurious_retransmits > 0

    def test_dsack_disabled_keeps_dupthresh(self, sim):
        cfg = tcp_config(dsack=False)
        _, client, server = make_tcp_pair(sim, JITTERY, cfg=cfg)
        tcp_download(sim, client, 2_000_000)
        assert server.dupthresh == 3

    def test_reordering_without_dsack_hurts_more(self):
        times = {}
        for dsack in (True, False):
            sim = Simulator()
            cfg = tcp_config(dsack=dsack)
            _, client, _ = make_tcp_pair(sim, JITTERY, cfg=cfg)
            times[dsack] = tcp_download(sim, client, 2_000_000, timeout=120.0)
        assert times[False] > times[True]


class TestReceiveWindow:
    def test_tiny_buffer_throttles_throughput(self, sim):
        cfg = tcp_config(receive_buffer=32_000)
        _, client, _ = make_tcp_pair(sim, emulated(100.0), cfg=cfg)
        elapsed = tcp_download(sim, client, 1_000_000)
        # rwnd-limited: ~ rwnd/RTT = 32 KB / 36 ms ~= 7 Mbps << 100 Mbps.
        rate = 1_000_000 * 8 / elapsed / 1e6
        assert rate < 12.0

    def test_slow_device_barely_affects_tcp(self):
        """The kernel keeps ACKing: phones hurt TCP far less than QUIC."""
        times = {}
        from repro.devices import DESKTOP

        for device in (DESKTOP, MOTOG):
            sim = Simulator()
            _, client, _ = make_tcp_pair(sim, emulated(50.0), device=device)
            times[device.name] = tcp_download(sim, client, 5_000_000)
        assert times["motog"] < times["desktop"] * 1.35


class TestAckBehaviour:
    def test_delayed_acks_roughly_half_of_segments(self, sim):
        _, client, server = make_tcp_pair(sim, MEDIUM)
        tcp_download(sim, client, 1_000_000)
        segments = server.stats.segments_sent
        acks = client.stats.acks_sent
        assert acks < segments * 0.75

    def test_dupacks_sent_immediately_on_gap(self, sim):
        _, client, server = make_tcp_pair(sim, LOSSY)
        tcp_download(sim, client, 500_000)
        # With loss, ack count rises above the delayed-ack baseline.
        assert client.stats.acks_sent > 0
        assert client.stats.dsacks_sent >= 0


# ----------------------------------------------------------------------
# tail-loss probes (TLP is off in tcp_config(); these runs turn it on)
# ----------------------------------------------------------------------
#: (rate Mbps, object KB, seed) at 1 % loss, seeds 0-39 searched: every
#: run that never finished with TLP on while a probe's own DSACK ended
#: its probe episode (the probe re-sent an already-SACKed tail, so the
#: RTO that repairs snd_una never fired), and the two that were > 4x
#: slower than with TLP off.
TLP_LIVELOCKS = [(10.0, 1024, seed) for seed in (11, 19, 24, 27, 33)] + [
    (50.0, 200, 32)]
TLP_SLOW = [(10.0, 1024, 23), (50.0, 200, 4)]


def _tlp_load(rate, size_kb, seed, tlp):
    return run_page_load(
        emulated(rate, loss_pct=1.0), single_object_page(size_kb * 1024),
        ProtocolSpec("tcp", tcp_config(tlp_enabled=tlp)), seed=seed,
        timeout=60.0)


def _longest_probe_run(rate, size_kb, seed):
    """Run one load with TLP on; return it and the most tail-loss probes
    any endpoint sent with neither newly acknowledged data (snd_una or
    the SACK scoreboard growing) nor an RTO in between."""
    current, longest = {}, [0]
    fire, on_ack = TcpConnection._retx_timer_fired, TcpConnection._on_ack_info

    def counting_fire(self, kind):
        armed = self.bytes_in_flight > 0 and not self.closed
        fire(self, kind)
        if armed:
            run = current.get(id(self), 0) + 1 if kind == "tlp" else 0
            current[id(self)] = run
            longest[0] = max(longest[0], run)

    def watching_ack(self, now, seg):
        una, sacked = self._snd_una, self._sacked.total()
        on_ack(self, now, seg)
        if self._snd_una > una or self._sacked.total() > sacked:
            current[id(self)] = 0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TcpConnection, "_retx_timer_fired", counting_fire)
        patch.setattr(TcpConnection, "_on_ack_info", watching_ack)
        out = _tlp_load(rate, size_kb, seed, tlp=True)
    return out, longest[0]


class TestTailLossProbe:
    @pytest.mark.parametrize("rate, size_kb, seed", TLP_LIVELOCKS + TLP_SLOW)
    def test_finishes_within_twice_its_tlp_off_plt(self, rate, size_kb, seed):
        probed = _tlp_load(rate, size_kb, seed, tlp=True)
        plain = _tlp_load(rate, size_kb, seed, tlp=False)
        assert probed.result.complete
        assert probed.plt <= 2.0 * plain.plt

    def test_loss_report_counts_the_probes(self):
        # The sender fires two TLPs on this seed; the report once read a
        # hard-coded 0 for TCP.
        out = _tlp_load(50.0, 200, 4, tlp=True)
        report = loss_report(out.server)
        assert report.tlp_fires == 2
        assert "2 TLPs" in report.describe()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(cell=st.sampled_from([(10.0, 1024), (50.0, 200), (50.0, 2048)]),
           seed=st.integers(0, 39))
    @example(cell=(10.0, 1024), seed=11)
    @example(cell=(50.0, 200), seed=32)
    def test_no_episode_sends_more_probes_than_allowed_before_an_rto(
            self, cell, seed):
        out, longest = _longest_probe_run(*cell, seed)
        assert out.result.complete
        assert longest <= tcp_config().max_tail_loss_probes
