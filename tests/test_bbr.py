"""Tests for the simplified BBR controller (Fig. 3b support)."""

from dataclasses import replace

import pytest

from repro.core.executor import ProtocolSpec
from repro.core.instrumentation import Trace
from repro.core.runner import run_page_load
from repro.http.objects import page
from repro.netem.profiles import Scenario
from repro.quic.config import quic_config
from repro.transport.cc.bbr import BBR, DRAIN_GAIN, STARTUP_GAIN
from repro.transport.cc.interface import BBRState
from repro.transport.rtt import RttEstimator

MSS = 1350


def make_bbr(trace=None):
    rtt = RttEstimator(initial_rtt=0.05)
    rtt.on_sample(0.05, now=0.0)
    return BBR(rtt, mss=MSS, trace=trace), rtt


def feed_acks(bbr, rtt, start, count, interval=0.005, acked=2 * MSS,
              rtt_sample=0.05):
    t = start
    for _ in range(count):
        rtt.on_sample(rtt_sample, now=t)
        bbr.on_rtt_sample(t, rtt_sample)
        bbr.on_ack(t, acked, cwnd_limited=True)
        t += interval
    return t


class TestStateProgression:
    def test_starts_in_startup(self):
        bbr, _ = make_bbr()
        assert bbr.state == BBRState.STARTUP.value

    def test_startup_to_drain_on_bw_plateau(self):
        bbr, rtt = make_bbr()
        bbr.on_connection_start(0.0)
        # Constant delivery rate: the max filter stops growing -> Drain.
        feed_acks(bbr, rtt, 0.0, 60)
        assert bbr.state in (BBRState.DRAIN.value, BBRState.PROBE_BW.value)

    def test_reaches_probe_bw(self):
        bbr, rtt = make_bbr()
        bbr.on_connection_start(0.0)
        feed_acks(bbr, rtt, 0.0, 300)
        assert bbr.state == BBRState.PROBE_BW.value

    def test_probe_rtt_after_min_rtt_window(self):
        bbr, rtt = make_bbr()
        bbr.on_connection_start(0.0)
        t = feed_acks(bbr, rtt, 0.0, 300)
        # Keep acking with a higher RTT for > 10 s so the min expires.
        feed_acks(bbr, rtt, t, 2500, interval=0.005, rtt_sample=0.08)
        trace_states = {BBRState.PROBE_RTT.value, BBRState.PROBE_BW.value,
                        BBRState.STARTUP.value}
        assert bbr.state in trace_states

    def test_recovery_on_loss_and_exit_on_ack(self):
        bbr, rtt = make_bbr()
        bbr.on_connection_start(0.0)
        feed_acks(bbr, rtt, 0.0, 50)
        bbr.on_congestion_event(0.5, in_flight=10 * MSS)
        assert bbr.state == BBRState.RECOVERY.value
        assert bbr.cwnd == 10 * MSS
        bbr.on_ack(0.55, 2 * MSS, cwnd_limited=True)
        assert bbr.state != BBRState.RECOVERY.value


class TestRates:
    def test_pacing_rate_positive_before_samples(self):
        bbr, _ = make_bbr()
        assert bbr.pacing_rate() > 0

    def test_startup_gain_applied(self):
        bbr, rtt = make_bbr()
        bbr.on_connection_start(0.0)
        feed_acks(bbr, rtt, 0.0, 10)
        bw = bbr._bandwidth()
        assert bw > 0
        if bbr.state == BBRState.STARTUP.value:
            assert bbr.pacing_rate() == pytest.approx(STARTUP_GAIN * bw)

    def test_cwnd_tracks_bdp(self):
        bbr, rtt = make_bbr()
        bbr.on_connection_start(0.0)
        feed_acks(bbr, rtt, 0.0, 400)
        bdp = bbr._bandwidth() * rtt.min_rtt()
        assert bbr.cwnd <= 2.5 * bdp + 4 * MSS

    def test_can_send_respects_cwnd(self):
        bbr, _ = make_bbr()
        assert bbr.can_send_bytes(bbr.cwnd) == 0
        assert bbr.can_send_bytes(0) == bbr.cwnd


class TestTracing:
    def test_states_logged_for_inference(self):
        trace = Trace("bbr", enabled=True)
        bbr, rtt = make_bbr(trace=trace)
        bbr.on_connection_start(0.0)
        feed_acks(bbr, rtt, 0.0, 300)
        seq = trace.state_sequence()
        assert seq[0] == BBRState.STARTUP.value
        assert BBRState.DRAIN.value in seq
        assert BBRState.PROBE_BW.value in seq


def _bulk_plt(rate_mbps, use_bbr):
    out = run_page_load(
        Scenario(name="s", rate_mbps=rate_mbps, rtt=0.036),
        page(1, 10 * 1024 * 1024),
        ProtocolSpec.quic(replace(quic_config(34), use_bbr=use_bbr)),
        seed=1)
    return out.result.plt


class TestKnownDeviations:
    """The oracle of the retired known deviation 7 (EXPERIMENTS.md).

    A 10 MB load at 36 ms RTT once took QUIC-BBR 210.7 s at 5 Mbps and
    55.4 s at 10 Mbps: the receiver's ACKs of its own control packets
    "filled the pipe" in Startup.  Samples taken while app-limited no
    longer count towards a full pipe, and BBR is within 1.3x of Cubic.
    """

    def test_bulk_load_within_2x_of_serialisation_at_10mbps(self):
        assert _bulk_plt(10.0, use_bbr=True) <= 2 * (10 * 1024 * 1024
                                                     * 8 / 10e6)

    @pytest.mark.parametrize("rate_mbps", [5.0, 10.0, 20.0, 50.0, 100.0])
    def test_bulk_load_within_1_3x_of_cubic(self, rate_mbps):
        assert (_bulk_plt(rate_mbps, use_bbr=True)
                <= 1.3 * _bulk_plt(rate_mbps, use_bbr=False))
