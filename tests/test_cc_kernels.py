"""Tests for the pluggable CC kernel layer (``repro.transport.cc.kernels``).

Pins the refactor's two contracts: (1) the Reno kernel driving
:class:`FlowTable` reproduces the pre-refactor hardcoded AIMD manyflow
outcomes byte-for-byte (fixed-seed goldens captured on the last commit
before the kernel extraction, with ``batch_quantum=0``), and (2) each
adapter class delegates its window arithmetic to its kernel — an
identically-parameterised standalone kernel stepped with the mirror
call sequence tracks the adapter's cwnd exactly.  BBR's windowed-max
bandwidth filter is pinned separately: against the linear filter it
replaced (same floats after every push), by an operation count (constant
work per ACK) and by fixed-seed BBR manyflow goldens.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.core.manyflow import (
    ManyflowConfig,
    ManyflowEngine,
    manyflow_scenario,
)
from repro.transport.cc import BBR, CubicCC, CubicConfig
from repro.transport.cc.kernels import (
    BBR_BW_WINDOW_ROUNDS,
    BBRKernel,
    CubicKernel,
    KERNEL_NAMES,
    RenoKernel,
    make_kernel,
)
from repro.transport.flowtable import FlowTable, QUIC_PARAMS, TCP_PARAMS
from repro.transport.rtt import RttEstimator

# ----------------------------------------------------------------------
# Fixed-seed goldens captured on the commit *before* the kernel
# extraction: ManyflowConfig(flows=40, duration=120.0), per-packet
# scheduling (batch_quantum=0.0), default manyflow_scenario().  The
# refactored reno path must reproduce every float exactly.
# ----------------------------------------------------------------------
PRE_REFACTOR_CLEAN = {
    0: {
        "flows": 40.0,
        "flows_completed": 40.0,
        "plt_p10": 0.04133276351455791,
        "plt_p50": 0.12013580522383183,
        "plt_p90": 0.17395644227008164,
        "plt_p99": 0.23596403560877965,
        "plt_quic_p50": 0.09518652938710595,
        "plt_tcp_p50": 0.13126182207929704,
        "jain_index": 0.5300987401645206,
        "quic_share": 0.7462509936309671,
        "bytes_acked": 5206913.0,
        "packets_delivered": 3878.0,
        "acks_processed": 3878.0,
        "tx_completions": 3878.0,
        "logical_events": 11634.0,
        "heap_events": 60043.0,
        "queue_drops": 0.0,
        "loss_drops": 0.0,
        "codel_drops": 0.0,
        "sim_time": 120.0,
    },
    7: {
        "flows": 40.0,
        "flows_completed": 40.0,
        "plt_p10": 0.043735033300934895,
        "plt_p50": 0.1870129930295228,
        "plt_p90": 0.8145334446702484,
        "plt_p99": 1.5092875641953856,
        "plt_quic_p50": 0.11474604260227811,
        "plt_tcp_p50": 0.23624621519232175,
        "jain_index": 0.47037844902233994,
        "quic_share": 0.17241696357647646,
        "bytes_acked": 10136636.0,
        "packets_delivered": 7532.0,
        "acks_processed": 7532.0,
        "tx_completions": 7532.0,
        "logical_events": 22596.0,
        "heap_events": 169974.0,
        "queue_drops": 658.0,
        "loss_drops": 0.0,
        "codel_drops": 0.0,
        "sim_time": 120.0,
    },
}

#: Same shape, on a lossy bottleneck — exercises the on_loss/on_timeout
#: kernel paths: manyflow_scenario(rate_mbps=20.0, loss_rate=0.01), seed 3.
PRE_REFACTOR_LOSSY = {
    "flows": 40.0,
    "flows_completed": 40.0,
    "plt_p10": 0.15493280658181394,
    "plt_p50": 0.826198275498897,
    "plt_p90": 1.662558593324732,
    "plt_p99": 5.829252258477377,
    "plt_quic_p50": 1.0814113999140136,
    "plt_tcp_p50": 0.7914501891625794,
    "jain_index": 0.416268058460452,
    "quic_share": 0.7302700165509449,
    "bytes_acked": 5831087.0,
    "packets_delivered": 4340.0,
    "acks_processed": 4340.0,
    "tx_completions": 4385.0,
    "logical_events": 13065.0,
    "heap_events": 15751.0,
    "queue_drops": 815.0,
    "loss_drops": 45.0,
    "codel_drops": 0.0,
    "sim_time": 120.0,
}

# ----------------------------------------------------------------------
# BBR goldens captured on the last commit with the linear bandwidth
# filter: ManyflowConfig(flows=50, duration=30.0, cc="bbr", aqm=...),
# seed 0, default batch quantum and manyflow_scenario().  The full
# metrics dict per AQM is the shared part plus what the AQM moves.
# ----------------------------------------------------------------------
_BBR_GOLDEN_SHARED = {
    "flows": 50.0,
    "flows_completed": 50.0,
    "plt_p10": 0.04133276351455791,
    "quic_share": 0.41528605032388793,
    "bytes_acked": 10361918.0,
    "packets_delivered": 7701.0,
    "acks_processed": 7701.0,
    "tx_completions": 7701.0,
    "logical_events": 23103.0,
    "loss_drops": 0.0,
    "sim_time": 30.0,
}
BBR_GOLDEN = {
    "droptail": {
        **_BBR_GOLDEN_SHARED,
        "plt_p50": 0.11039982792677555,
        "plt_p90": 0.17523251239696863,
        "plt_p99": 0.45718083090461004,
        "plt_quic_p50": 0.08462166408557577,
        "plt_tcp_p50": 0.12864314883224376,
        "jain_index": 0.4460118153170447,
        "rate_p50": 588577.4215739697,
        "heap_events": 1357.0,
        "queue_drops": 235.0,
        "codel_drops": 0.0,
    },
    "codel": {
        **_BBR_GOLDEN_SHARED,
        "plt_p50": 0.11039982792677555,
        "plt_p90": 0.17523251239696863,
        "plt_p99": 0.4793029589046279,
        "plt_quic_p50": 0.08462166408557577,
        "plt_tcp_p50": 0.12864314883224376,
        "jain_index": 0.45096587419337386,
        "rate_p50": 588577.4215739697,
        "heap_events": 1357.0,
        "queue_drops": 237.0,
        "codel_drops": 3.0,
    },
    "fq_codel": {
        **_BBR_GOLDEN_SHARED,
        "plt_p50": 0.09702380938710631,
        "plt_p90": 0.16698706203386746,
        "plt_p99": 0.48307157357704256,
        "plt_quic_p50": 0.08836486303976215,
        "plt_tcp_p50": 0.11964459454367427,
        "jain_index": 0.46674821563837715,
        "rate_p50": 598103.6442638848,
        "heap_events": 1270.0,
        "queue_drops": 106.0,
        "codel_drops": 4.0,
    },
}


def run_metrics(config, scenario=None, seed=0, batch_quantum=0.0):
    engine = ManyflowEngine(scenario or manyflow_scenario(), config,
                            seed=seed, batch_quantum=batch_quantum)
    metrics = engine.run()
    # rate_p50 is a post-refactor addition (the model-fit observable);
    # everything the pre-refactor engine produced must be untouched.
    return {k: v for k, v in metrics.items() if k != "rate_p50"}


class TestPreRefactorGoldens:
    @pytest.mark.parametrize("seed", sorted(PRE_REFACTOR_CLEAN))
    def test_clean_golden_byte_identical(self, seed):
        config = ManyflowConfig(flows=40, duration=120.0)
        assert run_metrics(config, seed=seed) == PRE_REFACTOR_CLEAN[seed]

    def test_lossy_golden_byte_identical(self):
        config = ManyflowConfig(flows=40, duration=120.0)
        scenario = manyflow_scenario(rate_mbps=20.0, loss_rate=0.01)
        assert run_metrics(config, scenario, seed=3) == PRE_REFACTOR_LOSSY


class TestBbrManyflowGoldens:
    @pytest.mark.parametrize("aqm", sorted(BBR_GOLDEN))
    def test_golden_byte_identical(self, aqm):
        config = ManyflowConfig(flows=50, duration=30.0, cc="bbr", aqm=aqm)
        engine = ManyflowEngine(manyflow_scenario(), config, seed=0)
        assert engine.run() == BBR_GOLDEN[aqm]


class TestManyflowCcAxis:
    def test_label_suffixes_non_default_kernel(self):
        assert ManyflowConfig(flows=30).label == "manyflow-30f-droptail"
        assert ManyflowConfig(flows=30, cc="bbr").label == \
            "manyflow-30f-droptail-bbr"

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            ManyflowConfig(cc="vegas")

    @pytest.mark.parametrize("cc", KERNEL_NAMES)
    def test_batched_identical_to_per_packet(self, cc):
        """The batching contract holds on every point of the CC axis."""
        config = ManyflowConfig(flows=30, duration=60.0, cc=cc)
        scenario = manyflow_scenario(rate_mbps=20.0, loss_rate=0.005)
        batched = run_metrics(config, scenario, seed=2,
                              batch_quantum=0.002)
        per_packet = run_metrics(config, scenario, seed=2,
                                 batch_quantum=0.0)
        batched.pop("heap_events")
        per_packet.pop("heap_events")
        assert batched == per_packet

    def test_kernels_actually_differ(self):
        config = dict(flows=30, duration=60.0)
        scenario = manyflow_scenario(rate_mbps=20.0, loss_rate=0.005)
        outcomes = {
            cc: run_metrics(ManyflowConfig(cc=cc, **config), scenario)
            for cc in KERNEL_NAMES
        }
        assert outcomes["reno"] != outcomes["cubic"]
        assert outcomes["reno"] != outcomes["bbr"]


class TestMakeKernel:
    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_kernel("vegas", QUIC_PARAMS)

    def test_flowtable_validates_cc(self):
        with pytest.raises(ValueError):
            FlowTable(4, cc="vegas")

    def test_reno_mirrors_flow_params(self):
        kernel = make_kernel("reno", QUIC_PARAMS)
        assert isinstance(kernel, RenoKernel)
        assert kernel.cwnd == QUIC_PARAMS.initial_window
        assert kernel.max_cwnd == QUIC_PARAMS.max_cwnd
        assert kernel.beta == QUIC_PARAMS.beta

    def test_cubic_scales_alpha_for_emulated_connections(self):
        quic = make_kernel("cubic", QUIC_PARAMS)
        tcp = make_kernel("cubic", TCP_PARAMS)
        assert isinstance(quic, CubicKernel)
        # QUIC's N=2 emulation quadruples the per-connection alpha term.
        n = QUIC_PARAMS.emulated_connections
        assert n == 2
        expected = 3.0 * n * n * (1.0 - QUIC_PARAMS.beta) \
            / (1.0 + QUIC_PARAMS.beta)
        assert quic.reno_alpha == pytest.approx(expected)
        assert tcp.reno_alpha < quic.reno_alpha

    def test_bbr_has_no_ssthresh(self):
        kernel = make_kernel("bbr", TCP_PARAMS)
        assert isinstance(kernel, BBRKernel)
        assert kernel.ssthresh == float("inf")


class TestRenoKernelSteps:
    def test_slow_start_then_avoidance(self):
        kernel = RenoKernel(initial_cwnd=2.0, max_cwnd=100.0, beta=0.7,
                            ssthresh=4.0)
        kernel.on_ack(2)
        assert kernel.cwnd == 4.0  # slow start: +1 per acked packet
        kernel.on_ack(2)
        assert kernel.cwnd == 4.5  # CA: +acked/cwnd

    def test_loss_and_timeout(self):
        kernel = RenoKernel(initial_cwnd=10.0, max_cwnd=100.0, beta=0.7)
        kernel.on_loss()
        assert kernel.cwnd == pytest.approx(7.0)
        assert kernel.ssthresh == pytest.approx(7.0)
        kernel.on_timeout()
        assert kernel.cwnd == 2.0
        assert kernel.ssthresh == pytest.approx(4.9)

    def test_macw_cap(self):
        kernel = RenoKernel(initial_cwnd=9.5, max_cwnd=10.0, beta=0.7,
                            ssthresh=100.0)
        kernel.on_ack(5)
        assert kernel.cwnd == 10.0


class TestKernelAdapterEquivalence:
    """A standalone kernel stepped with the adapter's mirror calls
    tracks the adapter's window exactly — the delegation contract."""

    def test_cubic(self):
        config = CubicConfig(prr=False, hybrid_slow_start=False)
        rtt = RttEstimator()
        cc = CubicCC(config, rtt)
        mirror = CubicKernel(
            mss=config.mss,
            initial_cwnd=config.initial_cwnd_packets * config.mss,
            min_cwnd=config.min_cwnd_packets * config.mss,
            max_cwnd=config.max_cwnd_packets * config.mss,
            ssthresh=float("inf"),
            cubic_c=config.cubic_c,
            beta=config.scaled_beta(),
            reno_alpha=config.reno_alpha(),
        )
        cc.on_connection_start(0.0)
        cc.on_receiver_buffer(200 * config.mss)
        mirror.ssthresh = float(200 * config.mss)
        now = 0.0
        for step in range(400):
            now += 0.01
            rtt.on_sample(0.05, now)
            cc.on_ack(now, config.mss, cwnd_limited=True)
            mirror.on_ack(config.mss, now, rtt.smoothed_rtt,
                          rtt.min_rtt())
            assert cc.kernel.cwnd == mirror.cwnd, step
            if step in (150, 290):
                in_flight = int(cc.kernel.cwnd)
                cc.on_congestion_event(now, in_flight)
                mirror.on_loss(now, float(in_flight))
                cc.on_recovery_exit(now)
                mirror.on_recovery_exit()
                assert cc.kernel.cwnd == mirror.cwnd
            if step == 350:
                cc.on_retransmission_timeout(now)
                mirror.on_timeout(now)
                assert cc.kernel.cwnd == mirror.cwnd
        assert cc.ssthresh == mirror.ssthresh

    def test_bbr(self):
        """Compares ``BBRKernel`` with *itself* through the adapter, so
        it pins the delegation only: a wrong bandwidth filter passes
        here.  ``TestBbrBandwidthFilter`` is what checks the filter."""
        rtt = RttEstimator()
        cc = BBR(rtt, mss=1350)
        mirror = BBRKernel(mss=1350)
        cc.on_connection_start(0.0)
        mirror.min_rtt_stamp = 0.0
        now = 0.0
        for step in range(600):
            now += 0.01
            rtt.on_sample(0.04, now)
            cc.on_rtt_sample(now, 0.04)
            mirror.on_rtt_sample(now, 0.04, rtt.min_rtt())
            cc.on_ack(now, 1350, cwnd_limited=True)
            mirror.on_ack(1350, now, rtt.smoothed_rtt, rtt.min_rtt())
            assert cc.kernel.cwnd == mirror.cwnd, step
            assert cc.kernel.mode == mirror.mode, step
            if step == 400:
                cc.on_congestion_event(now, 8 * 1350)
                mirror.on_loss(now, 8 * 1350.0)
                assert cc.kernel.cwnd == mirror.cwnd
                cc.on_recovery_exit(now)
        # The filter and machine progressed past Startup.
        assert mirror.mode != "Startup"
        assert cc.pacing_rate() == mirror.pacing_rate(rtt.smoothed_rtt)

    def test_flowtable_reno(self):
        table = FlowTable(1, cc="reno")
        table.define_flow(0, 0.0, 500 * 1350, proto=1)
        table.activate(0, 0.0)
        mirror = make_kernel("reno", TCP_PARAMS)
        now = 0.0
        for step in range(300):
            now += 0.01
            table.rtt_update(0, 0.05, now)
            table.on_ack(0, 2, now)
            mirror.on_ack(2, now, table.srtt[0], table.min_rtt[0])
            assert table.cwnd[0] == mirror.cwnd, step
            if step == 120:
                table.on_loss_event(0, now)
                mirror.on_loss(now, float(table.inflight[0]))
                assert table.cwnd[0] == mirror.cwnd
            if step == 220:
                table.on_timeout(0, now)
                mirror.on_timeout(now)
                assert table.cwnd[0] == mirror.cwnd
        assert table.ssthresh[0] == mirror.ssthresh


class CountingFloat(float):
    """A float that counts the ordering comparisons it takes part in and
    survives the ``acked / interval`` that makes a delivery-rate sample."""

    comparisons = 0

    def _counted(compare):
        def method(self, other):
            CountingFloat.comparisons += 1
            return compare(float(self), other)
        return method

    __lt__ = _counted(float.__lt__)
    __le__ = _counted(float.__le__)
    __gt__ = _counted(float.__gt__)
    __ge__ = _counted(float.__ge__)
    del _counted

    def __truediv__(self, other):
        return CountingFloat(float(self) / other)


class TestBbrBandwidthFilter:
    """The monotonic-deque windowed max against the linear filter it
    replaced: the same floats, at constant work per ACK."""

    @staticmethod
    def _schedule(pushes=20_000, seed=18):
        """Seeded ``(now, rate, srtt)`` pushes, strictly increasing in
        time, in runs of 20-800 pushes of one shape — rates random from a
        small set (repeats are common), all equal, strictly decreasing
        (nothing is ever dominated) or strictly increasing — with srtt
        jumping 10x up or down (or to 0, the 1e-3 floor) between runs
        and one idle gap longer than any window."""
        rng = random.Random(seed)
        now, rate, srtt = 0.0, 1000.0, 0.004
        left, shape = 0, "random"
        for push in range(pushes):
            if left == 0:
                left = rng.randint(20, 800)
                shape = rng.choice(
                    ("random", "equal", "decreasing", "increasing"))
                srtt = rng.choice((0.0, 0.004, 0.04))
            left -= 1
            now += rng.uniform(1e-4, 2e-3)
            if push == pushes // 2:
                now += 5.0  # idle: every older sample expires at once
            if shape == "random":
                rate = float(rng.randint(1, 12)) * 125.0
            elif shape == "decreasing":
                rate = rate * 0.999
            elif shape == "increasing":
                rate = rate * 1.001
            yield now, rate, srtt

    def test_matches_linear_reference_after_every_push(self):
        kernel = BBRKernel(mss=1.0)
        assert kernel.bandwidth() == 0.0
        reference = deque()  # the parent commit's filter, verbatim
        longest = evictions = 0
        for now, rate, srtt in self._schedule():
            kernel._push_bw_sample(now, rate, srtt)
            window = BBR_BW_WINDOW_ROUNDS * max(srtt, 1e-3)
            reference.append((now, rate))
            while reference and now - reference[0][0] > window:
                reference.popleft()
                evictions += 1
            assert kernel.bandwidth() == max(bw for _, bw in reference), now
            assert len(kernel.bw_samples) <= len(reference)
            longest = max(longest, len(reference))
        # The schedule really filled and emptied windows.
        assert longest >= 300 and evictions >= 15_000

    def test_constant_comparisons_per_ack(self):
        """No wall clock: count the comparisons rate samples take part
        in.  A 1 s window fed one ACK per ms holds 1 000 samples, and a
        strictly decreasing rate means none is ever dominated — the
        linear filter compared ~1 000 rates per ACK here (833 on
        average over the run); this one compares one."""
        kernel = BBRKernel(mss=1.0)
        acks = 3_000
        CountingFloat.comparisons = 0
        for ack in range(acks):
            # One spike mid-run evicts the whole deque at once: the
            # bound is amortised, not per call.
            acked = 5_000.0 if ack == 2_000 else 2_000.0 - 0.1 * ack
            kernel.on_ack(CountingFloat(acked), now=1e-3 * ack, srtt=0.1,
                          min_rtt=0.1)
            if ack == 1_999:
                assert len(kernel.bw_samples) >= 500
        assert isinstance(kernel.bandwidth(), CountingFloat)
        assert 0 < CountingFloat.comparisons <= 4 * acks
