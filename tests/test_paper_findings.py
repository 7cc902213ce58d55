"""Integration tests: the paper's key findings must hold in the simulator.

Each test encodes one bullet from the paper's Sec. 1 findings list (or a
Sec. 5 claim) as an executable assertion on *shape* — who wins, roughly
by how much, and why.  These are the repository's ground truth; the
benchmark harness reproduces the full tables and figures on top of the
same machinery.
"""

import pytest

from repro.core.executor import ProtocolSpec
from repro.core.runner import (
    compare_page_load,
    compare_quic_variants,
    run_bulk_transfer,
    run_fairness,
    run_page_load,
)
from repro.devices import DESKTOP, MOTOG
from repro.http import page, single_object_page
from repro.netem import emulated, fairness_bottleneck, reordering_scenario
from repro.quic import quic_config

RUNS = 5  # reduced from the paper's 10 to keep the suite fast


class TestDesktopFindings:
    def test_quic_outperforms_tcp_on_clean_links(self):
        """Finding 1: 'QUIC outperforms TCP+HTTPS in nearly every scenario'."""
        cell = compare_page_load(
            emulated(10.0), single_object_page(200 * 1024), runs=RUNS)
        assert cell.winner == "quic"
        assert cell.pct_diff > 10

    def test_quic_gain_largest_for_small_objects(self):
        """0-RTT dominates when the transfer is a handful of packets."""
        small = compare_page_load(
            emulated(10.0), single_object_page(5 * 1024), runs=RUNS)
        large = compare_page_load(
            emulated(10.0), single_object_page(1024 * 1024), runs=RUNS)
        assert small.pct_diff > large.pct_diff

    def test_quic_outperforms_under_loss(self):
        """Fig. 8a: better loss recovery and no transport HOL blocking.

        Random loss makes individual runs noisy, so this uses more
        rounds and checks the effect size plus a relaxed significance
        level (the full bench uses the paper's 10+ rounds per cell)."""
        cell = compare_page_load(
            emulated(50.0, loss_pct=1.0), single_object_page(1024 * 1024),
            runs=14)
        assert cell.quic_mean < cell.tcp_mean
        assert cell.pct_diff > 25
        assert cell.ttest.p_value < 0.05

    def test_many_small_objects_is_quics_weak_spot(self):
        """Sec. 5.2: large numbers of small objects favour TCP (HSS exit).

        The gain must at least collapse versus the single-object case."""
        single = compare_page_load(
            emulated(50.0), page(1, 10 * 1024), runs=RUNS)
        many = compare_page_load(
            emulated(50.0), page(200, 10 * 1024), runs=RUNS)
        assert many.pct_diff < single.pct_diff - 5

    def test_zero_rtt_benefit_isolated(self):
        """Fig. 7: 0-RTT helps small objects; insignificant for 10 MB."""
        small = compare_quic_variants(
            emulated(10.0), single_object_page(10 * 1024),
            treatment_cfg=quic_config(34, zero_rtt=True),
            baseline_cfg=quic_config(34, zero_rtt=False), runs=RUNS)
        big = compare_quic_variants(
            emulated(10.0), single_object_page(10 * 1024 * 1024),
            treatment_cfg=quic_config(34, zero_rtt=True),
            baseline_cfg=quic_config(34, zero_rtt=False), runs=RUNS)
        assert small.pct_diff > 10
        assert big.pct_diff < 5


class TestReorderingFinding:
    def test_quic_collapses_under_reordering_tcp_does_not(self):
        """Finding 2 / Fig. 10: jitter-reordered packets are false losses
        for QUIC's fixed NACK threshold; TCP's DSACK adapts."""
        scn = reordering_scenario()
        quic = run_bulk_transfer(scn, 10 * 1024 * 1024, "quic", seed=1)
        tcp = run_bulk_transfer(scn, 10 * 1024 * 1024, "tcp", seed=1)
        assert quic.elapsed > tcp.elapsed * 1.5
        assert quic.false_losses > 100

    def test_raising_nack_threshold_restores_quic(self):
        """Fig. 10: larger thresholds progressively repair performance."""
        scn = reordering_scenario()
        elapsed = {}
        for threshold in (3, 50):
            cfg = quic_config(34)
            cfg.nack_threshold = threshold
            result = run_bulk_transfer(scn, 10 * 1024 * 1024,
                                       ProtocolSpec.quic(cfg), seed=1)
            elapsed[threshold] = result.elapsed
        assert elapsed[50] < elapsed[3] / 2


class TestFairnessFinding:
    def test_quic_takes_twice_its_share(self):
        """Table 4: ~2.71 vs 1.62 Mbps on a 5 Mbps bottleneck."""
        result = run_fairness(n_quic=1, n_tcp=1, duration=30.0, seed=1)
        assert result.average_mbps["quic"] > result.average_mbps["tcp"] * 1.3

    def test_quic_holds_majority_against_two_tcp(self):
        """Table 4: QUIC keeps >50% even vs TCPx2."""
        result = run_fairness(n_quic=1, n_tcp=2, duration=30.0, seed=1)
        assert result.quic_share() > 0.5

    def test_two_quic_flows_are_fair(self):
        """Sec. 5.1: QUIC vs QUIC is fair."""
        result = run_fairness(n_quic=2, n_tcp=0, duration=30.0, seed=1)
        rates = sorted(result.average_mbps.values())
        assert rates[0] > rates[1] * 0.6


class TestVariableBandwidthFinding:
    def test_quic_tracks_fluctuating_bandwidth_better(self):
        """Fig. 11: unambiguous ACKs track capacity changes faster."""
        scn = emulated(100.0)
        size = 30 * 1024 * 1024
        scn = scn.with_(queue_bytes=100_000)  # short queue, as in Fig. 11
        quic_tputs, tcp_tputs = [], []
        for seed in (1, 2):
            quic_tputs.append(run_bulk_transfer(
                scn, size, "quic", seed=seed,
                variable_bw=(50.0, 150.0, 1.0)).throughput_mbps)
            tcp_tputs.append(run_bulk_transfer(
                scn, size, "tcp", seed=seed,
                variable_bw=(50.0, 150.0, 1.0)).throughput_mbps)
        assert sum(quic_tputs) > sum(tcp_tputs)


class TestMobileFinding:
    def test_quic_gains_diminish_on_motog(self):
        """Finding 3 / Fig. 12: gains shrink or reverse on a slow phone."""
        scn = emulated(50.0)
        web_page = single_object_page(10 * 1024 * 1024)
        desktop = compare_page_load(scn, web_page, runs=3)
        motog = compare_page_load(scn, web_page, runs=3, device=MOTOG)
        assert motog.pct_diff < desktop.pct_diff - 10

    def test_root_cause_is_application_limited_dwell(self):
        """Fig. 13: the server parks in ApplicationLimited on the MotoG."""
        scn = emulated(50.0)
        web_page = single_object_page(10 * 1024 * 1024)
        desktop = run_page_load(scn, web_page, "quic", seed=1, trace=True)
        motog = run_page_load(scn, web_page, "quic", seed=1, trace=True,
                              device=MOTOG)
        d = desktop.server_trace.dwell_fractions().get("ApplicationLimited", 0)
        m = motog.server_trace.dwell_fractions().get("ApplicationLimited", 0)
        assert m > 0.4
        assert d < 0.15


class TestCalibrationFinding:
    def test_macw_dominates_large_transfer_throughput(self):
        """Secs. 4.1/5.4: MACW 107 vs 430 vs 2000 orders throughput."""
        scn = emulated(100.0)
        size = 10 * 1024 * 1024
        results = {}
        for macw in (107, 430, 2000):
            cfg = quic_config(37, macw_packets=macw)
            results[macw] = run_bulk_transfer(
                scn, size, ProtocolSpec.quic(cfg), seed=1).elapsed
        assert results[107] > results[430]
        assert results[430] >= results[2000] * 0.95

    def test_versions_25_to_34_identical_with_same_config(self):
        """Sec. 5.4: same configuration -> near-identical performance."""
        scn = emulated(10.0)
        plts = {}
        for version in (25, 30, 34):
            out = run_page_load(scn, single_object_page(1024 * 1024),
                                ProtocolSpec.quic(version=version), seed=1)
            plts[version] = out.plt
        values = list(plts.values())
        assert max(values) - min(values) < 0.01 * max(values)

    def test_quic37_default_differs_only_via_macw(self):
        """Fig. 15: QUIC 37 at MACW 430 matches QUIC 34."""
        scn = emulated(100.0)
        web_page = single_object_page(10 * 1024 * 1024)
        v34 = run_page_load(scn, web_page, ProtocolSpec.quic(version=34),
                            seed=1).plt
        v37_clamped = run_page_load(
            scn, web_page,
            ProtocolSpec.quic(quic_config(37, macw_packets=430)), seed=1).plt
        assert v37_clamped == pytest.approx(v34, rel=0.08)


class TestProxyFindings:
    def test_tcp_proxy_closes_the_gap(self):
        """Sec. 5.5: a TCP proxy helps TCP at high delay."""
        scn = emulated(10.0, extra_delay_ms=100)
        web_page = single_object_page(200 * 1024)
        direct = run_page_load(scn, web_page, "tcp", seed=1).plt
        proxied = run_page_load(scn, web_page, "tcp", seed=1, proxied=True).plt
        assert proxied < direct

    def test_quic_proxy_hurts_small_objects(self):
        """Fig. 18: losing 0-RTT costs small transfers."""
        scn = emulated(10.0, extra_delay_ms=100)
        web_page = single_object_page(10 * 1024)
        direct = run_page_load(scn, web_page, "quic", seed=1).plt
        proxied = run_page_load(scn, web_page, "quic", seed=1, proxied=True).plt
        assert proxied > direct
