"""Integration tests: the paper's key findings must hold in the simulator.

Each test encodes one bullet from the paper's Sec. 1 findings list (or a
Sec. 5 claim) by judging its row of :data:`repro.core.claims.CLAIMS` — the
bounds the figure benchmarks apply — on the benchmark's own runner calls
over a smaller grid, naming the checks that carry its finding.
"""

from functools import lru_cache

from benchmarks.test_fig07_zero_rtt import zero_rtt_heatmap
from benchmarks.test_fig10_reordering import reordering_sweep
from benchmarks.test_fig11_variable_bw import variable_bw_throughputs
from benchmarks.test_fig12_mobile import device_heatmaps
from benchmarks.test_fig13_state_dwell import dwell_runs
from benchmarks.test_fig15_macw import macw_grid
from benchmarks.test_fig17_tcp_proxy import CONDITIONS, proxy_grids
from benchmarks.test_fig18_quic_proxy import quic_proxy_grid
from benchmarks.test_sec54_versions import version_sweep
from benchmarks.test_tab04_fairness import MIXES, fairness_table
from repro.core.calibration import calibrate_macw
from repro.core.claims import judge
from repro.core.runner import build_plt_heatmap
from repro.devices import DESKTOP, MOTOG
from repro.http import page, single_object_page
from repro.netem import emulated

HIGH_DELAY = CONDITIONS[2:]  # the +100 ms row of Figs. 17/18


def _holds(stem, result, *checks):
    verdict = judge(stem, result)
    assert verdict.passed, verdict.render()
    assert set(checks) <= set(verdict.judged), verdict.render()


def _grid(scenario, pages, runs=5):  # the paper's 10 rounds halved, for speed
    return build_plt_heatmap("tier-1", [scenario], pages, runs=runs)


@lru_cache(maxsize=None)
def _reordering():
    return reordering_sweep(thresholds=(3, 50))


@lru_cache(maxsize=None)
def _fairness():
    return fairness_table(MIXES[:3], seeds=(1,), duration=30.0)


class TestDesktopFindings:
    def test_quic_outperforms_tcp_on_clean_links(self):
        """Finding 1: 'QUIC outperforms TCP+HTTPS in nearly every scenario'.

        One cell, 10 Mbps x 200 KB: QUIC must win it significantly, by > 10 %."""
        _holds("fig06a_plt_sizes", _grid(emulated(10.0), [single_object_page(200 * 1024)]),
               "favouring_fraction", "significant_fraction", "mean_gain_pct")

    def test_quic_gain_largest_for_small_objects(self):
        """0-RTT dominates when the transfer is a handful of packets."""
        sizes = [single_object_page(kb * 1024) for kb in (5, 1024)]
        _holds("fig06a_plt_sizes", _grid(emulated(10.0), sizes), "small_minus_large_gain_pct")

    def test_quic_outperforms_under_loss(self):
        """Fig. 8a: better loss recovery and no transport HOL blocking.

        Random loss makes individual runs noisy, so this cell gets more
        rounds (the full bench uses the paper's 10+ rounds per cell)."""
        _holds("fig08a_sizes_loss1pct", _grid(emulated(50.0, loss_pct=1.0),
                                              [single_object_page(1024 * 1024)], runs=14),
               "favouring_fraction", "mean_gain_pct")

    def test_many_small_objects_is_quics_weak_spot(self):
        """Sec. 5.2: large numbers of small objects favour TCP (HSS exit).

        The gain must at least collapse versus the single-object case."""
        counts = [page(n, 10 * 1024) for n in (1, 200)]
        _holds("fig06b_plt_counts", _grid(emulated(50.0), counts), "single_minus_many_gain_pct")

    def test_zero_rtt_benefit_isolated(self):
        """Fig. 7: 0-RTT helps small objects; insignificant for 10 MB."""
        _holds("fig07_zero_rtt", zero_rtt_heatmap((10.0,), (10, 10_240), runs=3),
               "small_object_gain_pct", "large_object_gain_pct")


class TestReorderingFinding:
    def test_quic_collapses_under_reordering_tcp_does_not(self):
        """Finding 2 / Fig. 10: jitter-reordered packets are false losses
        for QUIC's fixed NACK threshold; TCP's DSACK adapts."""
        _holds("fig10_reordering", _reordering(),
               "default_over_tcp_elapsed", "default_false_losses")

    def test_raising_nack_threshold_restores_quic(self):
        """Fig. 10: larger thresholds progressively repair performance."""
        _holds("fig10_reordering", _reordering(), "largest_over_default_elapsed")


class TestFairnessFinding:
    def test_quic_takes_twice_its_share(self):
        """Table 4: ~2.71 vs 1.62 Mbps on a 5 Mbps bottleneck."""
        _holds("tab04_fairness", _fairness(), "quic_over_tcp_mbps")

    def test_quic_holds_majority_against_two_tcp(self):
        """Table 4: QUIC keeps >50% even vs TCPx2."""
        _holds("tab04_fairness", _fairness(), "quic_share_vs_tcpx2")

    def test_two_quic_flows_are_fair(self):
        """Sec. 5.1: QUIC vs QUIC is fair."""
        _holds("tab04_fairness", _fairness(), "quic_vs_quic_balance")


class TestVariableBandwidthFinding:
    def test_quic_tracks_fluctuating_bandwidth_better(self):
        """Fig. 11: unambiguous ACKs track capacity changes faster."""
        _holds("fig11_variable_bw", variable_bw_throughputs(runs=2), "quic_over_tcp_tput")


class TestMobileFinding:
    def test_quic_gains_diminish_on_motog(self):
        """Finding 3 / Fig. 12: gains shrink or reverse on a slow phone."""
        _holds("fig12_mobile",
               device_heatmaps((DESKTOP, MOTOG), (50.0,), (10_000,), runs=2),
               "desktop_minus_motog_gain_pct")

    def test_root_cause_is_application_limited_dwell(self):
        """Fig. 13: the server parks in ApplicationLimited on the MotoG."""
        _holds("fig13_state_dwell", dwell_runs(), "motog_app_limited", "desktop_app_limited")


class TestCalibrationFinding:
    def test_macw_dominates_large_transfer_throughput(self):
        """Secs. 4.1/5.4: MACW 107 vs 430 vs 2000 orders throughput."""
        _holds("fig02_macw_search",
               calibrate_macw((107, 430, 2000), scenario=emulated(100.0), runs=1),
               "macw107_over_macw430_plt", "macw430_over_largest_plt")

    def test_versions_25_to_34_identical_with_same_config(self):
        """Sec. 5.4: same configuration -> near-identical performance."""
        _holds("sec54_versions", version_sweep((25, 30, 34), runs=1),
               "fixed_config_spread")

    def test_quic37_default_differs_only_via_macw(self):
        """Fig. 15: QUIC 37 at MACW 430 matches QUIC 34."""
        _holds("fig15_macw", macw_grid((100.0,), (10_000,), runs=2),
               "v37_macw430_vs_v34_delta")


class TestProxyFindings:
    def test_tcp_proxy_closes_the_gap(self):
        """Sec. 5.5: a TCP proxy helps TCP at high delay."""
        _holds("fig17_tcp_proxy", proxy_grids(HIGH_DELAY, (200,), runs=2),
               "high_delay_proxy_gap_closed_pct")

    def test_quic_proxy_hurts_small_objects(self):
        """Fig. 18: losing 0-RTT costs small transfers."""
        _holds("fig18_quic_proxy", quic_proxy_grid(HIGH_DELAY, (10,), runs=2),
               "min_10kb_direct_gain_pct")
