"""Tests for the analytical CC models and ``repro validate``.

Covers the closed-form scaling laws (Mathis square-root, Cubic's
p^(-3/4), BBR's BDP bound), the regime-bounded prediction, the
streaming fit accumulator, the validate CLI exit codes, the report
sections — and the headline acceptance check: an intentionally
mis-tuned kernel (wrong beta) is flagged DIVERGENT by the oracle while
the stock kernels pass within tolerance.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main as cli_main
from repro.core.models import (
    DEFAULT_TOLERANCE,
    FitCell,
    ModelFitAccumulator,
    REGIME_CAPACITY,
    REGIME_LOSS,
    REGIME_WINDOW,
    aimd_rate,
    bbr_rate,
    cubic_rate,
    fit_records,
    goodput_capacity,
    oracle_requests,
    predict_rate,
    render_model_fit_table,
)
from repro.core.report import build_store_report
from repro.store import ShardStore
from repro.sweep import run_requests
from repro.transport.cc import kernels
from repro.transport.flowtable import QUIC_PARAMS, TCP_PARAMS

MSS, RTT = 1350.0, 0.04


class TestClosedForms:
    def test_mathis_constant(self):
        # beta=1/2, alpha=1 collapses to (mss/rtt) * sqrt(3/(2p)).
        p = 0.01
        expected = MSS / RTT * math.sqrt(3.0 / (2.0 * p))
        assert aimd_rate(MSS, RTT, p) == pytest.approx(expected)

    def test_aimd_inverse_sqrt_loss(self):
        assert aimd_rate(MSS, RTT, 0.01) == \
            pytest.approx(2.0 * aimd_rate(MSS, RTT, 0.04))

    def test_aimd_gentler_beta_is_faster(self):
        assert aimd_rate(MSS, RTT, 0.01, beta=0.85) > \
            aimd_rate(MSS, RTT, 0.01, beta=0.5)

    def test_zero_loss_is_unbounded(self):
        assert aimd_rate(MSS, RTT, 0.0) == math.inf
        assert cubic_rate(MSS, RTT, 0.0) == math.inf

    def test_cubic_loss_exponent(self):
        # In the pure-cubic regime rate scales as p^(-3/4); suppress the
        # TCP-friendly floor to see the raw sawtooth law.
        lo = cubic_rate(MSS, 0.4, 0.0004, alpha=1e-9)
        hi = cubic_rate(MSS, 0.4, 0.004, alpha=1e-9)
        assert lo / hi == pytest.approx(10 ** 0.75, rel=1e-6)

    def test_cubic_tcp_friendly_floor(self):
        # At high loss / low RTT the Reno region dominates Cubic.
        assert cubic_rate(MSS, 0.01, 0.05) == pytest.approx(
            aimd_rate(MSS, 0.01, 0.05, beta=0.7,
                      alpha=3.0 * 0.3 / 1.7))

    def test_bbr_is_loss_agnostic_to_first_order(self):
        link = goodput_capacity(50e6)
        assert bbr_rate(MSS, RTT, 0.01, link_rate=link) == \
            pytest.approx(link * 0.99)
        # Only the delivered fraction, not the rate, reacts to loss.
        assert bbr_rate(MSS, RTT, 0.02, link_rate=link) > 0.9 * link


class TestPredictRate:
    def test_loss_limited_regime(self):
        pred = predict_rate("reno", TCP_PARAMS, rtt=RTT, loss_rate=0.02,
                            link_rate_bps=50e6)
        assert pred.regime == REGIME_LOSS
        assert pred.rate < goodput_capacity(50e6)

    def test_capacity_limited_regime(self):
        pred = predict_rate("bbr", TCP_PARAMS, rtt=RTT, loss_rate=0.01,
                            link_rate_bps=10e6)
        assert pred.regime == REGIME_CAPACITY

    def test_window_limited_regime(self):
        from dataclasses import replace

        # A tiny MACW on a fat link binds before capacity does.
        pred = predict_rate("reno", replace(QUIC_PARAMS, max_cwnd=20.0),
                            rtt=RTT, loss_rate=0.0001,
                            link_rate_bps=1000e6)
        assert pred.regime == REGIME_WINDOW
        assert pred.rate == pytest.approx(20 * 1350.0 / RTT)

    def test_quic_params_predict_more_than_tcp(self):
        quic = predict_rate("reno", QUIC_PARAMS, rtt=RTT, loss_rate=0.02,
                            link_rate_bps=50e6)
        tcp = predict_rate("reno", TCP_PARAMS, rtt=RTT, loss_rate=0.02,
                           link_rate_bps=50e6)
        # The paper's asymmetry: QUIC's beta 0.85 out-competes TCP's 0.7.
        assert quic.rate > tcp.rate

    def test_unknown_kernel_raises(self):
        with pytest.raises(ValueError):
            predict_rate("vegas", TCP_PARAMS, rtt=RTT, loss_rate=0.01,
                         link_rate_bps=50e6)


class TestFitCell:
    def test_tolerance_band_is_symmetric(self):
        cell = FitCell(cc="reno", proto="tcp", rate_mbps=50.0, rtt=RTT,
                       loss_rate=0.01, observed=160.0, predicted=100.0,
                       regime=REGIME_LOSS, runs=1, gated=True)
        assert cell.within(0.6)
        assert not cell.within(0.5)
        low = FitCell(cc="reno", proto="tcp", rate_mbps=50.0, rtt=RTT,
                      loss_rate=0.01, observed=100.0 / 1.7,
                      predicted=100.0, regime=REGIME_LOSS, runs=1,
                      gated=True)
        assert low.within(0.8)
        assert not low.within(0.6)

    def test_render_marks_divergence(self):
        cell = FitCell(cc="reno", proto="tcp", rate_mbps=50.0, rtt=RTT,
                       loss_rate=0.01, observed=500.0, predicted=100.0,
                       regime=REGIME_LOSS, runs=1, gated=True)
        table = render_model_fit_table([cell])
        assert "DIVERGENT" in table
        info = FitCell(cc="reno", proto="tcp", rate_mbps=50.0, rtt=RTT,
                       loss_rate=0.0, observed=500.0, predicted=math.inf,
                       regime=REGIME_CAPACITY, runs=1, gated=False)
        assert "(info)" in render_model_fit_table([info])


def oracle_grid_records(ccs=("reno",), loss_rates=(0.02,), store=None):
    return run_requests(oracle_requests(ccs=ccs, loss_rates=loss_rates),
                        store=store)


class TestFitAccumulator:
    def test_mixed_share_and_incomplete_skipped(self):
        records = oracle_grid_records()
        fit = ModelFitAccumulator()
        for record in records:
            mixed = record.request.with_(
                manyflow=record.request.manyflow.with_(tcp_share=0.5))
            clone = type(record)(request=mixed, plt=record.plt,
                                 complete=True, metrics=record.metrics)
            fit.add_record(clone)
            incomplete = type(record)(request=record.request,
                                      complete=False,
                                      metrics=record.metrics)
            fit.add_record(incomplete)
        assert not fit

    def test_averages_across_seeds(self):
        records = oracle_grid_records()
        twice = ModelFitAccumulator()
        for record in records + records:
            twice.add_record(record)
        merged = {(c.cc, c.proto): c for c in twice.cells()}
        single = {(c.cc, c.proto): c
                  for c in fit_records(records).cells()}
        for key, cell in merged.items():
            assert cell.runs == 2 * single[key].runs
            assert cell.observed == pytest.approx(single[key].observed)


class TestMisTunedKernelIsFlagged:
    def test_wrong_beta_diverges(self, monkeypatch):
        """The acceptance check: halving reno's decrease factor drops
        steady-state throughput ~2x below the model, outside tolerance —
        the oracle catches a CC bug the goldens would only catch if
        nobody re-baselined them."""
        def buggy_on_loss(self, now=0.0, in_flight=0.0):
            cwnd = max(self.cwnd * (self.beta * 0.5), self.min_cwnd)
            self.cwnd = cwnd
            self.ssthresh = cwnd

        monkeypatch.setattr(kernels.RenoKernel, "on_loss", buggy_on_loss)
        cells = fit_records(oracle_grid_records()).cells()
        # QUIC's beta shifts 0.85 -> 0.425, far outside the band; that
        # one divergent cell is enough to flip `repro validate` red.
        quic = [cell for cell in cells if cell.proto == "quic"]
        assert quic and all(
            not cell.within(DEFAULT_TOLERANCE) for cell in quic)
        assert "DIVERGENT" in render_model_fit_table(cells)


class TestValidateCli:
    def test_from_store_passes_and_tightens(self, tmp_path, capsys):
        store_path = tmp_path / "store"
        store = ShardStore(store_path)
        oracle_grid_records(store=store)
        store.close()
        assert cli_main(["validate", "--from-store",
                         str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "| reno | quic |" in out
        assert "DIVERGENT" not in out
        # An absurdly tight band must flip the exit code.
        assert cli_main(["validate", "--from-store", str(store_path),
                         "--tolerance", "0.0001"]) == 1
        assert "DIVERGENT" in capsys.readouterr().out

    def test_missing_store_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["validate", "--from-store",
                         str(tmp_path / "absent")]) == 1


class TestReportSections:
    def test_model_fit_section(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        oracle_grid_records(store=store)
        report = build_store_report(store)
        assert "## Model fit (analytical CC oracles)" in report
        assert "| reno | quic |" in report

    def test_dwell_section_from_traced_run(self, tmp_path):
        from repro.core.executor import ProtocolSpec, RunRequest
        from repro.http import single_object_page
        from repro.netem import emulated

        store = ShardStore(tmp_path / "store")
        request = RunRequest(scenario=emulated(10.0),
                             page=single_object_page(200 * 1024),
                             protocol=ProtocolSpec.quic(), trace=True)
        records = run_requests([request], store=store)
        assert any(k.startswith("dwell:") for k in records[0].metrics)
        report = build_store_report(store)
        assert "## Inferred CC states" in report
        assert "SlowStart" in report or "CongestionAvoidance" in report

    def test_untraced_store_has_no_dwell_section(self, tmp_path):
        store = ShardStore(tmp_path / "store")
        oracle_grid_records(store=store)
        assert "Inferred CC states" not in build_store_report(store)
