"""Tests for the RTT estimator (RFC 6298 + windowed minimum)."""

import pytest

from repro.transport.rtt import RttEstimator


class TestSrtt:
    def test_first_sample_initialises(self):
        est = RttEstimator(initial_rtt=0.1)
        est.on_sample(0.05, now=0.0)
        assert est.smoothed_rtt == pytest.approx(0.05)
        assert est.rttvar == pytest.approx(0.025)

    def test_before_samples_uses_initial(self):
        est = RttEstimator(initial_rtt=0.2)
        assert est.smoothed_rtt == 0.2

    def test_ewma_update(self):
        est = RttEstimator()
        est.on_sample(0.1, now=0.0)
        est.on_sample(0.2, now=0.1)
        # srtt = 7/8*0.1 + 1/8*0.2
        assert est.smoothed_rtt == pytest.approx(0.1125)

    def test_converges_to_stable_rtt(self):
        est = RttEstimator()
        for i in range(100):
            est.on_sample(0.05, now=i * 0.05)
        assert est.smoothed_rtt == pytest.approx(0.05, rel=1e-3)
        assert est.rttvar < 0.001

    def test_nonpositive_sample_ignored(self):
        est = RttEstimator()
        est.on_sample(-0.1, now=0.0)
        est.on_sample(0.0, now=0.0)
        assert est.samples == 0


class TestAckDelay:
    def test_ack_delay_subtracted(self):
        est = RttEstimator()
        est.on_sample(0.05, now=0.0)  # establishes min 0.05
        est.on_sample(0.10, now=0.1, ack_delay=0.04)
        assert est.latest == pytest.approx(0.06)

    def test_ack_delay_not_pushed_below_min(self):
        est = RttEstimator()
        est.on_sample(0.05, now=0.0)
        # Subtracting would give 0.02 < min 0.05: keep the raw sample.
        est.on_sample(0.06, now=0.1, ack_delay=0.04)
        assert est.latest == pytest.approx(0.06)


class TestMinRtt:
    def test_min_tracks_smallest(self):
        est = RttEstimator()
        for rtt in (0.08, 0.05, 0.09):
            est.on_sample(rtt, now=0.0)
        assert est.min_rtt() == pytest.approx(0.05)

    def test_window_expires_old_min(self):
        est = RttEstimator(min_rtt_window=1.0)
        est.on_sample(0.01, now=0.0)
        for i in range(20):
            est.on_sample(0.05, now=0.2 + i * 0.2)
        assert est.min_rtt() == pytest.approx(0.05)

    def test_min_uses_raw_not_ack_delay_adjusted(self):
        est = RttEstimator()
        est.on_sample(0.10, now=0.0, ack_delay=0.0)
        assert est.min_rtt() == pytest.approx(0.10)


class TestRto:
    def test_rto_floor(self):
        est = RttEstimator()
        for i in range(50):
            est.on_sample(0.01, now=i * 0.01)
        assert est.retransmission_timeout(min_rto=0.2) == 0.2

    def test_rto_tracks_variance(self):
        est = RttEstimator()
        est.on_sample(0.1, now=0.0)
        rto = est.retransmission_timeout(min_rto=0.0)
        assert rto == pytest.approx(0.1 + 4 * 0.05)

    def test_rto_ceiling(self):
        est = RttEstimator()
        est.on_sample(50.0, now=0.0)
        assert est.retransmission_timeout(max_rto=60.0) == 60.0

    def test_invalid_initial_rtt(self):
        with pytest.raises(ValueError):
            RttEstimator(initial_rtt=0.0)
