"""Tests for QUIC NACK-threshold loss detection (Fig. 10 mechanics)."""

import pytest

from repro.core.instrumentation import Trace
from repro.quic.config import quic_config
from repro.quic.loss import LossDetector, SentPacketRecord


def make_detector(**cfg_kwargs):
    return LossDetector(quic_config(34).with_(**cfg_kwargs),
                        Trace(enabled=False))


def sent_map(*nums, t=0.0):
    return {n: SentPacketRecord(n, t, 1350) for n in nums}


class TestNackThreshold:
    def test_no_loss_below_threshold(self):
        det = make_detector()
        sent = sent_map(1, 2, 3)
        lost = det.detect(0.1, sent, missing=[1], newly_acked_sorted=[2, 3],
                          largest_acked=3, srtt=0.05)
        assert lost == []
        assert sent[1].nacks == 2

    def test_loss_at_threshold(self):
        det = make_detector()
        sent = sent_map(1, 2, 3, 4)
        lost = det.detect(0.1, sent, missing=[1], newly_acked_sorted=[2, 3, 4],
                          largest_acked=4, srtt=0.05)
        assert [r.pkt_num for r in lost] == [1]
        assert 1 not in sent
        assert det.losses_declared == 1

    def test_nacks_accumulate_across_acks(self):
        det = make_detector()
        sent = sent_map(1, 2, 3, 4)
        assert det.detect(0.1, sent, [1], [2], 2, 0.05) == []
        assert det.detect(0.2, sent, [1], [3], 3, 0.05) == []
        lost = det.detect(0.3, sent, [1], [4], 4, 0.05)
        assert [r.pkt_num for r in lost] == [1]

    def test_higher_threshold_tolerates_deeper_reordering(self):
        det = make_detector(nack_threshold=10)
        sent = sent_map(*range(1, 12))
        lost = det.detect(0.1, sent, [1], list(range(2, 11)), 10, 0.05)
        assert lost == []
        lost = det.detect(0.2, sent, [1], [11], 11, 0.05)
        assert [r.pkt_num for r in lost] == [1]

    def test_packets_at_or_above_largest_acked_safe(self):
        det = make_detector()
        sent = sent_map(5, 6, 7)
        lost = det.detect(0.1, sent, [5, 6, 7], [1, 2, 3], 3, 0.05)
        assert lost == []


class TestSpuriousDetection:
    def test_late_ack_counts_false_loss(self):
        det = make_detector()
        sent = sent_map(1, 2, 3, 4)
        det.detect(0.1, sent, [1], [2, 3, 4], 4, 0.05)
        record = det.note_ack_of_lost(0.2, 1, largest_acked=4)
        assert record is not None
        assert det.false_losses == 1

    def test_unknown_packet_not_spurious(self):
        det = make_detector()
        assert det.note_ack_of_lost(0.2, 99, largest_acked=100) is None

    def test_fixed_threshold_does_not_adapt(self):
        det = make_detector(adaptive_nack_threshold=False)
        sent = sent_map(1, 2, 3, 4)
        det.detect(0.1, sent, [1], [2, 3, 4], 4, 0.05)
        det.note_ack_of_lost(0.2, 1, largest_acked=10)
        assert det.threshold == 3

    def test_adaptive_threshold_raises_to_reorder_depth(self):
        det = make_detector(adaptive_nack_threshold=True)
        sent = sent_map(1, 2, 3, 4)
        det.detect(0.1, sent, [1], [2, 3, 4], 4, 0.05)
        det.note_ack_of_lost(0.2, 1, largest_acked=10)
        assert det.threshold == 10  # depth 9 + 1

    def test_adaptive_threshold_capped(self):
        det = make_detector(adaptive_nack_threshold=True, nack_threshold_cap=20)
        sent = sent_map(1, 2, 3, 4)
        det.detect(0.1, sent, [1], [2, 3, 4], 4, 0.05)
        det.note_ack_of_lost(0.2, 1, largest_acked=500)
        assert det.threshold == 20


class TestTimeBased:
    def test_declaration_deferred_by_quarter_srtt(self):
        det = make_detector(time_based_loss=True)
        sent = sent_map(1, 2, 3, 4, t=0.0)
        lost = det.detect(0.01, sent, [1], [2, 3, 4], 4, srtt=0.1)
        assert lost == []
        assert det.next_eligible_time == pytest.approx(0.01 + 0.025)

    def test_declared_once_deferral_matures(self):
        det = make_detector(time_based_loss=True)
        sent = sent_map(1, 2, 3, 4, t=0.0)
        det.detect(0.01, sent, [1], [2, 3, 4], 4, srtt=0.1)
        # Recheck (no new acks) after the deferral window.
        lost = det.detect(0.04, sent, [1], [], 4, srtt=0.1)
        assert [r.pkt_num for r in lost] == [1]

    def test_late_arrival_cancels_pending_loss(self):
        det = make_detector(time_based_loss=True)
        sent = sent_map(1, 2, 3, 4, t=0.0)
        det.detect(0.01, sent, [1], [2, 3, 4], 4, srtt=0.1)
        # The reordered packet is acked before the deferral matures: the
        # connection removes it from `sent`, so the recheck finds nothing.
        del sent[1]
        lost = det.detect(0.04, sent, [1], [], 4, srtt=0.1)
        assert lost == []
        assert det.false_losses == 0


def test_declared_lost_pruning():
    det = make_detector()
    for n in range(1, 700):
        det.declared_lost[n] = SentPacketRecord(n, 0.0, 1350)
    det._prune(keep=512)
    assert len(det.declared_lost) == 512
    assert min(det.declared_lost) == 188
