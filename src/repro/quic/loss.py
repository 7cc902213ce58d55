"""QUIC loss detection (paper Secs. 2.1 and 5.2).

GQUIC-34 declares a packet lost once ``nack_threshold`` (default 3)
packets with *higher* packet numbers have been acknowledged — a fixed
reordering threshold.  The paper shows (Fig. 10) that jitter-induced
reordering deeper than this threshold makes QUIC declare floods of false
losses, and that raising the threshold restores performance; it also
notes the QUIC team was experimenting with adaptive and time-based
variants.  All three policies are implemented here:

* fixed threshold (``nack_threshold``),
* adaptive threshold (``adaptive_nack_threshold``): on each spurious
  retransmit, raise the threshold to the observed reorder depth + 1
  (the DSACK-style adaptation TCP gets from RR-TCP),
* time-based (``time_based_loss``): once the NACK threshold is met the
  declaration is *deferred* by 1/4 smoothed RTT; a late (reordered)
  arrival inside that window cancels it — Chromium's "loss timeout"
  experiment.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.instrumentation import Trace
from .config import QuicConfig


class SentPacketRecord:
    """Book-keeping for one transmitted retransmittable packet.

    A hand-rolled ``__slots__`` class (not a dataclass), like the other
    per-packet objects: one is built for every packet sent.
    """

    __slots__ = ("pkt_num", "sent_time", "size_bytes", "frames", "is_probe",
                 "nacks", "loss_eligible_at")

    def __init__(self, pkt_num: int, sent_time: float, size_bytes: int,
                 frames: Optional[List[Any]] = None, is_probe: bool = False,
                 nacks: int = 0,
                 loss_eligible_at: Optional[float] = None) -> None:
        self.pkt_num = pkt_num
        self.sent_time = sent_time
        self.size_bytes = size_bytes
        self.frames = frames if frames is not None else []
        self.is_probe = is_probe
        self.nacks = nacks
        #: Under time-based loss detection: when the pending loss
        #: declaration matures (None while the NACK threshold has not been
        #: reached).
        self.loss_eligible_at = loss_eligible_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SentPacketRecord #{self.pkt_num} {self.size_bytes}B "
                f"nacks={self.nacks}>")


class LossDetector:
    """NACK-threshold (and optionally time-based) loss declaration."""

    def __init__(self, config: QuicConfig, trace: Trace) -> None:
        self.config = config
        self.trace = trace
        self.threshold = config.nack_threshold
        #: When the earliest deferred (time-based) declaration matures;
        #: the connection schedules a recheck at this time.
        self.next_eligible_time: Optional[float] = None
        #: Packets declared lost, kept briefly to detect spurious calls.
        self.declared_lost: Dict[int, SentPacketRecord] = {}
        self.losses_declared = 0
        self.false_losses = 0

    def detect(self, now: float, sent: Dict[int, SentPacketRecord],
               missing: List[int], newly_acked_sorted: List[int],
               largest_acked: int, srtt: float) -> List[SentPacketRecord]:
        """Update NACK counts after an ACK; return newly lost records.

        ``missing`` are the still-unacked packet numbers below
        ``largest_acked`` (the "holes" the connection computed from the
        peer's cumulative ack ranges); ``newly_acked_sorted`` are the
        packet numbers this ACK newly covered, ascending.
        """
        self.next_eligible_time = None
        lost: List[SentPacketRecord] = []
        for pkt_num in missing:
            record = sent.get(pkt_num)
            if record is None or pkt_num >= largest_acked:
                continue
            if newly_acked_sorted:
                # How many of the newly acked packets have higher numbers?
                record.nacks += self._count_higher(newly_acked_sorted, pkt_num)
            if record.nacks < self.threshold:
                continue
            if self.config.time_based_loss:
                # Defer the declaration by 1/4 SRTT: a reordered arrival
                # inside the window cancels it (Chromium's experiment).
                if record.loss_eligible_at is None:
                    record.loss_eligible_at = now + 0.25 * srtt
                if now < record.loss_eligible_at:
                    if (self.next_eligible_time is None
                            or record.loss_eligible_at < self.next_eligible_time):
                        self.next_eligible_time = record.loss_eligible_at
                    continue
            lost.append(record)
        for record in lost:
            del sent[record.pkt_num]
            self.declared_lost[record.pkt_num] = record
            self.losses_declared += 1
            self.trace.log(now, "loss", record.pkt_num)
        self._prune()
        return lost

    def note_ack_of_lost(self, now: float, pkt_num: int,
                         largest_acked: int) -> Optional[SentPacketRecord]:
        """An ACK arrived for a packet we had declared lost: spurious.

        Returns the original record (so duplicate accounting can occur)
        and, under the adaptive policy, raises the NACK threshold to the
        observed reordering depth + 1.
        """
        record = self.declared_lost.pop(pkt_num, None)
        if record is None:
            return None
        self.false_losses += 1
        self.trace.log(now, "false_loss", pkt_num)
        if self.config.adaptive_nack_threshold:
            depth = max(largest_acked - pkt_num, record.nacks)
            self.threshold = min(
                max(self.threshold, depth + 1), self.config.nack_threshold_cap
            )
        return record

    @staticmethod
    def _count_higher(acked_sorted: List[int], pkt_num: int) -> int:
        """Number of entries in ``acked_sorted`` strictly above ``pkt_num``."""
        import bisect

        return len(acked_sorted) - bisect.bisect_right(acked_sorted, pkt_num)

    def _prune(self, keep: int = 512) -> None:
        if len(self.declared_lost) > keep:
            for num in sorted(self.declared_lost)[: len(self.declared_lost) - keep]:
                del self.declared_lost[num]
