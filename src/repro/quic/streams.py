"""QUIC stream state.

Streams are QUIC's unit of multiplexing; each delivers independently, so a
loss on one stream never stalls another — the "no head-of-line blocking"
property the paper contrasts with TCP (Sec. 2.1).  :class:`SendStream`
tracks which byte ranges still need (re)transmission and per-stream flow
credit; :class:`RecvStream` reassembles ranges and reports completion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional, Tuple

from ..transport.util import RangeSet


class SendStream:
    """Outgoing half of a stream: retransmittable ranges + flow credit."""

    def __init__(self, stream_id: int, total_bytes: int,
                 flow_window: int, meta: Any = None,
                 finalized: bool = True) -> None:
        if total_bytes < 0:
            raise ValueError("total_bytes must be >= 0")
        self.stream_id = stream_id
        self.total_bytes = total_bytes
        self.meta = meta
        #: False while more data may still be appended (streaming
        #: responses, e.g. through a proxy); the FIN is withheld.
        self.finalized = finalized
        #: Byte ranges still to be (re)sent, FIFO.  Retransmissions are
        #: pushed to the front so repair data leaves first.
        self._pending: Deque[Tuple[int, int]] = deque()
        if total_bytes > 0:
            self._pending.append((0, total_bytes))
        self.fin_pending = True
        self.fin_sent = False
        self.bytes_sent = 0
        #: Highest offset ever sent (flow-control charge).
        self.max_offset_sent = 0
        #: Peer-granted limit (MaxStreamData).
        self.flow_limit = flow_window
        self.acked = RangeSet()
        self.fin_acked = False
        #: Meta to attach to the first frame of this stream.
        self._meta_pending = meta is not None
        #: True while a range or an owed FIN waits to be sent.  Every
        #: method that changes either keeps it current (they are its only
        #: writers); the connection's round-robin reads it per stream.
        self.has_data_to_send = bool(self._pending) or finalized

    # ------------------------------------------------------------------
    def append(self, nbytes: int) -> None:
        """Grow a streaming (non-finalized) response by ``nbytes``."""
        if self.finalized:
            raise RuntimeError("cannot append to a finalized stream")
        if nbytes <= 0:
            return
        old = self.total_bytes
        self.total_bytes += nbytes
        self._pending.append((old, self.total_bytes))
        # A FIN emitted early (empty stream) must be re-sent later.
        self.fin_sent = False
        self.fin_pending = True
        self.has_data_to_send = True

    def finish(self) -> None:
        """No more data will be appended; the FIN may now be sent."""
        self.finalized = True
        self._refresh_has_data()

    def _refresh_has_data(self) -> None:
        self.has_data_to_send = bool(self._pending) or (
            self.finalized and self.fin_pending and not self.fin_sent)

    @property
    def flow_blocked(self) -> bool:
        """True if new data exists but stream flow control forbids it."""
        if not self._pending:
            return False
        lo, _hi = self._pending[0]
        return lo >= self.max_offset_sent and lo >= self.flow_limit

    def sendable_bytes(self) -> int:
        """Bytes the stream could emit right now under its flow limit."""
        total = 0
        for lo, hi in self._pending:
            if lo >= self.max_offset_sent:
                # New data: limited by flow credit.
                hi = min(hi, self.flow_limit) if self.flow_limit is not None else hi
            if hi > lo:
                total += hi - lo
        return total

    def next_chunk(self, max_bytes: int,
                   new_data_limit: Optional[int] = None
                   ) -> Optional[Tuple[int, int, bool, Any]]:
        """Dequeue up to ``max_bytes`` for transmission.

        Returns ``(offset, length, fin, meta)`` or None.  Retransmission
        ranges (below ``max_offset_sent``) are not flow-limited; new data
        stops at the stream flow limit and at ``new_data_limit`` extra
        bytes (the connection-level flow-control credit).
        """
        fin = False
        meta = None
        while self._pending:
            lo, hi = self._pending[0]
            is_new = lo >= self.max_offset_sent
            limit = hi
            if is_new:
                limit = min(hi, self.flow_limit)
                if new_data_limit is not None:
                    limit = min(limit, lo + new_data_limit)
                if limit <= lo:
                    return None  # flow blocked
            length = min(limit - lo, max_bytes)
            if length <= 0:
                return None
            if lo + length >= hi:
                self._pending.popleft()
                if lo + length < hi:  # pragma: no cover - defensive
                    self._pending.appendleft((lo + length, hi))
            else:
                self._pending[0] = (lo + length, hi)
            self.bytes_sent += length
            end = lo + length
            if end > self.max_offset_sent:
                self.max_offset_sent = end
            if (
                self.finalized
                and end >= self.total_bytes
                and not self._pending
                and self.fin_pending
            ):
                fin = True
                self.fin_sent = True
                self.fin_pending = False
            if self._meta_pending:
                meta = self.meta
                self._meta_pending = False
            if not self._pending:  # the last range just left
                self._refresh_has_data()
            return lo, length, fin, meta
        # Data all sent; emit a bare FIN if still owed (zero-length frame).
        if self.finalized and self.fin_pending and not self.fin_sent:
            self.fin_sent = True
            self.fin_pending = False
            self.has_data_to_send = False
            if self._meta_pending:
                meta = self.meta
                self._meta_pending = False
            return self.max_offset_sent, 0, True, meta
        return None

    def on_range_lost(self, offset: int, length: int, fin: bool) -> None:
        """Requeue a lost range (front of the queue) for retransmission."""
        if length > 0 and not self.acked.covers(offset, offset + length):
            self._pending.appendleft((offset, offset + length))
            if offset == 0 and self.meta is not None:
                # The frame that carried the stream metadata was lost;
                # re-attach it to the retransmission (duplicate delivery
                # is harmless, the receiver keeps the first copy).
                self._meta_pending = True
        if fin and not self.fin_acked:
            self.fin_pending = True
            self.fin_sent = False
        self._refresh_has_data()

    def on_range_acked(self, offset: int, length: int, fin: bool) -> None:
        if length > 0:
            self.acked.add(offset, offset + length)
        if fin:
            self.fin_acked = True

    @property
    def fully_acked(self) -> bool:
        return self.fin_acked and self.acked.covers(0, self.total_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SendStream {self.stream_id} {self.bytes_sent}/{self.total_bytes}B "
            f"limit={self.flow_limit}>"
        )


class RecvStream:
    """Incoming half of a stream: reassembly and completion tracking."""

    def __init__(self, stream_id: int, flow_window: int) -> None:
        self.stream_id = stream_id
        self.received = RangeSet()
        self.fin_offset: Optional[int] = None
        self.meta: Any = None
        self.complete = False
        self.completed_at: Optional[float] = None
        #: Bytes that have passed the client's consume stage (device CPU);
        #: flow-control credit is granted against this, not raw receipt.
        self.consumed = 0
        self.consumed_complete = False
        #: Flow control: highest credit we granted the sender.
        self.granted = flow_window
        self.window = flow_window
        self.first_byte_at: Optional[float] = None

    def on_frame(self, now: float, offset: int, length: int, fin: bool,
                 meta: Any) -> int:
        """Absorb a frame; returns the count of newly received bytes."""
        if meta is not None and self.meta is None:
            self.meta = meta
        new_bytes = self.received.add(offset, offset + length) if length else 0
        if new_bytes and self.first_byte_at is None:
            self.first_byte_at = now
        if fin:
            self.fin_offset = offset + length
        if (
            not self.complete
            and self.fin_offset is not None
            and self.received.covers(0, self.fin_offset)
        ):
            self.complete = True
            self.completed_at = now
        return new_bytes

    @property
    def bytes_received(self) -> int:
        return self.received.total()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecvStream {self.stream_id} {self.bytes_received}B fin={self.fin_offset}>"
