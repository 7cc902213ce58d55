"""Batched bottleneck-link model for the many-flow fast path.

The classic :class:`~repro.netem.link.Link` schedules one simulator
heap event per packet occurrence — transmission start, transmission
done, delivery — which is the right fidelity for protocol-level
experiments but dominates wall time once a single bottleneck carries
~1000 flows.  :class:`AggregateLink` models the *same* link semantics
(FIFO serialisation at ``rate_bps``, a pluggable
:class:`~repro.netem.queues.QueueDiscipline` consulted at enqueue and
dequeue with the correct logical clock, Bernoulli loss drawn at egress
in dequeue order, constant one-way ``delay``) but produces its work as
*time-ordered internal items* — a transmission-completion scalar and a
monotone delivery deque — that the engine drains in batches: one heap
event services a whole burst instead of one event per packet.

Exactness is by construction, not approximation: every item carries
its exact logical timestamp, all queueing/sojourn/RTT arithmetic uses
those timestamps, and the processing order of items is the merged
logical-time order — identical whether the engine wakes once per item
("per-packet mode", quantum 0) or once per batch.  The fixed-seed
identity contract ``benchmarks/sim_manyflow.py`` checks rests on this.

Restrictions versus the classic link: no jitter and no reordering
(both would break the delivery deque's monotonicity); loss is
supported.  Scenarios with jitter/reordering keep using the classic
per-packet path.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Optional, Tuple

from .queues import QueueDiscipline

__all__ = ["AggPacket", "AggregateLink"]


class AggPacket:
    """A packet in the aggregate fast path: flow id + index + size.

    Far lighter than :class:`~repro.netem.packet.Packet` (no addresses,
    no global id counter); exposes the two attributes queue disciplines
    consult — ``size_bytes`` and ``flow_id``.
    """

    __slots__ = ("flow_id", "idx", "size_bytes", "retx")

    def __init__(self, flow_id: int, idx: int, size_bytes: int,
                 retx: bool = False) -> None:
        self.flow_id = flow_id
        self.idx = idx
        self.size_bytes = size_bytes
        self.retx = retx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " retx" if self.retx else ""
        return f"<AggPacket f{self.flow_id}#{self.idx} {self.size_bytes}B{tag}>"


class AggregateLink:
    """One shaped, lossy, FIFO direction of a bottleneck link.

    The caller (the many-flow engine) owns the clock: it must call
    :meth:`advance` for the time returned by :attr:`next_completion`
    before that logical time is passed, and drain :attr:`deliveries`
    in merged order with its other work queues.
    """

    __slots__ = ("rate_bps", "delay", "queue", "loss_rate", "_loss_rng",
                 "_busy", "_free_at", "_inflight", "deliveries",
                 "offered_packets", "tx_completions", "launched_packets",
                 "delivered_bytes", "loss_drops")

    def __init__(self, rate_bps: float, delay: float,
                 queue: QueueDiscipline, *, loss_rate: float = 0.0,
                 loss_rng: Optional[random.Random] = None) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.rate_bps = rate_bps
        self.delay = delay
        self.queue = queue
        self.loss_rate = loss_rate
        self._loss_rng = loss_rng if loss_rng is not None else random.Random(0)
        self._busy = False
        self._free_at = 0.0
        self._inflight: Optional[AggPacket] = None
        #: Launched packets awaiting delivery, as ``(t_deliver, packet)``
        #: — monotone in time because delay is constant and the link is
        #: FIFO, so a deque (not a heap) suffices.
        self.deliveries: Deque[Tuple[float, AggPacket]] = deque()
        self.offered_packets = 0
        self.tx_completions = 0
        self.launched_packets = 0
        self.delivered_bytes = 0
        self.loss_drops = 0

    # ------------------------------------------------------------------
    @property
    def next_completion(self) -> Optional[float]:
        """Logical time the in-flight transmission ends, or None."""
        return self._free_at if self._busy else None

    def offer(self, now: float, packet: AggPacket) -> bool:
        """Enqueue ``packet`` at logical time ``now``.

        Mirrors ``Link.send``: the discipline may tail-drop; if the
        line is idle, transmission starts immediately (which may itself
        trigger dequeue-time AQM drops at clock ``now``).
        """
        self.offered_packets += 1
        if not self.queue.enqueue(now, packet):
            return False
        if not self._busy:
            self._start_transmission(now)
        return True

    def _start_transmission(self, now: float) -> None:
        packet = self.queue.dequeue(now)
        if packet is None:
            self._busy = False
            self._inflight = None
            return
        self._busy = True
        self._inflight = packet
        self._free_at = now + packet.size_bytes * 8.0 / self.rate_bps

    def advance(self) -> None:
        """Process the pending transmission completion.

        At ``next_completion`` the serialised packet launches — the
        egress loss draw happens here, in dequeue order, exactly as the
        classic link draws at ``_launch`` — and the next queued packet
        (if any) starts serialising at the same logical instant.
        """
        packet = self._inflight
        if packet is None:  # pragma: no cover - engine misuse guard
            raise RuntimeError("advance() called on an idle link")
        now = self._free_at
        self.tx_completions += 1
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            self.loss_drops += 1
        else:
            self.launched_packets += 1
            self.deliveries.append((now + self.delay, packet))
        self._start_transmission(now)

    def pop_delivery(self) -> Tuple[float, AggPacket]:
        """Remove and return the earliest pending delivery."""
        packet = self.deliveries.popleft()
        self.delivered_bytes += packet[1].size_bytes
        return packet
