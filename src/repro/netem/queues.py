"""Queue disciplines for the bottleneck link.

The paper's router used token-bucket + droptail (Sec. 3.2), and droptail
is this simulator's default.  Real bottlenecks increasingly run AQM, and
"how would the QUIC/TCP comparison change under AQM?" is a natural
follow-on question — so the link's queue is pluggable:

* :class:`DropTail` — the paper's discipline: reject when full.
* :class:`RED` — random early detection: probabilistic early drops as the
  EWMA queue occupancy climbs between two thresholds.
* :class:`CoDel` — controlled delay: drop at *dequeue* when packets'
  sojourn times stay above ``target`` for longer than ``interval``,
  with the square-root drop-spacing schedule.
* :class:`FQCoDel` — fair queuing + CoDel: packets are hashed into
  per-flow sub-queues served by deficit round robin with the standard
  sparse-flow (new-flow) priority list, and each sub-queue runs its own
  CoDel drop state.

All four expose the same tiny interface consumed by
:class:`~repro.netem.link.Link`: ``enqueue(now, packet) -> bool``,
``dequeue(now) -> Optional[Packet]`` and a ``backlog_bytes`` attribute
(the bytes queued, kept current by ``enqueue``/``dequeue``; the link reads
it once per transmission).  Drops made at dequeue time (CoDel/FQCoDel)
are reported through ``on_drop``.

Drop-accounting invariant (relied on by link stats and tested across
all disciplines): at the moment ``on_drop`` fires, ``backlog_bytes``
no longer includes the dropped packet, and every dropped packet is
reported through the hook exactly once.
"""

from __future__ import annotations

import math
import random
import zlib
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from .packet import Packet

DropHook = Callable[[Packet], None]


class QueueDiscipline:
    """Interface; subclasses keep their own ``backlog_bytes`` current."""

    __slots__ = ("on_drop",)

    def __init__(self) -> None:
        self.on_drop: Optional[DropHook] = None

    def enqueue(self, now: float, packet: Packet) -> bool:  # pragma: no cover
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:  # pragma: no cover
        raise NotImplementedError

    def _drop(self, packet: Packet) -> None:
        if self.on_drop is not None:
            self.on_drop(packet)


class DropTail(QueueDiscipline):
    """The classic FIFO: accept until the byte limit, then tail-drop."""

    __slots__ = ("limit_bytes", "_queue", "backlog_bytes")

    def __init__(self, limit_bytes: Optional[int]) -> None:
        super().__init__()
        self.limit_bytes = limit_bytes
        self._queue: Deque[Packet] = deque()
        self.backlog_bytes = 0

    def enqueue(self, now: float, packet: Packet) -> bool:
        if (self.limit_bytes is not None
                and self.backlog_bytes + packet.size_bytes > self.limit_bytes):
            self._drop(packet)
            return False
        self._queue.append(packet)
        self.backlog_bytes += packet.size_bytes
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.backlog_bytes -= packet.size_bytes
        return packet


class RED(QueueDiscipline):
    """Random Early Detection (byte mode, EWMA average occupancy)."""

    __slots__ = ("limit_bytes", "min_threshold", "max_threshold",
                 "max_probability", "weight", "rng", "_queue",
                 "backlog_bytes", "_avg", "early_drops")

    def __init__(self, limit_bytes: int, *, min_threshold: Optional[int] = None,
                 max_threshold: Optional[int] = None, max_probability: float = 0.1,
                 weight: float = 0.2, rng: Optional[random.Random] = None) -> None:
        super().__init__()
        if limit_bytes <= 0:
            raise ValueError("limit_bytes must be positive")
        self.limit_bytes = limit_bytes
        self.min_threshold = (min_threshold if min_threshold is not None
                              else limit_bytes // 4)
        self.max_threshold = (max_threshold if max_threshold is not None
                              else limit_bytes // 2)
        if not 0 < self.min_threshold < self.max_threshold <= limit_bytes:
            raise ValueError("need 0 < min_th < max_th <= limit")
        self.max_probability = max_probability
        self.weight = weight
        self.rng = rng if rng is not None else random.Random(0)
        self._queue: Deque[Packet] = deque()
        self.backlog_bytes = 0
        self._avg = 0.0
        self.early_drops = 0

    def enqueue(self, now: float, packet: Packet) -> bool:
        self._avg = ((1 - self.weight) * self._avg
                     + self.weight * self.backlog_bytes)
        if self.backlog_bytes + packet.size_bytes > self.limit_bytes:
            self._drop(packet)
            return False
        if self._avg >= self.max_threshold:
            self.early_drops += 1
            self._drop(packet)
            return False
        if self._avg > self.min_threshold:
            fraction = ((self._avg - self.min_threshold)
                        / (self.max_threshold - self.min_threshold))
            if self.rng.random() < fraction * self.max_probability:
                self.early_drops += 1
                self._drop(packet)
                return False
        self._queue.append(packet)
        self.backlog_bytes += packet.size_bytes
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.backlog_bytes -= packet.size_bytes
        return packet


class CoDel(QueueDiscipline):
    """Controlled Delay AQM (RFC 8289, simplified).

    Packets carry their enqueue time; at dequeue, if every packet's
    sojourn has exceeded ``target`` for at least ``interval``, packets
    are dropped with the 1/sqrt(count) spacing schedule until sojourn
    falls back under target.
    """

    __slots__ = ("target", "interval", "limit_bytes", "_queue",
                 "backlog_bytes", "_first_above", "_dropping", "_drop_next",
                 "_drop_count", "codel_drops")

    def __init__(self, target: float = 0.005, interval: float = 0.100,
                 limit_bytes: Optional[int] = 10_000_000) -> None:
        super().__init__()
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        self.target = target
        self.interval = interval
        self.limit_bytes = limit_bytes
        self._queue: Deque[Tuple[float, Packet]] = deque()
        self.backlog_bytes = 0
        self._first_above: Optional[float] = None
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self.codel_drops = 0

    def enqueue(self, now: float, packet: Packet) -> bool:
        if (self.limit_bytes is not None
                and self.backlog_bytes + packet.size_bytes > self.limit_bytes):
            self._drop(packet)
            return False
        self._queue.append((now, packet))
        self.backlog_bytes += packet.size_bytes
        return True

    def _pop(self) -> Tuple[float, Packet]:
        entered, packet = self._queue.popleft()
        self.backlog_bytes -= packet.size_bytes
        return entered, packet

    def dequeue(self, now: float) -> Optional[Packet]:
        while self._queue:
            entered, packet = self._pop()
            sojourn = now - entered
            if sojourn < self.target or not self._queue:
                # Below target (or queue nearly empty): leave drop state.
                self._first_above = None
                if sojourn < self.target:
                    self._dropping = False
                return packet
            if self._first_above is None:
                self._first_above = now + self.interval
                return packet
            if not self._dropping:
                if now >= self._first_above:
                    # Sojourn has been above target for a full interval.
                    self._dropping = True
                    self._drop_count = max(self._drop_count - 2, 1)
                    self._drop_next = now + self.interval / math.sqrt(
                        self._drop_count)
                    self.codel_drops += 1
                    self._drop(packet)
                    continue
                return packet
            if now >= self._drop_next:
                self._drop_count += 1
                self._drop_next = now + self.interval / math.sqrt(
                    self._drop_count)
                self.codel_drops += 1
                self._drop(packet)
                continue
            return packet
        return None


class _FlowQueue:
    """One FQ-CoDel sub-queue: a FIFO plus its own CoDel drop state."""

    __slots__ = ("queue", "bytes", "deficit", "active",
                 "first_above", "dropping", "drop_next", "drop_count")

    def __init__(self) -> None:
        self.queue: Deque[Tuple[float, Packet]] = deque()
        self.bytes = 0
        self.deficit = 0
        self.active = False
        self.first_above: Optional[float] = None
        self.dropping = False
        self.drop_next = 0.0
        self.drop_count = 0


class FQCoDel(QueueDiscipline):
    """Fair queuing with per-flow CoDel (RFC 8290, simplified).

    Packets are hashed by ``flow_id`` (stable crc32, never Python's
    randomised ``hash``) into one of ``flows`` sub-queues.  Sub-queues
    are served by deficit round robin: a flow that becomes active
    joins the *new* (sparse-flow) list and is served ahead of the *old*
    list until it uses up one quantum, which is what gives short flows
    their latency advantage.  Each sub-queue runs the CoDel control law
    of :class:`CoDel` independently.  On overflow the head packet of
    the fattest sub-queue is dropped (not the arriving packet), as in
    the Linux qdisc.
    """

    __slots__ = ("target", "interval", "quantum", "limit_bytes", "flows",
                 "_queues", "_by_flow", "_new", "_old", "backlog_bytes",
                 "codel_drops", "overflow_drops")

    def __init__(self, target: float = 0.005, interval: float = 0.100,
                 quantum: int = 1514, limit_bytes: Optional[int] = 10_000_000,
                 flows: int = 1024) -> None:
        super().__init__()
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        if quantum <= 0 or flows <= 0:
            raise ValueError("quantum and flows must be positive")
        self.target = target
        self.interval = interval
        self.quantum = quantum
        self.limit_bytes = limit_bytes
        self.flows = flows
        self._queues: Dict[int, _FlowQueue] = {}
        #: flow id -> its sub-queue: the crc32 bucket depends on the id
        #: alone, so it is hashed once per flow, not once per packet.
        self._by_flow: Dict[Any, _FlowQueue] = {}
        self._new: Deque[_FlowQueue] = deque()
        self._old: Deque[_FlowQueue] = deque()
        self.backlog_bytes = 0
        self.codel_drops = 0
        self.overflow_drops = 0

    def _bucket(self, packet: Packet) -> _FlowQueue:
        flow_id = packet.flow_id
        fq = self._by_flow.get(flow_id)
        if fq is None:
            key = str(flow_id).encode("utf-8", "replace")
            idx = zlib.crc32(key) % self.flows
            fq = self._queues.get(idx)
            if fq is None:
                fq = _FlowQueue()
                self._queues[idx] = fq
            self._by_flow[flow_id] = fq
        return fq

    def _drop_from_fattest(self) -> bool:
        """Head-drop one packet from the longest sub-queue."""
        fattest: Optional[_FlowQueue] = None
        for fq in self._queues.values():
            if fq.bytes > 0 and (fattest is None or fq.bytes > fattest.bytes):
                fattest = fq
        if fattest is None:
            return False
        _, victim = fattest.queue.popleft()
        fattest.bytes -= victim.size_bytes
        self.backlog_bytes -= victim.size_bytes
        self.overflow_drops += 1
        self._drop(victim)
        return True

    def enqueue(self, now: float, packet: Packet) -> bool:
        if self.limit_bytes is not None:
            while self.backlog_bytes + packet.size_bytes > self.limit_bytes:
                if not self._drop_from_fattest():
                    # Nothing queued and the packet alone exceeds the
                    # limit: reject the arrival itself.
                    self._drop(packet)
                    return False
        fq = self._bucket(packet)
        fq.queue.append((now, packet))
        fq.bytes += packet.size_bytes
        self.backlog_bytes += packet.size_bytes
        if not fq.active:
            fq.active = True
            fq.deficit = self.quantum
            self._new.append(fq)
        return True

    def _codel_pop(self, fq: _FlowQueue, now: float) -> Optional[Packet]:
        """CoDel control law on one sub-queue (mirrors CoDel.dequeue)."""
        while fq.queue:
            entered, packet = fq.queue.popleft()
            fq.bytes -= packet.size_bytes
            self.backlog_bytes -= packet.size_bytes
            sojourn = now - entered
            if sojourn < self.target or not fq.queue:
                fq.first_above = None
                if sojourn < self.target:
                    fq.dropping = False
                return packet
            if fq.first_above is None:
                fq.first_above = now + self.interval
                return packet
            if not fq.dropping:
                if now >= fq.first_above:
                    fq.dropping = True
                    fq.drop_count = max(fq.drop_count - 2, 1)
                    fq.drop_next = now + self.interval / math.sqrt(
                        fq.drop_count)
                    self.codel_drops += 1
                    self._drop(packet)
                    continue
                return packet
            if now >= fq.drop_next:
                fq.drop_count += 1
                fq.drop_next = now + self.interval / math.sqrt(
                    fq.drop_count)
                self.codel_drops += 1
                self._drop(packet)
                continue
            return packet
        return None

    def dequeue(self, now: float) -> Optional[Packet]:
        while True:
            if self._new:
                head_list, is_new = self._new, True
            elif self._old:
                head_list, is_new = self._old, False
            else:
                return None
            fq = head_list[0]
            if fq.deficit <= 0:
                fq.deficit += self.quantum
                head_list.popleft()
                self._old.append(fq)
                continue
            packet = self._codel_pop(fq, now)
            if packet is None:
                # Sub-queue ran dry: a new flow gets one more round on
                # the old list; an old flow goes inactive.
                head_list.popleft()
                if is_new:
                    self._old.append(fq)
                else:
                    fq.active = False
                continue
            fq.deficit -= packet.size_bytes
            return packet


#: AQM labels accepted by :func:`make_queue` (and ``Scenario``-level
#: configuration that funnels into it).
AQM_NAMES = ("droptail", "red", "codel", "fq_codel")


def make_queue(aqm: str, queue_bytes: Optional[int], *,
               rng: Optional[random.Random] = None) -> QueueDiscipline:
    """Build the queue discipline named by an AQM label.

    ``queue_bytes`` becomes the discipline's hard byte limit; ``rng``
    only matters for RED's probabilistic early drops (defaults to a
    fixed seed for determinism).
    """
    name = (aqm or "droptail").lower().replace("-", "_")
    if name in ("droptail", "fifo", "tail"):
        return DropTail(queue_bytes)
    if name == "red":
        if queue_bytes is None:
            raise ValueError("RED needs a finite queue_bytes limit")
        return RED(queue_bytes, rng=rng)
    if name == "codel":
        return CoDel(limit_bytes=queue_bytes)
    if name in ("fq_codel", "fqcodel"):
        return FQCoDel(limit_bytes=queue_bytes)
    raise ValueError(
        f"unknown AQM {aqm!r}; expected one of {', '.join(AQM_NAMES)}")
