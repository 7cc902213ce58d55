"""Emulated links: rate limiting, queueing, delay, jitter, loss, reordering.

This module reimplements the subset of Linux ``tc``/``netem`` behaviour the
paper's router used (Sec. 3.2 of the paper):

* **Token-bucket rate limiting (TBF)** — modelled as a serialising
  transmitter: the link is busy for ``size * 8 / rate`` seconds per packet
  and excess packets wait in a finite droptail queue.  This is equivalent
  to a TBF whose bucket is one MTU, which is the regime the paper
  calibrated its queue/bucket sizes to (flows achieve close to the cap
  without huge bursts).
* **Droptail buffer** — ``queue_bytes`` bounds the backlog; the 30 KB
  buffer of the fairness experiments (Table 4) is this knob.
* **netem delay + jitter** — every packet independently receives
  ``delay ± U(0, jitter)`` of propagation latency and is delivered at its
  own computed arrival time.  Exactly like ``netem``, this *re-orders*
  packets when jitter exceeds packet spacing — the behaviour behind the
  paper's Fig. 10 finding that QUIC melts down under reordering.
* **Bernoulli loss** — i.i.d. drops with probability ``loss_rate``,
  applied at the egress of the queue (as ``netem`` does on the router,
  deliberately *not* at the endpoint; see Sec. 3.2's pitfall discussion).
* **Explicit reordering** — ``reorder_prob`` holds a packet back by
  ``reorder_extra`` seconds, matching the measured reordering rates of the
  cellular networks in Table 5.
* **Variable bandwidth** — :class:`BandwidthSchedule` re-draws the rate on
  a fixed period within a range (Fig. 11's 50–150 Mbps fluctuation).

Event model: a packet's fate is decided when its transmission *starts*.
``_transmit_next`` dequeues it, fixes the instant it leaves the wire
(``_free_at = now + size * 8 / rate``), draws loss / jitter / reordering
(the link's draws are FIFO either way) and posts the delivery at
``(now + tx) + latency`` — the same two additions, in the same order, as
launching at the end of serialisation, so delivery times are
bit-identical.  A completion event (``_transmit_next`` again) exists only
while a successor waits, so an uncongested hop costs one event per packet.

Per-hop cost: the link pushes its delivery and completion entries onto
the simulator's heap itself (one ``(time, seq)`` draw each, exactly what
``Simulator.post_at`` would draw), and ``_deliver`` hands the packet to
the far node's ``send``, so a router hop is ``_deliver`` → ``Node.send``
→ the next ``Link.send``.
"""

from __future__ import annotations

import random
from heapq import heappush
from typing import Callable, List, Optional, Tuple

from .packet import Packet
from .sim import Simulator

Receiver = Callable[[Packet], None]


def mbps(value: float) -> float:
    """Convert megabits/second to bits/second (readability helper)."""
    return value * 1_000_000.0


class LinkStats:
    """Byte/packet counters maintained by every :class:`Link`."""

    __slots__ = (
        "enqueued_packets",
        "enqueued_bytes",
        "dropped_packets",
        "dropped_bytes",
        "lost_packets",
        "delivered_packets",
        "delivered_bytes",
        "reordered_packets",
    )

    def __init__(self) -> None:
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dropped_packets = 0  # droptail (queue overflow)
        self.dropped_bytes = 0
        self.lost_packets = 0  # random (netem) loss
        self.delivered_packets = 0
        self.delivered_bytes = 0
        self.reordered_packets = 0  # delivered out of enqueue order

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Link:
    """A unidirectional emulated link.

    Parameters
    ----------
    sim:
        The event loop.
    rate_bps:
        Serialisation rate in bits/second (use :func:`mbps`).
        ``None`` means infinite rate (no serialisation delay, no queue).
    delay:
        One-way propagation delay in seconds.
    jitter:
        netem-style jitter: each packet's delay is drawn uniformly from
        ``[delay - jitter, delay + jitter]`` (floored at 0).  Non-zero
        jitter causes packet reordering, as in the paper's testbed.
    loss_rate:
        i.i.d. drop probability in [0, 1).
    queue_bytes:
        Droptail buffer size in bytes; ``None`` means unbounded.
    queue:
        Alternative queue discipline (e.g. :class:`~repro.netem.queues.RED`
        or :class:`~repro.netem.queues.CoDel`); overrides ``queue_bytes``.
    reorder_prob / reorder_extra:
        With probability ``reorder_prob`` a packet is additionally delayed
        by ``reorder_extra`` seconds, modelling measured cellular
        reordering (Table 5).
    rng:
        Private random stream (determinism).
    name:
        For debugging and monitor output.
    """

    __slots__ = (
        "sim", "rate_bps", "delay", "jitter", "loss_rate", "queue_bytes",
        "reorder_prob", "reorder_extra", "name", "stats", "_receiver",
        "_queue", "_free_at", "_drain_pending", "_wire", "_force_drops",
        "_enqueue_seq",
        "_last_delivered_seq", "on_deliver", "on_send",
        "_rng", "_uniform",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: Optional[float],
        delay: float,
        *,
        jitter: float = 0.0,
        loss_rate: float = 0.0,
        queue_bytes: Optional[int] = None,
        queue: Optional["QueueDiscipline"] = None,
        reorder_prob: float = 0.0,
        reorder_extra: float = 0.0,
        rng: Optional[random.Random] = None,
        name: str = "link",
    ) -> None:
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError("rate_bps must be positive or None")
        if delay < 0 or jitter < 0:
            raise ValueError("delay and jitter must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if not 0.0 <= reorder_prob <= 1.0:
            raise ValueError("reorder_prob must be in [0, 1]")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.queue_bytes = queue_bytes
        self.reorder_prob = reorder_prob
        self.reorder_extra = reorder_extra
        self.rng = rng if rng is not None else random.Random(0)
        self.name = name
        self.stats = LinkStats()
        self._receiver: Optional[Receiver] = None
        if queue is not None:
            self._queue = queue
        else:
            from .queues import DropTail

            self._queue = DropTail(queue_bytes)
        self._queue.on_drop = self._count_drop
        #: When the packet now serialising leaves the wire (the line is
        #: free from then on), and whether a ``_transmit_next`` is posted
        #: for that instant.
        self._free_at = 0.0
        self._drain_pending = False
        #: The packet now serialising, while ``drop_next`` may still take it.
        self._wire: Optional[Packet] = None
        #: Deterministic drop injection for experiments/tests: the next
        #: ``n`` packets offered to the wire are discarded.
        self._force_drops = 0
        #: Monotone counter of enqueue order, used to detect reordering.
        self._enqueue_seq = 0
        self._last_delivered_seq = 0
        #: Optional tap invoked on every delivery: f(time, packet).
        self.on_deliver: Optional[Callable[[float, Packet], None]] = None
        #: Optional tap invoked on every offered packet: f(packet).  Used
        #: by :class:`~repro.netem.capture.PacketCapture`; the official
        #: hook replaces the old pattern of monkeypatching ``link.send``.
        self.on_send: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------
    # randomness
    # ------------------------------------------------------------------
    @property
    def rng(self) -> random.Random:
        return self._rng

    @rng.setter
    def rng(self, value: random.Random) -> None:
        # ``build_path`` and friends assign link.rng after construction.
        self._rng = value
        #: The next uniform [0, 1) draw of the link's private stream:
        #: exactly ``rng.random()``, called from C by the iterator, so a
        #: draw costs no Python frame.
        self._uniform = iter(value.random, None).__next__

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, receiver: Receiver) -> None:
        """Connect the far end of the link."""
        self._receiver = receiver

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Offer a packet to the link (called by the upstream node)."""
        if self._receiver is None:
            raise RuntimeError(f"{self.name}: no receiver attached")
        if self.on_send is not None:
            self.on_send(packet)
        now = self.sim.now
        packet.enqueued_at = now
        stats = self.stats
        if (self.rate_bps is None and not self._drain_pending
                and now >= self._free_at):
            # Infinite-rate link with an idle line: skip the queue.  (A
            # backlog left from before ``set_rate(None)`` drains first.)
            stats.enqueued_packets += 1
            stats.enqueued_bytes += packet.size_bytes
            self._launch(packet, now)
            return
        if not self._queue.enqueue(now, packet):
            return
        stats.enqueued_packets += 1
        stats.enqueued_bytes += packet.size_bytes
        if self._drain_pending:
            return
        if now >= self._free_at:
            self._transmit_next()
        else:
            # First successor behind a packet still on the wire.
            self._drain_pending = True
            self.sim.post_at(self._free_at, self._transmit_next)

    def _count_drop(self, packet: Packet) -> None:
        self.stats.dropped_packets += 1
        self.stats.dropped_bytes += packet.size_bytes

    def _transmit_next(self) -> None:
        """Start serialising the next queued packet (the line is free).

        ``send`` calls it on an idle line; while a successor waits, it is
        also the event posted for the instant the line falls free.
        """
        self._drain_pending = False
        now = self.sim.now
        packet = self._queue.dequeue(now)
        if packet is None:
            return
        rate = self.rate_bps
        # At infinite rate (``set_rate(None)`` over a backlog) a queued
        # packet leaves with zero serialisation time.
        done = now if rate is None else now + packet.size_bytes * 8.0 / rate
        self._free_at = done
        self._launch(packet, done)
        if self._queue.backlog_bytes > 0:
            self._drain_pending = True
            sim = self.sim
            seq = sim._seq
            sim._seq = seq + 1
            heappush(sim._queue, (done, seq, self._transmit_next, ()))

    def drop_next(self, n: int = 1) -> None:
        """Deterministically drop the next ``n`` packets to leave the wire
        (tail-loss tests).  A packet still serialising is the first of
        them; the random draws it made when it started stay consumed."""
        if n < 0:
            raise ValueError("n must be non-negative")
        packet = self._wire
        if n > 0 and packet is not None and self.sim.now < self._free_at:
            # Its delivery is already posted: void it (``_deliver`` skips
            # a negative stamp) and count it when it leaves the wire.
            self._wire = None
            packet.link_seq = -1
            self.sim.post_at(self._free_at, self._count_lost)
            n -= 1
        self._force_drops += n

    def _count_lost(self) -> None:
        self.stats.lost_packets += 1

    def _launch(self, packet: Packet, at: float) -> None:
        """Apply loss / delay / jitter / reordering to a packet that leaves
        the wire at ``at`` (now, or the end of its serialisation) and
        schedule its delivery; a loss is counted at ``at``."""
        if self._force_drops > 0:
            self._force_drops -= 1
            lost = True
        else:
            lost = self.loss_rate > 0.0 and self._uniform() < self.loss_rate
        if lost:
            self._wire = None
            if at > self.sim.now:
                self.sim.post_at(at, self._count_lost)
            else:
                self.stats.lost_packets += 1
            return
        latency = self.delay
        jitter = self.jitter
        if jitter > 0.0:
            # Exactly random.Random.uniform(-jitter, jitter), fed from
            # the batched stream: a + (b - a) * random().
            latency += -jitter + (jitter - -jitter) * self._uniform()
            if latency < 0.0:
                latency = 0.0
        if self.reorder_prob > 0.0 and self._uniform() < self.reorder_prob:
            latency += self.reorder_extra
        seq = self._enqueue_seq + 1
        self._enqueue_seq = seq
        packet.link_seq = seq
        self._wire = packet
        # The delivery's heap entry, pushed here rather than through
        # ``sim.post_at``: the same (time, seq) draw, one frame fewer per hop.
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._queue, (at + latency, seq, self._deliver, (packet,)))

    def _deliver(self, packet: Packet) -> None:
        stats = self.stats
        seq = packet.link_seq
        if seq < self._last_delivered_seq:
            if seq < 0:
                return  # taken off the wire by drop_next(), counted there
            stats.reordered_packets += 1
        else:
            self._last_delivered_seq = seq
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size_bytes
        if self.on_deliver is not None:
            self.on_deliver(self.sim.now, packet)
        self._receiver(packet)

    # ------------------------------------------------------------------
    # runtime reconfiguration
    # ------------------------------------------------------------------
    def set_rate(self, rate_bps: Optional[float]) -> None:
        """Change the link rate; takes effect for the next transmission."""
        if rate_bps is not None and rate_bps <= 0:
            raise ValueError("rate_bps must be positive or None")
        was_infinite = self.rate_bps is None
        self.rate_bps = rate_bps
        if (was_infinite and rate_bps is not None and not self._drain_pending
                and self.sim.now >= self._free_at
                and self._queue.backlog_bytes > 0):
            self._transmit_next()

    @property
    def backlog_bytes(self) -> int:
        """Bytes currently waiting in the queue discipline."""
        return self._queue.backlog_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rate = "inf" if self.rate_bps is None else f"{self.rate_bps / 1e6:.1f}Mbps"
        return (f"<Link {self.name} {rate} {self.delay * 1000:.1f}ms "
                f"q={self.backlog_bytes}B>")


class BandwidthSchedule:
    """Fluctuates a link's rate, as in Fig. 11.

    Every ``period`` seconds the rate is redrawn uniformly at random from
    ``[low_bps, high_bps]``.  The schedule keeps a history of
    ``(time, rate_bps)`` samples for plotting/verification.
    """

    def __init__(
        self,
        sim: Simulator,
        links: List[Link],
        low_bps: float,
        high_bps: float,
        period: float = 1.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if low_bps <= 0 or high_bps < low_bps:
            raise ValueError("need 0 < low_bps <= high_bps")
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.links = links
        self.low_bps = low_bps
        self.high_bps = high_bps
        self.period = period
        self.rng = rng if rng is not None else random.Random(0)
        self.history: List[Tuple[float, float]] = []
        self._timer = sim.timer(self._tick)

    def start(self) -> None:
        """Apply an initial draw immediately and re-draw every period
        (a second call restarts the period)."""
        self._tick()

    def stop(self) -> None:
        self._timer.cancel()

    def _tick(self) -> None:
        rate = self.rng.uniform(self.low_bps, self.high_bps)
        for link in self.links:
            link.set_rate(rate)
        self.history.append((self.sim.now, rate))
        self._timer.arm(self.period)
