"""Unit tests for the netem-style link: rate, queue, delay, jitter, loss."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netem.link import BandwidthSchedule, Link, mbps
from repro.netem.packet import Packet
from repro.netem.queues import CoDel, DropTail, QueueDiscipline
from repro.netem.sim import Simulator


def collect(link):
    received = []
    link.attach(lambda p: received.append((link.sim.now, p)))
    return received


def pkt(size=1000, pid=None):
    return Packet("a", "b", size)


class TestRateLimiting:
    def test_serialization_delay(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0)  # 1000 bytes/sec
        received = collect(link)
        link.send(pkt(size=500))
        sim.run()
        assert received[0][0] == pytest.approx(0.5)

    def test_back_to_back_packets_queue(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0)
        received = collect(link)
        link.send(pkt(size=500))
        link.send(pkt(size=500))
        sim.run()
        assert [t for t, _ in received] == pytest.approx([0.5, 1.0])

    def test_infinite_rate_no_delay(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, delay=0.0)
        received = collect(link)
        link.send(pkt())
        sim.run()
        assert received[0][0] == 0.0

    def test_propagation_delay_added(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.25)
        received = collect(link)
        link.send(pkt(size=500))
        sim.run()
        assert received[0][0] == pytest.approx(0.75)

    def test_mbps_helper(self):
        assert mbps(10) == 10_000_000.0

    def test_set_rate_affects_next_transmission(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0)
        received = collect(link)
        link.send(pkt(size=1000))  # 1 s at 8 kbit/s
        sim.run()
        link.set_rate(16000.0)
        link.send(pkt(size=1000))  # 0.5 s at 16 kbit/s
        sim.run()
        assert received[1][0] - received[0][0] == pytest.approx(0.5)

    def test_throughput_approaches_rate(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(10), delay=0.0, queue_bytes=10**9)
        received = collect(link)
        n, size = 500, 1250
        for _ in range(n):
            link.send(pkt(size=size))
        sim.run()
        elapsed = received[-1][0]
        assert n * size * 8 / elapsed == pytest.approx(10e6, rel=0.01)


class TestQueue:
    def test_droptail_overflow(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0, queue_bytes=1500)
        received = collect(link)
        for _ in range(5):
            link.send(pkt(size=1000))
        sim.run()
        # One in flight + one queued fit; the rest drop.
        assert link.stats.dropped_packets == 3
        assert len(received) == 2

    def test_backlog_bytes(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0, queue_bytes=10_000)
        collect(link)
        link.send(pkt(size=1000))
        link.send(pkt(size=1000))
        # First packet dequeued for transmission; second still queued.
        assert link.backlog_bytes == 1000
        sim.run()
        assert link.backlog_bytes == 0


class TestLoss:
    def test_zero_loss_delivers_all(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, delay=0.0, loss_rate=0.0)
        received = collect(link)
        for _ in range(100):
            link.send(pkt())
        sim.run()
        assert len(received) == 100

    def test_loss_rate_statistics(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, delay=0.0, loss_rate=0.1,
                    rng=random.Random(42))
        received = collect(link)
        n = 5000
        for _ in range(n):
            link.send(pkt())
        sim.run()
        observed = 1 - len(received) / n
        assert observed == pytest.approx(0.1, abs=0.02)
        assert link.stats.lost_packets == n - len(received)

    def test_invalid_loss_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, rate_bps=None, delay=0.0, loss_rate=1.0)


class TestJitterAndReordering:
    def test_jitter_causes_reordering(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(100), delay=0.1, jitter=0.05,
                    rng=random.Random(7))
        received = collect(link)
        ids = []
        for i in range(200):
            p = Packet("a", "b", 1350)
            ids.append(p.packet_id)
            link.send(p)
        sim.run()
        out_ids = [p.packet_id for _, p in received]
        assert out_ids != ids  # reordered
        assert sorted(out_ids) == sorted(ids)  # nothing lost
        assert link.stats.reordered_packets > 0

    def test_no_jitter_preserves_order(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(100), delay=0.1)
        received = collect(link)
        ids = []
        for _ in range(100):
            p = Packet("a", "b", 1350)
            ids.append(p.packet_id)
            link.send(p)
        sim.run()
        assert [p.packet_id for _, p in received] == ids
        assert link.stats.reordered_packets == 0

    def test_explicit_reorder_prob(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(100), delay=0.05,
                    reorder_prob=0.2, reorder_extra=0.05,
                    rng=random.Random(3))
        received = collect(link)
        for _ in range(500):
            link.send(pkt(size=1350))
        sim.run()
        assert link.stats.reordered_packets > 0


class TestBandwidthSchedule:
    def test_rates_stay_in_range_and_history_recorded(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(100), delay=0.0)
        collect(link)
        sched = BandwidthSchedule(sim, [link], mbps(50), mbps(150),
                                  period=1.0, rng=random.Random(5))
        sched.start()
        sim.run(until=10.0)
        sched.stop()
        assert len(sched.history) >= 10
        for _t, rate in sched.history:
            assert mbps(50) <= rate <= mbps(150)
        assert mbps(50) <= link.rate_bps <= mbps(150)

    def test_stop_halts_redraws(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(100), delay=0.0)
        sched = BandwidthSchedule(sim, [link], mbps(50), mbps(150), period=1.0)
        sched.start()
        sim.run(until=2.5)
        sched.stop()
        n = len(sched.history)
        sim.run(until=10.0)
        assert len(sched.history) == n

    def test_second_start_restarts_the_period(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(100), delay=0.0)
        sched = BandwidthSchedule(sim, [link], mbps(50), mbps(150), period=1.0)
        sched.start()
        sim.run(until=0.5)
        sched.start()
        sim.run(until=3.0)
        assert [t for t, _rate in sched.history] == [0.0, 0.5, 1.5, 2.5]

    def test_invalid_parameters(self):
        sim = Simulator()
        link = Link(sim, rate_bps=None, delay=0.0)
        with pytest.raises(ValueError):
            BandwidthSchedule(sim, [link], 0, mbps(10))
        with pytest.raises(ValueError):
            BandwidthSchedule(sim, [link], mbps(10), mbps(5))


class TestStats:
    def test_counters_consistent(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0, queue_bytes=2000,
                    loss_rate=0.3, rng=random.Random(1))
        received = collect(link)
        for _ in range(50):
            link.send(pkt(size=1000))
        sim.run()
        s = link.stats
        assert s.enqueued_packets + s.dropped_packets == 50
        assert s.delivered_packets + s.lost_packets == s.enqueued_packets
        assert s.delivered_packets == len(received)
        assert set(s.as_dict()) >= {"enqueued_packets", "delivered_bytes"}


# ----------------------------------------------------------------------
# Link invariants as properties (ROADMAP item 2(a), first slice)
# ----------------------------------------------------------------------
class _WatchedQueue(QueueDiscipline):
    """Wraps a discipline and books, from outside the link, what it was
    offered, what it accepted and every packet it handed to the wire —
    a successful ``dequeue(now)`` *is* the start of a transmission."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        inner.on_drop = self._drop
        self.offered = 0
        self.accepted = 0
        self.queued_bytes = 0
        self.dequeue_drops = 0
        self._dequeuing = False
        self.starts = []  # (time, packet)

    def enqueue(self, now, packet):
        self.offered += 1
        ok = self.inner.enqueue(now, packet)
        if ok:
            self.accepted += 1
            self.queued_bytes += packet.size_bytes
        return ok

    def dequeue(self, now):
        self._dequeuing = True
        packet = self.inner.dequeue(now)
        self._dequeuing = False
        if packet is not None:
            self.queued_bytes -= packet.size_bytes
            self.starts.append((now, packet))
        return packet

    def _drop(self, packet):
        if self._dequeuing:
            self.dequeue_drops += 1
            self.queued_bytes -= packet.size_bytes
        super()._drop(packet)

    @property
    def backlog_bytes(self):
        return self.inner.backlog_bytes

    @property
    def queued(self):
        return self.accepted - len(self.starts) - self.dequeue_drops


_rates = st.sampled_from([64e3, 1e6, 10e6, 33.3e6])
_delays = st.sampled_from([0.0, 0.0005, 0.018, 0.1])
_jitters = st.sampled_from([0.0, 0.0, 0.002, 0.03])
_losses = st.sampled_from([0.0, 0.0, 0.01, 0.3])
#: One arrival: how it follows the previous one, a spacing, a size.
#: "burst" = same instant; "on_free" = exactly when the line falls free.
_arrivals = st.lists(
    st.tuples(st.sampled_from(["burst", "burst", "gap", "idle", "on_free"]),
              st.floats(min_value=1e-6, max_value=0.02),
              st.sampled_from([52, 300, 1350, 1500])),
    min_size=1, max_size=60)


def _fifo_schedule(rate, arrivals):
    """(arrival, wire exit) per packet through an unbounded FIFO line —
    straight-line arithmetic, no event loop: a transmission starts at
    ``max(arrival, prev_end)`` and ends ``size * 8 / rate`` later."""
    schedule, now, prev_end = [], 0.0, 0.0
    for index, (kind, spacing, size) in enumerate(arrivals):
        if index and kind == "on_free":
            # When the transmission in progress ends (others may be queued).
            now = min((end for _, end in schedule if end > now), default=now)
        elif index:
            now = now + {"burst": 0.0, "gap": spacing,
                         "idle": 1.0 + spacing}[kind]
        start = now if now >= prev_end else prev_end
        prev_end = start + size * 8.0 / rate
        schedule.append((now, prev_end))
    return schedule


def _feed(sim, link, rate, arrivals):
    """Post every arrival up front; returns the packets in offer order."""
    packets = [Packet("a", "b", size) for _, _, size in arrivals]
    for packet, (when, _end) in zip(packets, _fifo_schedule(rate, arrivals)):
        sim.post_at(when, link.send, packet)
    return packets


class TestLinkProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_rates, _delays, _jitters, _losses, _arrivals,
           st.sampled_from(["droptail", "droptail-small", "codel"]))
    def test_conservation_and_one_packet_on_the_wire(
            self, rate, delay, jitter, loss, arrivals, discipline):
        sim = Simulator()
        watched = _WatchedQueue({
            "droptail": lambda: DropTail(None),
            "droptail-small": lambda: DropTail(4000),
            "codel": lambda: CoDel(limit_bytes=20_000),
        }[discipline]())
        link = Link(sim, rate, delay, jitter=jitter, loss_rate=loss,
                    queue=watched, rng=random.Random(5))
        stats = link.stats
        delivered = []

        def check():
            assert link.backlog_bytes == watched.queued_bytes >= 0
            assert stats.enqueued_packets == watched.accepted
            assert stats.dropped_packets == (watched.offered - watched.accepted
                                             + watched.dequeue_drops)
            assert stats.delivered_packets == len(delivered)
            on_the_wire = (len(watched.starts) - stats.delivered_packets
                           - stats.lost_packets)
            assert on_the_wire >= 0
            assert stats.enqueued_packets == (
                stats.delivered_packets + stats.lost_packets
                + watched.dequeue_drops + watched.queued + on_the_wire)
            return on_the_wire

        def on_delivery(packet):
            delivered.append((sim.now, packet))
            check()

        link.attach(on_delivery)
        packets = _feed(sim, link, rate, arrivals)
        sim.run()
        # Drained: nothing queued, nothing on the wire, nothing unaccounted.
        assert watched.offered == len(packets)
        assert check() == 0 and watched.queued == 0 and link.backlog_bytes == 0
        assert len({id(p) for _, p in delivered}) == len(delivered)
        # Never two packets serialising: a transmission starts no earlier
        # than the previous one ended, and packets leave in offer order.
        starts = watched.starts
        for (t0, p0), (t1, _p1) in zip(starts, starts[1:]):
            assert t1 >= t0 + p0.size_bytes * 8.0 / rate
        order = {id(p): i for i, p in enumerate(packets)}
        assert [order[id(p)] for _, p in starts] == sorted(
            order[id(p)] for _, p in starts)
        # A delivery never precedes the end of its own serialisation.
        ended = {id(p): t + p.size_bytes * 8.0 / rate for t, p in starts}
        for when, packet in delivered:
            assert when >= ended[id(packet)]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_rates, _delays, _jitters, _losses, _arrivals)
    def test_fifo_delivery_times_equal_the_straight_line_reference(
            self, rate, delay, jitter, loss, arrivals):
        """No event loop needed to say when a FIFO link delivers: the
        reference below is ``max(arrival, prev_end) + tx + latency`` with
        the link's operation order and its RNG stream, and the link must
        match it bit for bit — including arrivals landing on ``_free_at``."""
        sim = Simulator()
        link = Link(sim, rate, delay, jitter=jitter, loss_rate=loss,
                    rng=random.Random(11))
        delivered = []
        link.attach(lambda p: delivered.append((sim.now, p)))
        packets = _feed(sim, link, rate, arrivals)
        sim.run()

        rng = random.Random(11)
        expected = []
        for index, (_arrival, end) in enumerate(_fifo_schedule(rate, arrivals)):
            if loss > 0.0 and rng.random() < loss:
                continue
            latency = delay
            if jitter > 0.0:
                latency += -jitter + (jitter - -jitter) * rng.random()
                latency = max(latency, 0.0)
            expected.append((end + latency, index))
        order = {id(p): i for i, p in enumerate(packets)}
        assert sorted((t, order[id(p)]) for t, p in delivered) == sorted(expected)
        assert link.stats.lost_packets == len(arrivals) - len(expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(0, 7),
           st.floats(min_value=0.05, max_value=0.95))
    def test_drop_next_during_serialisation_takes_the_next_n_off_the_wire(
            self, n, busy_with, fraction):
        """Eight 1 s packets back to back; ``drop_next(n)`` lands while
        packet ``busy_with`` is part-way out: it and its successors go."""
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.25)
        received = collect(link)
        packets = [pkt(size=1000) for _ in range(8)]
        for packet in packets:
            link.send(packet)
        lost_at = []
        sim.post(busy_with + fraction, link.drop_next, n)
        for tick in range(1, 10):  # sample just after each wire exit
            sim.post(tick + 0.001, lambda: lost_at.append(link.stats.lost_packets))
        sim.run()
        gone = set(range(busy_with, min(busy_with + n, 8)))
        assert [p for _, p in received] == [
            p for i, p in enumerate(packets) if i not in gone]
        assert [t for t, _ in received] == [
            i + 1.25 for i in range(8) if i not in gone]
        # Each loss is counted when its packet leaves the wire, not before.
        assert lost_at == [len([i for i in gone if i + 1 <= tick])
                           for tick in range(1, 10)]
        assert link._force_drops == n - len(gone)

    def test_set_rate_mid_transmission_changes_only_the_next_packet(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0)
        received = collect(link)
        for _ in range(3):
            link.send(pkt(size=1000))  # 1 s each at 8 kbit/s
        sim.post(0.5, link.set_rate, 16000.0)  # first packet half-way out
        sim.run()
        assert [t for t, _ in received] == [1.0, 1.5, 2.0]

    def test_set_rate_none_drains_a_backlog_with_zero_serialisation(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(1), delay=0.002)
        received = collect(link)
        sent = [pkt(size=1000) for _ in range(5)]
        for packet in sent:
            link.send(packet)  # the first serialises for 8 ms, four queue
        link.set_rate(None)
        sim.run()
        # The packet on the wire finishes at the old rate; the queued ones
        # follow it out at the same instant, in order.
        assert [t for t, _ in received] == [0.008 + 0.002] * 5
        assert [p for _, p in received] == sent
        assert link.backlog_bytes == 0
        assert link.stats.delivered_packets == 5
        assert link.stats.reordered_packets == 0
        # Idle again: the next packet skips the queue.
        sim.post_at(1.0, link.send, pkt(size=1000))
        sim.run()
        assert received[-1][0] == 1.0 + 0.002

    def test_set_rate_none_mid_transmission_keeps_fifo(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0)
        received = collect(link)
        first, second = pkt(size=1000), pkt(size=1000)
        link.send(first)  # on the wire until t = 1
        sim.post(0.5, link.set_rate, None)
        sim.post(0.6, link.send, second)  # waits for the line, not the queue
        sim.run()
        assert received == [(1.0, first), (1.0, second)]

    def test_random_loss_is_counted_at_wire_exit(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay=0.0, loss_rate=0.999,
                    rng=random.Random(0))
        collect(link)
        link.send(pkt(size=1000))
        sim.run(until=0.5)
        assert link.stats.lost_packets == 0
        sim.run()
        assert link.stats.lost_packets == 1 and sim.now == 1.0

    def test_uncongested_hop_costs_one_event_per_packet(self):
        sim = Simulator()
        link = Link(sim, rate_bps=mbps(10), delay=0.01)
        received = collect(link)
        for i in range(100):
            sim.post(i * 0.01, link.send, pkt(size=1250))  # 1 ms each, idle between
        sim.run()
        assert len(received) == 100
        assert sim.events_processed == 100 + 100  # the feeds + the deliveries
