"""Unit tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netem
import repro.netem.sim as sim_module
from repro.netem.sim import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.post(0.3, fired.append, "c")
        sim.post(0.1, fired.append, "a")
        sim.post(0.2, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self, sim):
        fired = []
        for tag in range(10):
            sim.post(1.0, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.post(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.post(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.post(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post_at(0.5, lambda: None)

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.post(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]

    def test_nested_scheduling(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.post(0.1, fired.append, "inner")

        sim.post(0.1, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == pytest.approx(0.2)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        timer = sim.timer(fired.append)
        timer.arm(0.1, "x")
        timer.cancel()
        sim.run()
        assert fired == []

    def test_cancel_twice_is_noop(self, sim):
        timer = sim.timer(lambda: None)
        timer.arm(0.1)
        timer.cancel()
        timer.cancel()
        sim.run()
        assert sim.events_processed == 0

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        later = sim.timer(fired.append)
        later.arm(0.2, "later")
        sim.post(0.1, later.cancel)
        sim.run()
        assert fired == []
        assert sim.events_processed == 1

    def test_events_processed_excludes_cancelled(self, sim):
        timer = sim.timer(lambda: None)
        timer.arm(0.1)
        sim.post(0.2, lambda: None)
        timer.cancel()
        sim.run()
        assert sim.events_processed == 1
        assert sim.now == 0.2

    def test_armed_property(self, sim):
        timer = sim.timer(lambda: None)
        assert not timer.armed
        timer.arm(0.1)
        assert timer.armed
        timer.cancel()
        assert not timer.armed
        timer.arm(0.1)
        sim.run()
        assert not timer.armed


class TestSurface:
    def test_two_scheduling_flavours_only(self, sim):
        """One-shot callbacks are posted and cancellable ones are timers:
        no cancellable event object and no pending-event counter."""
        assert not hasattr(sim_module, "Event")
        assert not hasattr(repro.netem, "Event")
        assert "Event" not in repro.netem.__all__
        for name in ("schedule", "at", "pending_events", "_pending"):
            assert not hasattr(sim, name), name


class TestRun:
    def test_run_until_time_stops_and_advances_clock(self, sim):
        fired = []
        sim.post(1.0, fired.append, "a")
        sim.post(3.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_predicate(self, sim):
        counter = []
        for i in range(10):
            sim.post(0.1 * (i + 1), counter.append, i)
        satisfied = sim.run_until(lambda: len(counter) >= 3, timeout=10.0)
        assert satisfied
        assert len(counter) == 3

    def test_run_until_timeout_returns_false(self, sim):
        satisfied = sim.run_until(lambda: False, timeout=1.0)
        assert not satisfied
        assert sim.now == 1.0

    def test_run_until_predicate_already_true(self, sim):
        assert sim.run_until(lambda: True, timeout=5.0)
        assert sim.now == 0.0

    def test_max_events_guard(self, sim):
        def loop():
            sim.post(0.001, loop)

        sim.post(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.post(0.1 * i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.post(0.1, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_inside_run_until_callback_is_rejected_too(self, sim):
        sim.post(0.1, sim.run)
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, timeout=1.0)

    def test_stop_ends_the_run_at_the_current_event(self, sim):
        fired = []

        def second():
            fired.append("b")
            sim.stop()
            fired.append("b-finished")

        sim.post(1.0, fired.append, "a")
        sim.post(2.0, second)
        sim.post(3.0, fired.append, "c")
        sim.run(until=10.0)
        assert fired == ["a", "b", "b-finished"]
        assert sim.now == 2.0  # not advanced to ``until``
        assert sim.events_processed == 2
        sim.run()
        assert fired[-1] == "c"
        assert sim.events_processed == 3

    def test_stop_ends_run_until_with_the_predicate_false(self, sim):
        sim.post(1.0, sim.stop)
        sim.post(2.0, lambda: None)
        assert not sim.run_until(lambda: False, timeout=10.0)
        assert sim.now == 1.0

    def test_stop_while_idle_does_not_affect_the_next_run(self, sim):
        fired = []
        sim.stop()
        sim.post(1.0, fired.append, "a")
        sim.run()
        assert fired == ["a"]


class _RefTimer:
    """The reference: a timer on :meth:`Simulator.post` alone.  Each
    ``arm()`` posts once — drawing the one sequence number
    :meth:`Timer.arm` draws — under a new generation; a fire whose
    generation was superseded or cancelled is a no-op, noted in
    ``noops``."""

    def __init__(self, sim, callback, noops):
        self.sim = sim
        self.callback = callback
        self.noops = noops
        self.generation = 0
        self.armed = False

    def arm(self, delay, *args):
        self.generation += 1
        self.armed = True
        self.sim.post(delay, self._fire, self.generation, args)

    def cancel(self):
        self.generation += 1
        self.armed = False

    def _fire(self, generation, args):
        if generation != self.generation:
            self.noops.append(generation)
            return
        self.armed = False
        self.callback(*args)


N_TIMERS = 3
#: (slot, kind, which timer, delay, re-arm delay from the callback).
#: Ops land on whole-unit slots and delays are whole units, so deadlines,
#: plain posts and the ops themselves keep tying at the same instant —
#: where only the sequence number each arm() drew decides the order.
_ops = st.lists(
    st.tuples(st.integers(0, 8),
              st.sampled_from(["arm", "arm", "arm", "cancel", "post"]),
              st.integers(0, N_TIMERS - 1),
              st.integers(0, 5),
              st.one_of(st.none(), st.integers(0, 3))),
    max_size=60)


def _drive(ops, make_timer):
    """Run one op program; return everything an observer could see."""
    sim = Simulator()
    log = []

    def seen(*what):
        log.append((sim.now, tuple(t.armed for t in timers)) + what)

    def fired(which, tag, rearm):
        seen("timer", which, tag)
        if rearm is not None:  # arm from inside the timer's own callback
            timers[which].arm(float(rearm), which, ("again", tag), None)

    timers = [make_timer(sim, fired) for _ in range(N_TIMERS)]

    def do(index, kind, which, delay, rearm):
        if kind == "arm":
            timers[which].arm(float(delay), which, index, rearm)
        elif kind == "cancel":
            timers[which].cancel()
        else:
            sim.post(float(delay), seen, "post", index)
        seen("op", index)

    for index, (slot, kind, which, delay, rearm) in enumerate(ops):
        sim.post_at(float(slot), do, index, kind, which, delay, rearm)
    sim.run(max_events=10_000)
    return log, sim.events_processed, sim.now


class TestTimer:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_ops)
    def test_matches_cancel_plus_schedule_exactly(self, ops):
        """Same firing log (time, which, args) and ``armed`` states after
        every event as the post-and-generation reference, and the same
        ``events_processed`` once the reference's no-op fires are taken
        out: arm / re-arm later / re-arm earlier / cancel / same-instant
        ties."""
        log, events, now = _drive(ops, lambda sim, cb: sim.timer(cb))
        noops = []
        ref_log, ref_events, _ = _drive(
            ops, lambda sim, cb: _RefTimer(sim, cb, noops))
        assert log == ref_log
        assert events == ref_events - len(noops)
        # A cancelled or superseded deadline does not move the clock.
        assert now == (log[-1][0] if log else 0.0)

    def test_fires_once_with_the_last_args(self, sim):
        fired = []
        timer = sim.timer(lambda *args: fired.append((sim.now, args)))
        assert not timer.armed
        timer.arm(1.0, "first")
        timer.arm(3.0, "later")
        timer.arm(2.0, "earlier")
        assert timer.armed
        sim.run()
        assert fired == [(2.0, ("earlier",))]
        assert not timer.armed and sim.events_processed == 1

    def test_cancel_after_fire_is_a_noop(self, sim):
        fired = []
        timer = sim.timer(fired.append)
        timer.arm(1.0, "timer")
        sim.post(2.0, fired.append, "post")
        sim.run(until=1.5)
        timer.cancel()
        timer.cancel()
        assert not timer.armed
        sim.run()
        assert fired == ["timer", "post"]
        assert sim.events_processed == 2

    def test_arm_inside_own_callback_makes_it_periodic(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                timer.arm(0.5)

        timer = sim.timer(tick)
        timer.arm(0.5)
        sim.run()
        assert ticks == [0.5, 1.0, 1.5, 2.0, 2.5]
        assert sim.events_processed == 5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timer(lambda: None).arm(-0.1)

    def test_ten_thousand_rearms_keep_the_heap_small(self, sim):
        """The retransmission-timer pattern: pushed out on every packet,
        never firing.  One carrier entry, not one heap entry per arm."""
        fired = []
        timer = sim.timer(lambda: fired.append(sim.now))
        deepest = 0

        def packet(remaining):
            nonlocal deepest
            timer.arm(1.0)
            if remaining:
                sim.post(0.001, packet, remaining - 1)
            deepest = max(deepest, len(sim._queue))

        packet(10_000)
        sim.run()
        assert deepest <= 2
        assert fired == [pytest.approx(11.0)]
        # 10 000 packet events + the one firing: carrier hops are free.
        assert sim.events_processed == 10_001
