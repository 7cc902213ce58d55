"""Discrete-event simulation core.

Everything in :mod:`repro` runs on top of this tiny, deterministic event
loop.  It plays the role that real wall-clock time, the OpenWRT router and
the operating system schedulers played in the paper's physical testbed:
links, transport timers (RTO, TLP, delayed ACK), device CPU models and the
video player all schedule callbacks here.

Design notes
------------
* Time is a ``float`` number of seconds.  All components treat it as
  opaque "now"; only differences of times are meaningful.
* Events scheduled for the same instant fire in FIFO order (a
  monotonically increasing sequence number breaks ties), which keeps runs
  fully deterministic for a given seed.
* Two scheduling flavours share one heap and one sequence space:

  - :meth:`Simulator.post` / :meth:`Simulator.post_at` push a bare
    ``(time, seq, callback, args)`` tuple — no allocation beyond the
    tuple, and heap ordering compares the first two floats/ints directly
    in C instead of dispatching into a Python ``__lt__``.  Every one-shot
    callback uses it (packet transmissions, deliveries, sender wakeups,
    device-CPU completions, connection kick-offs).
  - :meth:`Simulator.timer` returns a re-armable :class:`Timer` for
    anything that may be cancelled or pushed out (retransmission and
    delayed-ACK timers, bandwidth redraws): re-arming updates fields
    instead of pushing a heap entry, and the entry's callback slot holds
    ``None`` to mark it as a timer's.

  Both flavours draw from the same sequence counter, so FIFO ordering at
  equal times holds across them and a call-site can be switched between
  them without perturbing the event order (only the per-event cost
  changes).
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class Timer:
    """A re-armable one-shot timer (retransmission, delayed ACK).

    ``timer.arm(delay, *args)`` draws exactly one sequence number, like
    ``sim.post(delay, callback, *args)``, and supersedes any earlier
    arming: the timer fires once, at the ``(time, seq)`` position the
    last :meth:`arm` drew among all other events, unless :meth:`cancel`
    comes first.  A superseded or cancelled deadline never fires and is
    not counted in :attr:`Simulator.events_processed`.

    The timer keeps at most one live *carrier* entry in the heap.
    Pushing the deadline out only updates ``time``/``seq``; when the
    carrier surfaces early the run loop re-posts it at the true
    ``(time, seq)``.  Arming *earlier* than the carrier pushes a new
    carrier and the old entry is skipped, uncounted, when it surfaces.
    """

    __slots__ = ("callback", "args", "armed", "time", "seq", "_sim",
                 "_carrier", "_carrier_time")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any]):
        self._sim = sim
        self.callback = callback
        self.args: tuple = ()
        #: True from :meth:`arm` until the timer fires or is cancelled.
        self.armed = False
        self.time = 0.0
        self.seq = -1
        #: Sequence number and time of the live heap entry, if any.
        self._carrier = -1
        self._carrier_time = _INF

    def arm(self, delay: float, *args: Any) -> None:
        """(Re)start the timer: fire ``callback(*args)`` ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sim = self._sim
        when = sim.now + delay
        seq = sim._seq
        sim._seq = seq + 1
        self.armed = True
        self.time = when
        self.seq = seq
        self.args = args
        if when < self._carrier_time:
            self._carrier = seq
            self._carrier_time = when
            heappush(sim._queue, (when, seq, None, self))

    def cancel(self) -> None:
        """Stop the timer.  A no-op when it is not armed (or already fired)."""
        self.armed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"armed t={self.time:.6f}" if self.armed else "idle"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<Timer {name} {state}>"


#: One heap entry: ``(time, seq, callback, args)`` or ``(time, seq, None, timer)``.
Entry = Tuple[float, int, Optional[Callable[..., Any]], Any]


class Simulator:
    """A deterministic discrete-event scheduler.

    Typical usage::

        sim = Simulator()
        sim.post(0.010, handler, arg1, arg2)       # 10 ms, one-shot
        rto = sim.timer(on_timeout); rto.arm(0.2)  # cancellable, re-armable
        sim.run()                                   # until queue drains

    The simulator is intentionally minimal: no processes, no channels.
    Higher-level abstractions (links, connections) are plain objects that
    schedule callbacks.
    """

    def __init__(self) -> None:
        self._queue: List[Entry] = []
        self._seq = 0
        #: Current simulated time in seconds.  A plain attribute: the run
        #: loop writes it before each callback and everything else reads it.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._event_count = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of events that have fired (cancelled ones excluded)."""
        return self._event_count

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative.  The callback cannot be
        cancelled; use :meth:`timer` for one that may be.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, seq, callback, args))

    def post_at(self, when: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at t={when} before now={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (when, seq, callback, args))

    def timer(self, callback: Callable[..., Any]) -> Timer:
        """A re-armable :class:`Timer` for ``callback`` (created idle)."""
        return Timer(self, callback)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in order.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this time; the clock is then advanced to ``until`` (unless a
            callback called :meth:`stop`).
        max_events:
            Safety valve for tests: raise :class:`SimulationError` if more
            than this many events fire.
        """
        ended_early = self._loop(_INF if until is None else until, max_events)
        if until is not None and not ended_early and self.now < until:
            self.now = until

    def run_until(self, predicate: Callable[[], bool], timeout: float,
                  max_events: Optional[int] = None) -> bool:
        """Run until ``predicate()`` becomes true or ``timeout`` is reached.

        Returns ``True`` if the predicate was satisfied.  The predicate is
        checked after every event, so it sees a consistent world.  A
        callback that knows when the run is over calls :meth:`stop`
        instead, which costs nothing per event.
        """
        if predicate():
            return True
        deadline = self.now + timeout
        if not self._loop(deadline, max_events, predicate) and self.now < deadline:
            self.now = deadline
        return predicate()

    def stop(self) -> None:
        """Make the running :meth:`run` / :meth:`run_until` return once the
        current callback does; queued events stay queued and the clock
        stays at the current event.  A no-op when nothing is running."""
        self._stopped = True

    def _loop(self, deadline: float, max_events: Optional[int],
              predicate: Optional[Callable[[], bool]] = None) -> bool:
        """The event loop; True if :meth:`stop` or ``predicate`` ended it."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = heappop
        limit = _INF if max_events is None else max_events
        fired = 0
        # The loop below maintains ``_event_count`` in the local ``fired``
        # and flushes it on exit — nothing observes the counter mid-run.
        try:
            while queue:
                entry = queue[0]
                when = entry[0]
                if when > deadline:
                    break
                pop(queue)
                callback = entry[2]
                if callback is None:
                    timer = entry[3]
                    seq = entry[1]
                    if seq != timer._carrier:
                        continue  # superseded by an earlier carrier
                    if not timer.armed:
                        timer._carrier_time = _INF
                        continue  # cancelled
                    if seq != timer.seq:
                        # Deadline was pushed out: carry it to the
                        # (time, seq) the last arm() drew.
                        timer._carrier = timer.seq
                        timer._carrier_time = timer.time
                        heappush(queue, (timer.time, timer.seq, None, timer))
                        continue
                    timer.armed = False
                    timer._carrier_time = _INF
                    callback = timer.callback
                    args = timer.args
                else:
                    args = entry[3]
                self.now = when
                fired += 1
                if fired > limit:
                    raise SimulationError(f"exceeded max_events={max_events}")
                callback(*args)
                if self._stopped or (predicate is not None and predicate()):
                    return True
            return False
        finally:
            self._event_count += fired
            self._running = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.6f} queued={len(self._queue)}>"
