"""Host description and the host-speed calibration the timings are scaled by.

The sandbox's CPU speed drifts by ±20 % on a ten-second timescale (a
fixed pure-Python loop reads 72–117 ms for the same work), which is more
than any bound this benchmark gates on.  Every timed interval is
therefore interleaved with short *calibration slices* — a fixed kernel
owned by this file, half integer arithmetic and half heap/object churn
like the simulator's event loop — and reported in **reference seconds**:
``measured × REFERENCE_SLICE_S ÷ mean slice time over that interval``.
The kernel touches no ``repro`` code, so a product change cannot move it;
on the host that produced ``REFERENCE_SLICE_S`` reference seconds equal
wall seconds.  Raw seconds and the factor are kept in every result.
"""

from __future__ import annotations

import heapq
import os
import platform
import time
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, NamedTuple, \
    Optional, Tuple

from repro.core.executor import usable_cpu_count

#: Thread-CPU seconds one slice takes on the reference host (the 2-core
#: sandbox at its unloaded floor, Python 3.11).  A constant, not a
#: measurement: changing it rescales every reported time.
REFERENCE_SLICE_S = 0.006
#: Wall seconds between slices inside a paced loop (~4 % overhead, which
#: is timed and subtracted).
SLICE_INTERVAL_S = 0.15

_ARITH_ITERATIONS = 50_000
_HEAP_EVENTS = 1_200
_HEAP_DEPTH = 256


class _Item:
    """A heap entry shaped like a simulator event (compared by a method)."""

    __slots__ = ("when", "seq", "payload")

    def __init__(self, when: float, seq: int, payload: Tuple[int, str]) -> None:
        self.when = when
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Item") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def calibration_slice() -> float:
    """Run the fixed kernel once; thread-CPU seconds it took.

    Thread CPU time, not wall: a slice taken while pool workers hold
    both cores must not count the time it waited for a core.
    """
    start = time.thread_time()
    acc = 0
    for i in range(_ARITH_ITERATIONS):
        acc += i * i % 7
    heap: List[_Item] = []
    seen: Dict[int, Tuple[int, str]] = {}
    for i in range(_HEAP_DEPTH):
        heapq.heappush(heap, _Item((i * 37 % 101) / 101.0, i, (i, "x")))
    seq = _HEAP_DEPTH
    for _ in range(_HEAP_EVENTS):
        item = heapq.heappop(heap)
        seen[item.seq & 1023] = item.payload
        seq += 1
        heapq.heappush(heap, _Item(
            item.when + (seq * 2_654_435_761 % 1000) / 1000.0, seq,
            (seq, "y")))
    if acc < 0 or not seen:  # pragma: no cover - keeps the work observable
        raise AssertionError
    return time.thread_time() - start


class Mark(NamedTuple):
    """Calibration totals at one instant (see :meth:`Pacer.mark`)."""

    slices: int = 0
    cpu_s: float = 0.0
    #: Wall seconds spent inside slices so far.
    wall_s: float = 0.0


class Pacer:
    """Interleaves calibration slices with a timed loop.

    Call :meth:`tick` wherever the loop has control (once per executor
    event); a slice runs when ``SLICE_INTERVAL_S`` has passed since the
    last one.  ``span`` (a tracer's) wraps each slice when tracing.
    """

    def __init__(self, span: Callable[[str], ContextManager[Any]]
                 = lambda name: nullcontext()) -> None:
        self._mark = Mark()
        self._next = 0.0
        self._span = span

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.slice()

    def slice(self) -> None:
        with self._span("bench.calibrate"):
            start = time.perf_counter()
            cpu_s = calibration_slice()
            end = time.perf_counter()
        self._mark = Mark(self._mark.slices + 1, self._mark.cpu_s + cpu_s,
                          self._mark.wall_s + end - start)
        self._next = end + SLICE_INTERVAL_S

    def mark(self) -> Mark:
        return self._mark


def speed_factor(before: Mark, after: Mark) -> float:
    """Host slowness over an interval: mean slice time ÷ the reference."""
    slices = after.slices - before.slices
    if slices <= 0:
        raise ValueError("an interval needs at least one calibration slice")
    return (after.cpu_s - before.cpu_s) / slices / REFERENCE_SLICE_S


def reference_seconds(raw_s: float, before: Mark, after: Mark,
                      calibrated_until: Optional[Mark] = None) -> float:
    """``raw_s`` measured between two marks, in reference seconds: net of
    the slices inside it, over the speed factor of ``before`` ..
    ``calibrated_until`` (default ``after``; later when the interval's
    closing slice was taken just past its end)."""
    return ((raw_s - (after.wall_s - before.wall_s))
            / speed_factor(before, calibrated_until or after))


def describe_host() -> Dict[str, Any]:
    """What a reader needs to judge whether two results are comparable."""
    rates = sorted(calibration_slice() for _ in range(5))
    try:
        load_1min = os.getloadavg()[0]
    except OSError:  # pragma: no cover - platform without loadavg
        load_1min = -1.0
    return {
        "nproc": os.cpu_count() or 1,
        "usable_cpu_count": usable_cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_slices_per_s": 1.0 / rates[len(rates) // 2],
        "reference_slice_s": REFERENCE_SLICE_S,
        "load_1min": load_1min,
        "network": "loopback only (127.0.0.1); no real link is crossed",
    }
