"""Shared transport utilities.

:class:`RangeSet` tracks sets of half-open integer intervals.  It backs

* QUIC stream reassembly (which byte ranges of a stream have arrived),
* TCP out-of-order queues and SACK block generation,
* ACK-block bookkeeping for QUIC packet numbers.

The structure keeps a sorted list of disjoint ``[lo, hi)`` ranges and is
exercised heavily by hypothesis property tests.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple

Range = Tuple[int, int]

#: Sorts after every ``hi`` in ``(lo, hi)``: ``bisect_right(ranges,
#: (value, INF)) - 1`` is the last range starting at or before ``value``.
INF = float("inf")


class RangeSet:
    """A set of non-overlapping half-open integer ranges ``[lo, hi)``.

    Ranges are merged on insertion; adding overlapping or adjacent ranges
    coalesces them.  All query methods run in O(log n) or O(n).
    """

    __slots__ = ("_ranges", "_total")

    def __init__(self, ranges: Optional[Iterable[Range]] = None) -> None:
        self._ranges: List[Range] = []
        self._total = 0
        if ranges:
            for lo, hi in ranges:
                self.add(lo, hi)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, lo: int, hi: int) -> int:
        """Insert ``[lo, hi)``; returns the number of *newly covered* units.

        Adding an empty or inverted range is a no-op returning 0.
        """
        if hi <= lo:
            return 0
        # Fast path: insertion at or beyond the last range.  In-order
        # delivery (the common case on every receive path) only ever
        # appends to or extends the final range, so skip the bisect.
        ranges = self._ranges
        if ranges:
            last_lo, last_hi = ranges[-1]
            if lo >= last_lo:
                if lo > last_hi:
                    ranges.append((lo, hi))
                    self._total += hi - lo
                    return hi - lo
                if hi <= last_hi:
                    return 0
                ranges[-1] = (last_lo, hi)
                added = hi - last_hi
                self._total += added
                return added
        # Find all ranges overlapping or adjacent to [lo, hi).
        i = bisect.bisect_left(self._ranges, (lo, lo)) - 1
        if i >= 0 and self._ranges[i][1] >= lo:
            start = i
        else:
            start = i + 1
        j = start
        new_lo, new_hi = lo, hi
        overlapped = 0
        while j < len(self._ranges) and self._ranges[j][0] <= hi:
            r_lo, r_hi = self._ranges[j]
            overlapped += r_hi - r_lo
            if r_lo < new_lo:
                new_lo = r_lo
            if r_hi > new_hi:
                new_hi = r_hi
            j += 1
        self._ranges[start:j] = [(new_lo, new_hi)]
        added = (new_hi - new_lo) - overlapped
        self._total += added
        return added

    def trim_below(self, value: int) -> None:
        """Drop every range that ends at or below ``value``.

        A range reaching past ``value`` stays whole.  The dropped ranges
        lead the list, so the cost is proportional to what is dropped.
        """
        ranges = self._ranges
        n = 0
        for lo, hi in ranges:
            if hi > value:
                break
            self._total -= hi - lo
            n += 1
        if n:
            del ranges[:n]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def total(self) -> int:
        """Total number of covered integer units (O(1), kept incrementally)."""
        return self._total

    def contains(self, value: int) -> bool:
        """True if ``value`` lies inside a covered range."""
        i = bisect.bisect_right(self._ranges, (value, INF)) - 1
        return i >= 0 and self._ranges[i][0] <= value < self._ranges[i][1]

    def containing(self, value: int) -> Optional[Range]:
        """The covered range holding ``value``, or None."""
        i = bisect.bisect_right(self._ranges, (value, INF)) - 1
        if i >= 0 and self._ranges[i][0] <= value < self._ranges[i][1]:
            return self._ranges[i]
        return None

    def covers(self, lo: int, hi: int) -> bool:
        """True if the whole ``[lo, hi)`` range is covered."""
        if hi <= lo:
            return True
        ranges = self._ranges
        # Fast path: new data at or past the end (in-order arrivals).
        if not ranges or lo >= ranges[-1][1]:
            return False
        i = bisect.bisect_right(ranges, (lo, INF)) - 1
        return i >= 0 and ranges[i][0] <= lo and ranges[i][1] >= hi

    def overlaps(self, lo: int, hi: int) -> bool:
        """True if any part of ``[lo, hi)`` is already covered."""
        if hi <= lo:
            return False
        i = bisect.bisect_left(self._ranges, (lo, lo)) - 1
        if i >= 0 and self._ranges[i][1] > lo:
            return True
        j = i + 1
        return j < len(self._ranges) and self._ranges[j][0] < hi

    def covered_above(self, value: int) -> int:
        """Number of covered units at or above ``value``.

        O(log n + ranges above ``value``).
        """
        ranges = self._ranges
        i = bisect.bisect_right(ranges, (value, INF))
        total = 0
        for lo, hi in ranges[i:]:
            total += hi - lo
        if i and ranges[i - 1][1] > value:
            total += ranges[i - 1][1] - value
        return total

    def contiguous_from(self, origin: int = 0) -> int:
        """Highest value ``x`` such that ``[origin, x)`` is fully covered.

        This is TCP's ``rcv_nxt`` computation: the in-order delivery
        frontier given out-of-order arrivals.
        """
        ranges = self._ranges
        # Fast path: the origin inside the first range (TCP's rcv_nxt).
        if ranges and ranges[0][0] <= origin < ranges[0][1]:
            return ranges[0][1]
        i = bisect.bisect_right(ranges, (origin, INF)) - 1
        if i >= 0 and ranges[i][0] <= origin < ranges[i][1]:
            return ranges[i][1]
        if i + 1 < len(ranges) and ranges[i + 1][0] == origin:
            return ranges[i + 1][1]
        return origin

    def gaps(self, lo: int, hi: int) -> List[Range]:
        """Uncovered sub-ranges of ``[lo, hi)`` (O(log n + gaps found))."""
        out: List[Range] = []
        if hi <= lo:
            return out
        ranges = self._ranges
        # Start at the range holding ``lo`` if there is one, else the next.
        first = bisect.bisect_right(ranges, (lo, INF)) - 1
        if first < 0 or ranges[first][1] <= lo:
            first += 1
        cursor = lo
        for i in range(first, len(ranges)):
            r_lo, r_hi = ranges[i]
            if r_lo >= hi:
                break
            if r_lo > cursor:
                out.append((cursor, r_lo))
            cursor = r_hi
            if cursor >= hi:
                return out
        out.append((cursor, hi))
        return out

    def ranges(self) -> List[Range]:
        """A copy of the covered ranges, ascending."""
        return list(self._ranges)

    def tail(self, n: int) -> List[Range]:
        """The last ``n`` covered ranges, ascending (a copy of just those);
        none for ``n <= 0``."""
        return self._ranges[-n:] if n > 0 else []

    def max_covered(self) -> Optional[int]:
        """Highest covered value + 1 (i.e. the end of the last range)."""
        if not self._ranges:
            return None
        return self._ranges[-1][1]

    def __iter__(self) -> Iterator[Range]:
        return iter(self._ranges)

    def __len__(self) -> int:
        return len(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._ranges == other._ranges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"[{lo},{hi})" for lo, hi in self._ranges[:8])
        more = "..." if len(self._ranges) > 8 else ""
        return f"<RangeSet {inner}{more}>"
