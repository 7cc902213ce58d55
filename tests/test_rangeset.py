"""Unit and property-based tests for the interval set backing both transports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.util import RangeSet


class TestBasics:
    def test_empty(self):
        rs = RangeSet()
        assert rs.total() == 0
        assert not rs
        assert len(rs) == 0
        assert rs.max_covered() is None

    def test_single_add(self):
        rs = RangeSet()
        assert rs.add(5, 10) == 5
        assert rs.total() == 5
        assert rs.ranges() == [(5, 10)]

    def test_empty_or_inverted_add_is_noop(self):
        rs = RangeSet()
        assert rs.add(5, 5) == 0
        assert rs.add(7, 3) == 0
        assert rs.total() == 0

    def test_disjoint_adds(self):
        rs = RangeSet([(0, 5), (10, 15)])
        assert rs.total() == 10
        assert len(rs) == 2

    def test_adjacent_ranges_merge(self):
        rs = RangeSet()
        rs.add(0, 5)
        rs.add(5, 10)
        assert rs.ranges() == [(0, 10)]

    def test_overlapping_adds_count_only_new(self):
        rs = RangeSet()
        rs.add(0, 10)
        assert rs.add(5, 15) == 5
        assert rs.ranges() == [(0, 15)]

    def test_bridging_add_merges_three(self):
        rs = RangeSet([(0, 5), (10, 15)])
        assert rs.add(4, 11) == 5
        assert rs.ranges() == [(0, 15)]

    def test_fully_contained_add(self):
        rs = RangeSet([(0, 100)])
        assert rs.add(10, 20) == 0
        assert rs.ranges() == [(0, 100)]


class TestQueries:
    def test_contains(self):
        rs = RangeSet([(5, 10)])
        assert not rs.contains(4)
        assert rs.contains(5)
        assert rs.contains(9)
        assert not rs.contains(10)

    def test_containing(self):
        rs = RangeSet([(5, 10), (20, 30)])
        assert rs.containing(7) == (5, 10)
        assert rs.containing(20) == (20, 30)
        assert rs.containing(15) is None
        assert rs.containing(10) is None

    def test_covers(self):
        rs = RangeSet([(0, 10), (20, 30)])
        assert rs.covers(0, 10)
        assert rs.covers(2, 8)
        assert not rs.covers(5, 25)
        assert not rs.covers(15, 18)
        assert rs.covers(7, 7)  # empty range always covered

    def test_overlaps(self):
        rs = RangeSet([(10, 20)])
        assert rs.overlaps(15, 25)
        assert rs.overlaps(5, 11)
        assert not rs.overlaps(0, 10)
        assert not rs.overlaps(20, 30)
        assert not rs.overlaps(5, 5)

    def test_contiguous_from(self):
        rs = RangeSet([(0, 10), (15, 20)])
        assert rs.contiguous_from(0) == 10
        assert rs.contiguous_from(15) == 20
        assert rs.contiguous_from(12) == 12
        assert rs.contiguous_from(10) == 10

    def test_contiguous_from_merges_through(self):
        rs = RangeSet([(0, 10)])
        rs.add(10, 20)
        assert rs.contiguous_from(0) == 20

    def test_gaps(self):
        rs = RangeSet([(5, 10), (15, 20)])
        assert rs.gaps(0, 25) == [(0, 5), (10, 15), (20, 25)]
        assert rs.gaps(5, 20) == [(10, 15)]
        assert rs.gaps(6, 9) == []
        assert RangeSet().gaps(3, 7) == [(3, 7)]

    def test_max_covered(self):
        rs = RangeSet([(0, 5), (10, 20)])
        assert rs.max_covered() == 20

    def test_tail(self):
        rs = RangeSet([(0, 2), (4, 6), (8, 9)])
        assert rs.tail(2) == [(4, 6), (8, 9)]
        assert rs.tail(5) == [(0, 2), (4, 6), (8, 9)]
        # A non-positive count asks for no ranges (``[-0:]`` is all).
        assert rs.tail(0) == []
        assert rs.tail(-1) == []

    def test_covered_above(self):
        rs = RangeSet([(5, 10), (15, 20)])
        assert rs.covered_above(0) == 10
        assert rs.covered_above(7) == 8
        assert rs.covered_above(10) == 5
        assert rs.covered_above(20) == 0

    def test_trim_below_drops_whole_ranges_only(self):
        rs = RangeSet([(0, 5), (10, 20), (30, 40)])
        rs.trim_below(10)
        assert rs.ranges() == [(10, 20), (30, 40)]
        rs.trim_below(15)  # (10, 20) reaches past 15: it stays whole
        assert rs.ranges() == [(10, 20), (30, 40)]
        assert rs.total() == 20
        rs.trim_below(40)
        assert not rs and rs.total() == 0

    def test_equality(self):
        assert RangeSet([(0, 5)]) == RangeSet([(0, 3), (3, 5)])
        assert RangeSet([(0, 5)]) != RangeSet([(0, 6)])


# ----------------------------------------------------------------------
# property-based tests against a naive set-of-integers model
# ----------------------------------------------------------------------
ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(0, 60)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    min_size=0,
    max_size=30,
)


def naive(ranges):
    covered = set()
    for lo, hi in ranges:
        covered.update(range(lo, hi))
    return covered


@settings(max_examples=200, deadline=None)
@given(ranges_strategy)
def test_total_matches_naive_model(ranges):
    rs = RangeSet()
    for lo, hi in ranges:
        rs.add(lo, hi)
    assert rs.total() == len(naive(ranges))


@settings(max_examples=200, deadline=None)
@given(ranges_strategy, st.integers(0, 260))
def test_contains_matches_naive_model(ranges, probe):
    rs = RangeSet(ranges)
    assert rs.contains(probe) == (probe in naive(ranges))


@settings(max_examples=200, deadline=None)
@given(ranges_strategy)
def test_ranges_are_sorted_disjoint_nonempty(ranges):
    rs = RangeSet(ranges)
    out = rs.ranges()
    for lo, hi in out:
        assert lo < hi
    for (l1, h1), (l2, h2) in zip(out, out[1:]):
        assert h1 < l2  # strictly disjoint, non-adjacent


@settings(max_examples=200, deadline=None)
@given(ranges_strategy, st.integers(0, 260))
def test_contiguous_from_matches_naive(ranges, origin):
    covered = naive(ranges)
    expected = origin
    while expected in covered:
        expected += 1
    assert RangeSet(ranges).contiguous_from(origin) == expected


@settings(max_examples=400, deadline=None)
@given(ranges_strategy, st.integers(0, 300), st.integers(0, 300))
def test_gaps_partition_matches_naive(ranges, lo, hi):
    """``lo`` / ``hi`` inside, between and beyond the ranges, and
    ``hi <= lo``: exactly the maximal uncovered runs, ascending."""
    covered = naive(ranges)
    expected = []
    for point in range(lo, hi):
        if point in covered:
            continue
        if expected and expected[-1][1] == point:
            expected[-1] = (expected[-1][0], point + 1)
        else:
            expected.append((point, point + 1))
    assert RangeSet(ranges).gaps(lo, hi) == expected


@settings(max_examples=200, deadline=None)
@given(ranges_strategy)
def test_add_return_value_sums_to_total(ranges):
    rs = RangeSet()
    added = sum(rs.add(lo, hi) for lo, hi in ranges)
    assert added == rs.total()


@settings(max_examples=100, deadline=None)
@given(ranges_strategy, st.randoms(use_true_random=False))
def test_insertion_order_irrelevant(ranges, rnd):
    rs1 = RangeSet(ranges)
    shuffled = list(ranges)
    rnd.shuffle(shuffled)
    rs2 = RangeSet(shuffled)
    assert rs1 == rs2


@settings(max_examples=200, deadline=None)
@given(ranges_strategy, st.integers(-3, 35))
def test_tail_matches_naive(ranges, n):
    out = RangeSet(ranges).ranges()
    assert RangeSet(ranges).tail(n) == (out[max(len(out) - n, 0):] if n > 0 else [])


@settings(max_examples=300, deadline=None)
@given(ranges_strategy, st.integers(0, 300))
def test_covered_above_matches_naive(ranges, value):
    assert RangeSet(ranges).covered_above(value) == \
        sum(1 for point in naive(ranges) if point >= value)


@settings(max_examples=300, deadline=None)
@given(ranges_strategy, st.integers(0, 300), ranges_strategy)
def test_trim_below_matches_naive(ranges, value, later):
    """Exactly the ranges ending at or below ``value`` go; the set stays
    a valid ``RangeSet`` for later adds and queries."""
    rs = RangeSet(ranges)
    kept = [(lo, hi) for lo, hi in rs.ranges() if hi > value]
    rs.trim_below(value)
    assert rs.ranges() == kept
    assert rs.total() == len(naive(kept))
    for lo, hi in later:
        rs.add(lo, hi)
    assert rs == RangeSet(kept + later)
    assert rs.total() == len(naive(kept + later))


@settings(max_examples=400, deadline=None)
@given(ranges_strategy, st.integers(0, 300), st.integers(0, 60))
def test_covers_matches_naive(ranges, lo, length):
    """Probes inside, across and past the last range too (the in-order
    fast path answers those without a bisect)."""
    covered = naive(ranges)
    assert RangeSet(ranges).covers(lo, lo + length) == \
        all(point in covered for point in range(lo, lo + length))


@settings(max_examples=200, deadline=None)
@given(ranges_strategy)
def test_contiguous_from_at_every_range_edge(ranges):
    """Origins just before, at, inside and at the end of each range: the
    first range's fast path must agree with the bisect."""
    covered = naive(ranges)
    rs = RangeSet(ranges)
    for lo, hi in rs.ranges():
        for origin in (lo - 1, lo, hi - 1, hi):
            expected = origin
            while expected in covered:
                expected += 1
            assert rs.contiguous_from(origin) == expected
