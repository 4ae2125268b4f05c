"""Interval algebra: construction, containment, hull, decrement."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faultcast import INF, Interval, InvalidIntervalError, format_extnat, parse_extnat

bounds = st.one_of(st.integers(min_value=0, max_value=30), st.just(INF))


@st.composite
def intervals(draw):
    a = draw(bounds)
    b = draw(bounds)
    return Interval(min(a, b), max(a, b))


def test_construction_accepts_ordered_bounds():
    assert Interval(1, 2).lo == 1
    assert Interval(0, 0).hi == 0
    assert Interval(3, INF).hi == INF
    assert Interval(INF, INF).lo == INF


def test_construction_rejects_bad_bounds():
    with pytest.raises(InvalidIntervalError):
        Interval(2, 1)
    with pytest.raises(InvalidIntervalError):
        Interval(INF, 3)
    with pytest.raises(InvalidIntervalError):
        Interval(-1, 2)
    with pytest.raises(InvalidIntervalError):
        Interval(0.5, 2)


def test_decrement_saturates_at_zero_and_infinity():
    assert Interval(1, 2).decrement() == Interval(0, 1)
    assert Interval(0, 0).decrement() == Interval(0, 0)
    assert Interval(0, 1).decrement() == Interval(0, 0)
    assert Interval(2, INF).decrement() == Interval(1, INF)
    assert Interval(INF, INF).decrement() == Interval(INF, INF)


def test_subset_examples():
    assert Interval(1, 2).issubset(Interval(1, 2))
    assert Interval(1, 2).issubset(Interval(0, 3))
    assert not Interval(1, 2).is_proper_subset(Interval(1, 2))
    assert Interval(2, 2).is_proper_subset(Interval(1, 2))
    assert Interval(2, 2).is_proper_subset(Interval(2, INF))
    assert not Interval(0, 3).issubset(Interval(1, 3))
    assert Interval(1, 1) < Interval(0, 1)
    assert Interval(1, 2) <= Interval(1, 2)


def test_hull_examples():
    assert Interval(1, 2).hull(Interval(3, 5)) == Interval(1, 5)
    assert Interval(0, INF).hull(Interval(2, 3)) == Interval(0, INF)
    assert Interval.hull_of([Interval(2, 2), Interval(1, 4), Interval(3, 3)]) == Interval(1, 4)
    with pytest.raises(ValueError):
        Interval.hull_of([])


def test_extnat_formatting_round_trip():
    assert format_extnat(INF) == "inf"
    assert format_extnat(7) == "7"
    assert parse_extnat("inf") == INF
    assert parse_extnat("12") == 12
    for text in ["-3", "x", "+3", " 3", "3 ", "1_000", "\u0663", "", "Inf", "3.0"]:
        with pytest.raises(ValueError):
            parse_extnat(text)


@given(intervals(), intervals())
def test_hull_is_least_upper_bound(a, b):
    h = a.hull(b)
    assert a.issubset(h) and b.issubset(h)
    # Least: shrinking either end of the hull loses one operand.
    assert h.lo == min(a.lo, b.lo) and h.hi == max(a.hi, b.hi)


@given(intervals(), intervals())
def test_hull_commutes(a, b):
    assert a.hull(b) == b.hull(a)


@given(intervals(), intervals(), intervals())
def test_hull_associates(a, b, c):
    assert a.hull(b).hull(c) == a.hull(b.hull(c))


@given(intervals())
def test_hull_idempotent(a):
    assert a.hull(a) == a


@given(intervals(), intervals(), intervals())
def test_subset_is_a_partial_order(a, b, c):
    assert a.issubset(a)
    if a.issubset(b) and b.issubset(a):
        assert a == b
    if a.issubset(b) and b.issubset(c):
        assert a.issubset(c)


@given(intervals(), intervals())
def test_decrement_preserves_containment(a, b):
    if a.issubset(b):
        assert a.decrement().issubset(b.decrement())


@given(intervals())
def test_decrement_never_grows_bounds(a):
    d = a.decrement()
    assert d.lo <= a.lo and d.hi <= a.hi
