"""Interval construction, bound formatting, and the laws of the test
suite's containment and decrement helpers.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faultcast import INF, Interval, InvalidIntervalError, format_extnat, parse_extnat

from helpers import decrement, is_proper_subset, issubset

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


@pytest.mark.parametrize(
    "lo, hi, message",
    [
        (INF, 1, "lower bound exceeds upper bound: (inf, 1)"),
        (2, 1, "lower bound exceeds upper bound: (2, 1)"),
        (-1, 2, "bounds must be naturals or inf: (-1, 2)"),
    ],
)
def test_refusals_name_both_bounds(lo, hi, message):
    with pytest.raises(InvalidIntervalError) as caught:
        Interval(lo, hi)
    assert str(caught.value) == message


def test_decrement_saturates_at_zero_and_infinity():
    assert decrement(Interval(1, 2)) == Interval(0, 1)
    assert decrement(Interval(0, 0)) == Interval(0, 0)
    assert decrement(Interval(0, 1)) == Interval(0, 0)
    assert decrement(Interval(2, INF)) == Interval(1, INF)
    assert decrement(Interval(INF, INF)) == Interval(INF, INF)


def test_subset_examples():
    assert issubset(Interval(1, 2), Interval(1, 2))
    assert issubset(Interval(1, 2), Interval(0, 3))
    assert not is_proper_subset(Interval(1, 2), Interval(1, 2))
    assert is_proper_subset(Interval(2, 2), Interval(1, 2))
    assert is_proper_subset(Interval(2, 2), Interval(2, INF))
    assert not issubset(Interval(0, 3), Interval(1, 3))
    assert is_proper_subset(Interval(1, 1), Interval(0, 1))


def test_extnat_formatting_round_trip():
    assert format_extnat(INF) == "inf"
    assert format_extnat(7) == "7"
    assert parse_extnat("inf") == INF
    assert parse_extnat("12") == 12
    for text in ["-3", "x", "+3", " 3", "3 ", "1_000", "\u0663", "", "Inf", "3.0"]:
        with pytest.raises(ValueError):
            parse_extnat(text)


@given(intervals(), intervals(), intervals())
def test_subset_is_a_partial_order(a, b, c):
    assert issubset(a, a)
    if issubset(a, b) and issubset(b, a):
        assert a == b
    if issubset(a, b) and issubset(b, c):
        assert issubset(a, c)


@given(intervals(), intervals())
def test_decrement_preserves_containment(a, b):
    if issubset(a, b):
        assert issubset(decrement(a), decrement(b))


@given(intervals())
def test_decrement_never_grows_bounds(a):
    d = decrement(a)
    assert d.lo <= a.lo and d.hi <= a.hi
