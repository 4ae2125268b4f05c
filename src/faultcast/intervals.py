"""Prediction intervals over the naturals extended with infinity.

An interval (lo, hi) is a promise about how many more observable events
will occur before the system is inside the fault set: at least lo and at
most hi.  Both bounds live in the naturals extended with INF, and lo = INF
forces hi = INF (the fault may never come).  The lattice operations here
(containment, convex hull) and the saturating decrement are the whole
algebra the predictor needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import InvalidIntervalError

#: The distinguished infinity.  Bounds are ints except for this one float.
INF = math.inf

#: An extended natural: a non-negative int, or INF.
ExtNat = Union[int, float]


def is_extnat(value: object) -> bool:
    """True when value is a non-negative int or the INF sentinel."""
    if value == INF:
        return True
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def format_extnat(value: ExtNat) -> str:
    """Render a bound for text and JSON output ("inf" or decimal digits)."""
    return "inf" if value == INF else str(value)


def parse_extnat(text: str) -> ExtNat:
    """Inverse of format_extnat: exactly "inf" or ASCII decimal digits, else ValueError."""
    if text == "inf":
        return INF
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural number or inf: {text!r}")
    return int(text)


@dataclass(frozen=True)
class Interval:
    """A closed interval (lo, hi) of extended naturals with lo <= hi."""

    lo: ExtNat
    hi: ExtNat

    def __post_init__(self) -> None:
        if not is_extnat(self.lo) or not is_extnat(self.hi):
            raise InvalidIntervalError(
                f"bounds must be naturals or inf: ({self.lo}, {self.hi})"
            )
        if self.lo > self.hi:
            raise InvalidIntervalError(
                f"lower bound exceeds upper bound: ({self.lo}, {self.hi})"
            )

    def decrement(self) -> "Interval":
        """Shift the promise one observation into the future.

        Each bound drops by one, saturating so that 0 and INF are fixed
        points.  After seeing one more event, "at least lo / at most hi
        more" becomes "at least lo-1 / at most hi-1 more".
        """
        return Interval(_dec(self.lo), _dec(self.hi))

    def issubset(self, other: "Interval") -> bool:
        """Containment: every point of self lies inside other."""
        return other.lo <= self.lo and self.hi <= other.hi

    def is_proper_subset(self, other: "Interval") -> bool:
        """Strict containment: contained and not equal."""
        return self.issubset(other) and self != other

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    @classmethod
    def hull_of(cls, intervals: Iterable["Interval"]) -> "Interval":
        """Hull of a non-empty collection."""
        it = iter(intervals)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("hull_of needs at least one interval") from None
        for iv in it:
            acc = acc.hull(iv)
        return acc

    def __le__(self, other: "Interval") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Interval") -> bool:
        return self.is_proper_subset(other)

    def __str__(self) -> str:
        return f"({format_extnat(self.lo)}, {format_extnat(self.hi)})"


def _dec(value: ExtNat) -> ExtNat:
    if value == INF or value == 0:
        return value
    return value - 1
