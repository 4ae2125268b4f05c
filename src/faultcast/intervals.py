"""Prediction intervals over the naturals extended with infinity.

An interval (lo, hi) is a promise about how many more observable events
will occur before the system is inside the fault set: at least lo and at
most hi.  Both bounds live in the naturals extended with INF, and lo = INF
forces hi = INF (the fault may never come).  Interval is a checked pair
of bounds and nothing more; format_extnat and parse_extnat write and read
one bound as text.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Union

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


class Interval(namedtuple("Interval", "lo hi")):
    """A closed interval (lo, hi) of extended naturals with lo <= hi."""

    __slots__ = ()
    # _replace builds through _make, which checks the bounds as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, lo: ExtNat, hi: ExtNat) -> Interval:
        if not is_extnat(lo) or not is_extnat(hi):
            raise InvalidIntervalError(f"bounds must be naturals or inf: ({lo}, {hi})")
        if lo > hi:
            raise InvalidIntervalError(f"lower bound exceeds upper bound: ({lo}, {hi})")
        return super().__new__(cls, lo, hi)
