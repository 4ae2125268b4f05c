"""Wall times scaled by the machine's speed at the moment they were taken.

On a shared machine, other tenants slow everything down for seconds to
minutes at a time, a plain Python loop as much as the program.  A run that
falls inside such a stretch has no fast sample to report, so neither the
fastest nor the median raw wall time repeats from one run to the next.

So the benchmark times a fixed kernel, which never calls the program,
before and after every timed call.  A wall time from start to end is
reported in reference seconds: scaled by REF_S over the median time of
the kernel passes around it (see `Speed.scale`).  A change to the program
moves the call and not the kernel; a slow stretch moves both.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

#: The kernel's time at the reference speed.
REF_S = 0.010
#: A call's scale comes from the kernel passes within one call-length
#: before its start or after its end, and at least this far: the speed
#: estimate averages over as long a stretch as the call itself.
MIN_REACH_S = 0.1

#: The kernel's graph: state q steps to 7q+3, 13q+5 and 29q+1, mod 97.
STATES = 97
SUCC = tuple(
    ((7 * q + 3) % STATES, (13 * q + 5) % STATES, (29 * q + 1) % STATES)
    for q in range(STATES)
)


def kernel() -> int:
    """A depth-first search over the 9,409 ordered pairs of SUCC.

    Set, tuple and list work like the program's own pair and belief
    searches.
    """
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        a, b = todo.pop()
        for x in SUCC[a]:
            for y in SUCC[b][:2]:
                pair = (x, y)
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return len(seen)


class Speed:
    """The kernel passes of one run, as (midpoint, seconds) in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def calibrate(self) -> None:
        # The kernel makes no cycles; a collection it set off would time
        # the heap the program left behind instead of the machine.
        gc.disable()
        t = perf_counter()
        kernel()
        elapsed = perf_counter() - t
        gc.enable()
        self.at.append(t + elapsed / 2)
        self.kernel_s.append(elapsed)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median of the kernel passes within reach of the
        interval, which always include the last pass before it and the
        first after it."""
        at = self.at
        reach = max(MIN_REACH_S, end - start)
        lo = min(bisect_left(at, start - reach), bisect_left(at, start) - 1)
        hi = max(bisect_right(at, end + reach), bisect_right(at, end) + 1)
        return REF_S / statistics.median(self.kernel_s[max(lo, 0) : hi])

    def seconds(self, start: float, end: float) -> float:
        """The wall time from start to end, in reference seconds."""
        return (end - start) * self.scale(start, end)
