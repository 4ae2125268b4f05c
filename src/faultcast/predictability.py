"""Deciding how early and how tightly a fault can be announced.

A model is (i, j)-predictable when a monitor can raise an alarm at least i
observations before any fault while promising the fault within j
observations, and be right every time.  The decision reduces to the
confusable-pair relation: the alarm is impossible exactly when some
reachable pair of confusable states spans an interval strictly larger
than (i, j), because the monitor cannot tell the early world from the
late one.  An extra gate i <= dmin(initial) rules out alarms earlier than
the system's own distance to the fault.

The frontier is the rule that answers queries.  For each achievable lead
time i it holds the tightest honest promise p[i], finite or not; a
verdict, for a finite or an unbounded promise, reads p[i] and p[i - 1].
The distinct pair hulls stay as the explanatory inventory: a refusal
names the first of them, tightest lead time first, that strictly
contains the query, found by bisecting each row's tuple of upper ends.
Every other verdict is one of two shared constants.  A hull's witness is
replayed from the twin's parent links only when it is read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from .distances import DistanceTable, compute_distances
from .errors import InvalidIntervalError
from .intervals import INF, ExtNat, Interval
from .model import DesModel
from .twin import Pair, TwinReachability, build_twin, witness_observations


@dataclass(frozen=True)
class HullEntry:
    """One distinct pair hull: the interval and a pair achieving it.  The
    twin, outside equality and hashing, replays the witness on read."""

    interval: Interval
    pair: Pair
    twin: TwinReachability = field(repr=False, compare=False)

    @property
    def witness(self) -> tuple[int, ...] | None:
        """A shortest observation sequence reaching the pair; None without links."""
        links = self.twin.parents
        return None if links is None else tuple(witness_observations(self.twin, self.pair))


@dataclass(frozen=True)
class PredictabilityFrontier:
    """Everything needed to answer predictability queries for one model.

    ``rows[lo]`` holds the hulls with lower bound ``lo``, for every lead
    time the frontier covers, by ascending upper bound, and ``ends[lo]``
    their upper bounds, the keys a refusal bisects.
    """

    dmin_init: ExtNat
    vacuous: bool
    p: tuple[ExtNat, ...]
    hulls: tuple[HullEntry, ...]
    rows: tuple[tuple[HullEntry, ...], ...]
    ends: tuple[tuple[ExtNat, ...], ...]


@dataclass(frozen=True)
class QueryVerdict:
    predictable: bool
    blocking: Optional[HullEntry]


# The verdicts that name no hull, shared by every query that gives them.
_PREDICTABLE = QueryVerdict(True, None)
_OUT_OF_REACH = QueryVerdict(False, None)


def compute_frontier(
    model: DesModel, table: DistanceTable, twin: TwinReachability
) -> PredictabilityFrontier:
    """Aggregate the reachable pair hulls into the frontier.

    Pair hulls with an infinite lower bound cannot block any query (a
    query's lead time is finite) and are dropped.  Hulls are deduplicated
    by interval, keeping the least pair code, the first pair in canonical
    order, and listed by descending lower bound (ties by ascending upper
    bound), the order in which a refusal looks for its blocking hull.
    p covers lead times 0 .. dmin(initial) < |Q|, or 0 .. |Q| with p[i] = i when fault-free.
    """
    dmin, dmax = table.dmin, table.dmax
    n = twin.size
    first: dict[tuple[ExtNat, ExtNat], int] = {}
    for code in twin.codes:
        q1, q2 = divmod(code, n)
        lo, other = dmin[q1], dmin[q2]
        if other < lo:
            lo = other
        if lo == INF:
            continue
        hi, other = dmax[q1], dmax[q2]
        if other > hi:
            hi = other
        best = first.get((lo, hi))
        if best is None or code < best:
            first[(lo, hi)] = code

    dmin_init = table.dmin[model.initial]
    vacuous = dmin_init == INF
    limit = len(model.states) if vacuous else dmin_init
    rows: list[list[HullEntry]] = [[] for _ in range(limit + 1)]
    hulls = []
    for lo, hi in sorted(first, key=lambda hull: (-hull[0], hull[1])):
        entry = HullEntry(Interval(lo, hi), divmod(first[(lo, hi)], n), twin)
        hulls.append(entry)
        if lo <= limit:
            rows[lo].append(entry)
    ends = tuple(tuple(entry.interval.hi for entry in row) for row in rows)
    # At lead time i a hull of row i refuses promises below its end, and a
    # hull of a lower row refuses promises up to and including its end.
    tops = [row[-1] if row else -1 for row in ends]
    below = accumulate([-1, *tops], max)  # the widest end over rows < i
    p = tuple(max(i, top, low + 1) for i, (top, low) in enumerate(zip(tops, below)))
    return PredictabilityFrontier(
        dmin_init=dmin_init,
        vacuous=vacuous,
        p=p,
        hulls=tuple(hulls),
        rows=tuple(map(tuple, rows)),
        ends=ends,
    )


def _check_lead_time(i: object) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise InvalidIntervalError(f"lead time must be a finite natural: {i!r}")


def is_ij_predictable(
    frontier: PredictabilityFrontier, i: int, j: ExtNat
) -> QueryVerdict:
    """Can a correct alarm come i observations early with a j bound?

    True when the model is fault-free (vacuously), and otherwise when the
    lead time is at most the initial state's fault distance, j >= p[i],
    and p[i - 1] is finite (for i > 0).  A refusal within reach names its
    blocking hull.
    """
    # Other types, int subclasses included, take the checks that word refusals.
    if not (type(i) is int and i >= 0 and (type(j) is int and j >= i or j == INF)):
        _check_lead_time(i)
        Interval(i, j)  # refuses j < i and a j that is not an extended natural
    if frontier.vacuous:
        return _PREDICTABLE
    if i > frontier.dmin_init:
        return _OUT_OF_REACH
    # p[i - 1] is inf exactly when a hull (lo < i, inf) is reachable; such a
    # hull strictly contains (i, inf), so it refuses every promise.  p never
    # decreases, so for a finite j that case already fails j >= p[i].
    p = frontier.p
    if j >= p[i] and (i == 0 or p[i - 1] != INF):
        return _PREDICTABLE
    return QueryVerdict(False, _blocking(frontier, i, j))


def _blocking(frontier: PredictabilityFrontier, i: int, j: ExtNat) -> Optional[HullEntry]:
    """The first hull, in the frontier's hull order, strictly containing
    (i, j), found by bisecting each row's tuple of upper ends."""
    for lo in range(i, -1, -1):
        ends = frontier.ends[lo]
        # Row i holds (i, j) strictly only above j; lower rows from j on.
        k = (bisect_right if lo == i else bisect_left)(ends, j)
        if k < len(ends):
            return frontier.rows[lo][k]
    return None


def is_i_predictable(frontier: PredictabilityFrontier, i: int) -> bool:
    """Is some finite promise j achievable at lead time i?"""
    if not (type(i) is int and i >= 0):
        _check_lead_time(i)
    return frontier.vacuous or (i <= frontier.dmin_init and frontier.p[i] != INF)


def best_horizon(frontier: PredictabilityFrontier) -> Optional[tuple[int, ExtNat]]:
    """The largest achievable lead time with its tightest promise.

    None when the model is fault-free (every horizon is vacuously fine,
    none is informative) and when no lead time admits a finite promise,
    which happens when some reachable hull starts at 0 and never ends.
    """
    if frontier.vacuous:
        return None
    finite = [i for i, p in enumerate(frontier.p) if p != INF]
    return (finite[-1], frontier.p[finite[-1]]) if finite else None


@dataclass(frozen=True)
class Analysis:
    """One-stop bundle: model, distances, twin relation, and frontier."""

    model: DesModel
    table: DistanceTable
    twin: TwinReachability
    frontier: PredictabilityFrontier


def analyze(model: DesModel, *, witnesses: bool = False) -> Analysis:
    """Run the full pipeline on a validated model."""
    table = compute_distances(model)
    twin = build_twin(model, witnesses=witnesses)
    frontier = compute_frontier(model, table, twin)
    return Analysis(model=model, table=table, twin=twin, frontier=frontier)
