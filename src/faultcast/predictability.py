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
time i it holds the tightest honest promise p[i], and for an unbounded
promise it holds inf_floor, the smallest lead time of a never-ending
hull; a verdict is one lookup.  The distinct pair hulls stay as the
explanatory inventory: a refusal names the first of them, tightest lead
time first, that strictly contains the query, found by a per-row lookup.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import attrgetter
from typing import Optional

from .distances import DistanceTable, compute_distances
from .errors import InvalidIntervalError
from .intervals import INF, ExtNat, Interval
from .model import DesModel
from .twin import Pair, TwinReachability, build_twin, witness_observations


@dataclass(frozen=True)
class HullEntry:
    """One distinct pair hull: the interval, a pair achieving it, and an
    optional shortest observation witness for that pair."""

    interval: Interval
    pair: Pair
    witness: tuple[int, ...] | None


@dataclass(frozen=True)
class PredictabilityFrontier:
    """Everything needed to answer predictability queries for one model.

    ``rows[lo]`` holds the hulls with lower bound ``lo``, for every lead
    time the frontier covers, by ascending upper bound.
    """

    dmin_init: ExtNat
    vacuous: bool
    p: tuple[ExtNat, ...]
    inf_floor: ExtNat
    hulls: tuple[HullEntry, ...]
    rows: tuple[tuple[HullEntry, ...], ...]


@dataclass(frozen=True)
class QueryVerdict:
    predictable: bool
    blocking: Optional[HullEntry]


def compute_frontier(
    model: DesModel, table: DistanceTable, twin: TwinReachability
) -> PredictabilityFrontier:
    """Aggregate the reachable pair hulls into the frontier.

    Pair hulls with an infinite lower bound cannot block any query (a
    query's lead time is finite) and are dropped.  Hulls are deduplicated
    by interval, keeping the least pair code, the first pair in canonical
    order, and listed by descending lower bound (ties by ascending upper
    bound), the order in which a refusal looks for its blocking hull.
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
    limit = len(model.states) if vacuous else min(len(model.states), int(dmin_init))
    rows: list[list[HullEntry]] = [[] for _ in range(limit + 1)]
    hulls = []
    for lo, hi in sorted(first, key=lambda hull: (-hull[0], hull[1])):
        pair = divmod(first[(lo, hi)], n)
        witness: tuple[int, ...] | None = None
        if twin.parents is not None:
            witness = tuple(witness_observations(twin, pair))
        entry = HullEntry(Interval(lo, hi), pair, witness)
        hulls.append(entry)
        if lo <= limit:
            rows[lo].append(entry)
    # At lead time i a hull of row i refuses promises below its end, and a
    # hull of a lower row refuses promises up to and including its end.
    tops = [row[-1].interval.hi if row else -1 for row in rows]
    below = accumulate([-1, *tops], max)  # the widest end over rows < i
    p = tuple(max(i, top, low + 1) for i, (top, low) in enumerate(zip(tops, below)))
    inf_floor = min((lo for lo, hi in first if hi == INF), default=INF)
    return PredictabilityFrontier(
        dmin_init=dmin_init,
        vacuous=vacuous,
        p=p,
        inf_floor=inf_floor,
        hulls=tuple(hulls),
        rows=tuple(map(tuple, rows)),
    )


_upper = attrgetter("interval.hi")


def _check_lead_time(i: object) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise InvalidIntervalError(f"lead time must be a finite natural: {i!r}")


def is_ij_predictable(
    frontier: PredictabilityFrontier, i: int, j: ExtNat
) -> QueryVerdict:
    """Can a correct alarm come i observations early with a j bound?

    True when the model is fault-free (vacuously), and otherwise when the
    lead time is at most the initial state's fault distance and j >= p[i],
    or, for j = inf, no never-ending hull starts before i.  A refusal
    within reach names its blocking hull.
    """
    _check_lead_time(i)
    Interval(i, j)  # refuses j < i and a j that is not an extended natural
    if frontier.vacuous:
        return QueryVerdict(True, None)
    if i > frontier.dmin_init:
        return QueryVerdict(False, None)
    if (i <= frontier.inf_floor) if j == INF else (j >= frontier.p[i]):
        return QueryVerdict(True, None)
    return QueryVerdict(False, _blocking(frontier, i, j))


def _blocking(frontier: PredictabilityFrontier, i: int, j: ExtNat) -> Optional[HullEntry]:
    """The first hull, in the frontier's hull order, strictly containing (i, j)."""
    for lo in range(i, -1, -1):
        row = frontier.rows[lo]
        # Row i holds (i, j) strictly only above j; lower rows from j on.
        k = (bisect_right if lo == i else bisect_left)(row, j, key=_upper)
        if k < len(row):
            return row[k]
    return None


def is_i_predictable(frontier: PredictabilityFrontier, i: int) -> bool:
    """Is some finite promise j achievable at lead time i?"""
    _check_lead_time(i)
    return frontier.vacuous or (i <= frontier.dmin_init and frontier.p[i] != INF)


def is_predictable(frontier: PredictabilityFrontier) -> bool:
    """Is any useful alarm possible at all (lead time one, some bound)?"""
    return frontier.vacuous or is_i_predictable(frontier, 1)


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

    def query(self, i: int, j: ExtNat) -> QueryVerdict:
        return is_ij_predictable(self.frontier, i, j)


def analyze(model: DesModel, *, witnesses: bool = False) -> Analysis:
    """Run the full pipeline on a validated model."""
    table = compute_distances(model)
    twin = build_twin(model, witnesses=witnesses)
    frontier = compute_frontier(model, table, twin)
    return Analysis(model=model, table=table, twin=twin, frontier=frontier)
