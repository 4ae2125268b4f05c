"""Deciding how early and how tightly a fault can be announced.

A model is (i, j)-predictable when a monitor can raise an alarm at least i
observations before any fault while promising the fault within j
observations, and be right every time.  The decision reduces to the
confusable-pair relation: the alarm is impossible exactly when some
reachable pair of confusable states spans an interval strictly larger
than (i, j), because the monitor cannot tell the early world from the
late one.  An extra gate i <= dmin(initial) rules out alarms earlier than
the system's own distance to the fault.

The frontier aggregates, for each achievable lead time i, the tightest
honest promise p[i]; queries are nevertheless answered by a direct scan
over the deduplicated pair hulls, which is the authoritative rule.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Everything needed to answer predictability queries for one model."""

    dmin_init: ExtNat
    vacuous: bool
    p: tuple[ExtNat, ...]
    hulls: tuple[HullEntry, ...]


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
    by interval, keeping the first pair in canonical index order, and the
    scan list is sorted by descending lower bound (ties by ascending
    upper bound) so that the first match in a query scan is the
    refutation with the tightest lead-time bound.
    """
    dmin, dmax = table.dmin, table.dmax
    first: dict[tuple[ExtNat, ExtNat], Pair] = {}
    for pair in twin.pairs:
        q1, q2 = pair
        lo, other = dmin[q1], dmin[q2]
        if other < lo:
            lo = other
        if lo == INF:
            continue
        hi, other = dmax[q1], dmax[q2]
        if other > hi:
            hi = other
        best = first.get((lo, hi))
        if best is None or pair < best:
            first[(lo, hi)] = pair

    hulls = []
    for lo, hi in sorted(first, key=lambda hull: (-hull[0], hull[1])):
        pair = first[(lo, hi)]
        witness: tuple[int, ...] | None = None
        if twin.parents is not None:
            witness = tuple(witness_observations(twin, pair))
        hulls.append(HullEntry(Interval(lo, hi), pair, witness))

    dmin_init = table.dmin[model.initial]
    vacuous = dmin_init == INF
    limit = len(model.states) if vacuous else min(len(model.states), int(dmin_init))
    p: list[ExtNat] = list(range(limit + 1))
    for entry in hulls:
        lo = entry.interval.lo
        if lo <= limit and entry.interval.hi > p[int(lo)]:
            p[int(lo)] = entry.interval.hi
    return PredictabilityFrontier(
        dmin_init=dmin_init,
        vacuous=vacuous,
        p=tuple(p),
        hulls=tuple(hulls),
    )


def is_ij_predictable(
    frontier: PredictabilityFrontier, i: int, j: ExtNat
) -> QueryVerdict:
    """Can a correct alarm come i observations early with a j bound?

    True when the model is fault-free (vacuously), and otherwise when the
    lead time does not exceed the initial state's own fault distance and
    no reachable pair hull strictly contains (i, j).
    """
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise InvalidIntervalError(f"lead time must be a finite natural: {i!r}")
    query = Interval(i, j)
    if frontier.vacuous:
        return QueryVerdict(True, None)
    if i > frontier.dmin_init:
        return QueryVerdict(False, None)
    for entry in frontier.hulls:
        if query.is_proper_subset(entry.interval):
            return QueryVerdict(False, entry)
    return QueryVerdict(True, None)


def is_i_predictable(frontier: PredictabilityFrontier, i: int) -> bool:
    """Is some finite promise j achievable at lead time i?

    Any j beyond every finite hull upper bound dodges all finite hulls,
    so one query at such a j settles the question.
    """
    if frontier.vacuous:
        return True
    if i > frontier.dmin_init:
        return False
    finite_tops = [
        e.interval.hi for e in frontier.hulls if e.interval.hi != INF
    ]
    j = 1 + max([i, *finite_tops])
    return is_ij_predictable(frontier, i, j).predictable


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
    best_i: Optional[int] = None
    for i in range(int(frontier.dmin_init), -1, -1):
        if is_i_predictable(frontier, i):
            best_i = i
            break
    if best_i is None:
        return None
    candidates: set[int] = {best_i}
    for entry in frontier.hulls:
        if entry.interval.hi != INF:
            top = int(entry.interval.hi)
            candidates.add(top)
            candidates.add(top + 1)
    for j in sorted(c for c in candidates if c >= best_i):
        if is_ij_predictable(frontier, best_i, j).predictable:
            return (best_i, j)
    raise RuntimeError("no finite promise found despite is_i_predictable")


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
