"""Observation distances from each state to the fault set.

For a state q, dmin(q) is the smallest number of observable events on any
path from q into the fault set, and dmax(q) is the largest number of
states-per-observation a run can spend outside the fault set, counted as
|observations| + 1 over runs from q that stay non-faulty (so a faulty q
has dmax 0, and a state that can avoid the fault set forever has dmax
INF).  Together they bound, from any state, how soon and how late the
fault can arrive, measured in observations.  compute_distances builds a
model's table once and keeps it on the model for every later caller.

The three computations:

* dmin: shortest path to the fault set where observable edges cost 1 and
  unobservable ones cost 0, run over reversed edges with a two-bucket
  queue (current distance and current distance + 1), linear in the
  transition count.
* avoid set: states able to stay outside the fault set forever, or to
  end a run outside it at a non-faulty dead end (possible only in an
  unvalidated model), obtained by repeatedly deleting non-faulty states
  that have a move and whose every non-faulty successor has already been
  deleted; what survives can always take one more step outside the fault
  set, or has none to take.  So dmin = INF implies dmax = INF.
* dmax: the deleted states, in deletion order, each after all of its
  non-faulty successors; none of those is in the avoid set, or it would
  have kept the state from deletion.  One pass along that order computes
  the longest weighted stay, with a floor of one because the empty stay
  already contains one state.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .intervals import INF, ExtNat
from .model import DesModel


class DistanceTable(NamedTuple):
    """dmin/dmax per state plus the avoid set they were derived from."""

    dmin: tuple[ExtNat, ...]
    dmax: tuple[ExtNat, ...]
    avoid: frozenset[int]


def compute_distances(model: DesModel) -> DistanceTable:
    """The model's one DistanceTable, built on first use and kept on the model."""
    return model.distance_table


def build_distances(model: DesModel) -> DistanceTable:
    """Bundle dmin, the avoid set, and dmax for a model, from one deletion pass."""
    doomed = _doomed_order(model)
    avoid = frozenset(range(len(model.states))).difference(model.faulty, doomed)
    return DistanceTable(
        dmin=compute_dmin(model),
        dmax=_fold_dmax(model, avoid, doomed),
        avoid=avoid,
    )


def compute_dmin(model: DesModel) -> tuple[ExtNat, ...]:
    """Least number of observations before the fault set, per state."""
    n = len(model.states)
    dist: list[ExtNat] = [INF] * n
    settled = [False] * n
    current: deque[int] = deque()
    following: deque[int] = deque()
    for q in model.faulty:
        dist[q] = 0
        current.append(q)
    d = 0
    while current or following:
        if not current:
            current, following = following, current
            d += 1
            continue
        q = current.popleft()
        if settled[q]:
            continue
        settled[q] = True
        for src, ev, _ in model.incoming[q]:
            nd = d + (1 if model.events[ev].observable else 0)
            if nd < dist[src]:
                dist[src] = nd
                (current if nd == d else following).append(src)
    return tuple(dist)


def _doomed_order(model: DesModel) -> list[int]:
    """Non-faulty states that cannot avoid the fault set, in deletion order.

    A state is deleted once all of its non-faulty successors have been, so
    each comes after every one of them.  A dead end is never deleted: its
    runs end without the fault.
    """
    n = len(model.states)
    faulty = model.faulty
    # A dead end counts one escape route, which no deletion takes away.
    escape_routes = [int(not (obs or silent)) for obs, silent in zip(*model.move_tables)]
    for src, _, dst in model.transitions:
        if src not in faulty and dst not in faulty:
            escape_routes[src] += 1
    doomed = [q for q in range(n) if q not in faulty and escape_routes[q] == 0]
    for q in doomed:  # grows as states are deleted
        for src, _, _ in model.incoming[q]:
            if src not in faulty:
                escape_routes[src] -= 1
                if escape_routes[src] == 0:
                    doomed.append(src)
    return doomed


def compute_avoid_set(model: DesModel) -> frozenset[int]:
    """Non-faulty states from which the fault set can be dodged forever."""
    return frozenset(range(len(model.states))).difference(model.faulty, _doomed_order(model))


def compute_dmax(model: DesModel, avoid: frozenset[int]) -> tuple[ExtNat, ...]:
    """Largest stay outside the fault set, per state, as |obs| + 1."""
    return _fold_dmax(model, avoid, _doomed_order(model))


def _fold_dmax(model: DesModel, avoid: frozenset[int], doomed: list[int]) -> tuple[ExtNat, ...]:
    faulty = model.faulty
    dmax: list[ExtNat] = [0] * len(model.states)
    for q in avoid:
        dmax[q] = INF
    observable, silent = model.move_tables
    for q in doomed:
        best = 1
        # Every non-faulty target is doomed too and came earlier in the order.
        for targets in observable[q].values():
            for t in targets:
                if t not in faulty and dmax[t] >= best:
                    best = dmax[t] + 1
        for _, t in silent[q]:
            if t not in faulty and dmax[t] > best:
                best = dmax[t]
        dmax[q] = best
    return tuple(dmax)
