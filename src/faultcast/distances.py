"""Observation distances from each state to the fault set.

For a state q, dmin(q) is the smallest number of observable events on any
path from q into the fault set, and dmax(q) is the largest number of
states-per-observation a run can spend outside the fault set, counted as
|observations| + 1 over runs from q that stay non-faulty (so a faulty q
has dmax 0, and a state that can avoid the fault set forever has dmax
INF).  Together they bound, from any state, how soon and how late the
fault can arrive, measured in observations.  compute_distances builds a
model's table once and keeps it on the model for every later caller.

The two computations:

* dmin: shortest path to the fault set where observable edges cost 1 and
  unobservable ones cost 0, run over reversed edges with one deque (a
  silent relaxation to its front, an observable one to its back), linear
  in the transition count.
* avoid set and dmax, in one deletion pass: non-faulty states that have
  a move and whose every non-faulty successor has already been deleted
  are deleted in turn.  What survives can always take one more step
  outside the fault set, or has none to take (a dead end, possible only
  in an unvalidated model): that is the avoid set, with dmax INF.  So
  dmin = INF implies dmax = INF.  A state is deleted after all of its
  non-faulty successors, so its dmax, the longest weighted stay with a
  floor of one because the empty stay already contains one state, folds
  from theirs as it is deleted.
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
    dmax = _deletion_pass(model)
    avoid = frozenset(q for q, d in enumerate(dmax) if d == INF)
    return DistanceTable(dmin=compute_dmin(model), dmax=tuple(dmax), avoid=avoid)


def compute_dmin(model: DesModel) -> tuple[ExtNat, ...]:
    """Least number of observations before the fault set, per state."""
    dist: list[ExtNat] = [INF] * len(model.states)
    for q in model.faulty:
        dist[q] = 0
    # The deque holds distances d, then d + 1, in order, so a state leaves it
    # first at its final distance; a later, stale copy improves nothing.
    queue = deque(model.faulty)
    while queue:
        q = queue.popleft()
        d = dist[q]
        for src, ev, _ in model.incoming[q]:
            if not model.events[ev].observable:
                if d < dist[src]:
                    dist[src] = d
                    queue.appendleft(src)
            elif d + 1 < dist[src]:
                dist[src] = d + 1
                queue.append(src)
    return tuple(dist)


def _deletion_pass(model: DesModel) -> list[ExtNat]:
    """dmax per state: 0 on the fault set, INF on the avoid set.

    A state is deleted once all of its non-faulty successors have been, so
    their dmax is known when its own folds.  A dead end is never deleted:
    its runs end without the fault.
    """
    n = len(model.states)
    faulty = model.faulty
    observable, silent = model.move_tables
    # A dead end counts one escape route, which no deletion takes away.
    escape_routes = [int(not (obs or moves)) for obs, moves in zip(observable, silent)]
    for src, _, dst in model.transitions:
        if src not in faulty and dst not in faulty:
            escape_routes[src] += 1
    dmax: list[ExtNat] = [0 if q in faulty else INF for q in range(n)]
    doomed = [q for q in range(n) if q not in faulty and escape_routes[q] == 0]
    for q in doomed:  # grows as states are deleted
        # A faulty target's 0 never beats the floor of one.
        best = 1
        for targets in observable[q].values():
            for t in targets:
                if dmax[t] >= best:
                    best = dmax[t] + 1
        for _, t in silent[q]:
            if dmax[t] > best:
                best = dmax[t]
        dmax[q] = best
        for src, _, _ in model.incoming[q]:
            if src not in faulty:
                escape_routes[src] -= 1
                if escape_routes[src] == 0:
                    doomed.append(src)
    return dmax


def compute_avoid_set(model: DesModel) -> frozenset[int]:
    """Non-faulty states from which the fault set can be dodged forever."""
    return frozenset(q for q, d in enumerate(_deletion_pass(model)) if d == INF)


def compute_dmax(model: DesModel, avoid: frozenset[int]) -> tuple[ExtNat, ...]:
    """Largest stay outside the fault set, per state, as |obs| + 1."""
    dmax = _deletion_pass(model)
    for q in avoid:
        dmax[q] = INF
    return tuple(dmax)
