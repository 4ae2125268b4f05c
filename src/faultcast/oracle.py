"""Slow, independent reference implementations used to check the fast ones.

Everything here recomputes results from first principles with different
algorithms than the main modules: distances by layered breadth-first
search instead of a 0/1 priority queue, the avoid set through strongly
connected components instead of successor-count elimination, confusable
pairs by enumerating beliefs instead of the pair product, and
predictability over beliefs (their hulls, or a search of state-belief
pairs) instead of pair hulls.  Agreement between the two families is
asserted by the test suite and by the CLI's --oracle cross-checks; no
analysis path calls into this module, and it reads none of the model's
cached adjacency tables: each entry point groups the transitions itself.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations_with_replacement
from typing import Iterable

from .errors import CapExceededError
from .intervals import INF, ExtNat, Interval
from .model import DesModel, Transition

DEFAULT_BELIEF_CAP = 1 << 16


# -- distances --------------------------------------------------------------


def oracle_dmin(model: DesModel) -> list[ExtNat]:
    """dmin by peeling backward layers of at most one observation each.

    Layer k holds every state that can reach the fault set with at most k
    observations; a layer adds observable predecessors of the previous
    layers and then closes under unobservable predecessors.  |Q| layers
    always suffice for the finite values.
    """
    n = len(model.states)
    by_target = _by_state(model, 2)
    result: list[ExtNat] = [INF] * n
    reached = _silent_closure(model, by_target, set(model.faulty))
    for q in reached:
        result[q] = 0
    for k in range(1, n + 1):
        fresh = {
            src
            for src, ev, dst in model.transitions
            if model.events[ev].observable and dst in reached and src not in reached
        }
        if not fresh:
            break
        grown = _silent_closure(model, by_target, reached | fresh)
        for q in grown - reached:
            result[q] = k
        reached = grown
    return result


def _by_state(model: DesModel, end: int) -> list[list[Transition]]:
    # Transitions grouped by source (end 0) or by target (end 2).
    groups: list[list[Transition]] = [[] for _ in model.states]
    for t in model.transitions:
        groups[t[end]].append(t)
    return groups


def _silent_closure(
    model: DesModel, groups: list[list[Transition]], states: Iterable[int]
) -> frozenset[int]:
    # Moves from q along each unobservable transition of groups[q] to its
    # other end: forward when grouped by source, backward when by target.
    closed = set(states)
    frontier = deque(closed)
    while frontier:
        q = frontier.popleft()
        for src, ev, dst in groups[q]:
            nxt = dst if src == q else src
            if not model.events[ev].observable and nxt not in closed:
                closed.add(nxt)
                frontier.append(nxt)
    return frozenset(closed)


def oracle_avoid_set(model: DesModel) -> frozenset[int]:
    """Avoid set via strongly connected components.

    A non-faulty state can dodge the fault set forever exactly when the
    non-faulty subgraph lets it reach a cycle, i.e. a strongly connected
    component that is nontrivial or carries a self-loop.  Reaching a dead
    end there, a state with no move at all, avoids the fault as well: the
    run ends without it.
    """
    nodes = [q for q in range(len(model.states)) if q not in model.faulty]
    node_set = set(nodes)
    succ: dict[int, list[int]] = {q: [] for q in nodes}
    pred: dict[int, list[int]] = {q: [] for q in nodes}
    self_loop: set[int] = set()
    for src, _, dst in model.transitions:
        if src in node_set and dst in node_set:
            succ[src].append(dst)
            pred[dst].append(src)
            if src == dst:
                self_loop.add(src)
    components = _kosaraju(nodes, succ, pred)
    cyclic: set[int] = set()
    for component in components:
        if len(component) > 1 or component[0] in self_loop:
            cyclic.update(component)
    dead_ends = node_set.difference(src for src, _, _ in model.transitions)
    # Everything that reaches a cyclic component can loop forever; or it
    # can stop at a dead end.
    result = cyclic | dead_ends
    frontier = deque(result)
    while frontier:
        q = frontier.popleft()
        for src in pred[q]:
            if src not in result:
                result.add(src)
                frontier.append(src)
    return frozenset(result)


def _kosaraju(
    nodes: list[int], succ: dict[int, list[int]], pred: dict[int, list[int]]
) -> list[list[int]]:
    visited: set[int] = set()
    order: list[int] = []
    for root in nodes:
        if root in visited:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        visited.add(root)
        while stack:
            q, i = stack[-1]
            if i < len(succ[q]):
                stack[-1] = (q, i + 1)
                nxt = succ[q][i]
                if nxt not in visited:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(q)
                stack.pop()
    assigned: set[int] = set()
    components: list[list[int]] = []
    for root in reversed(order):
        if root in assigned:
            continue
        component = [root]
        assigned.add(root)
        frontier = deque([root])
        while frontier:
            q = frontier.popleft()
            for src in pred[q]:
                if src not in assigned:
                    assigned.add(src)
                    component.append(src)
                    frontier.append(src)
        components.append(component)
    return components


def oracle_dmax(model: DesModel) -> list[ExtNat]:
    """dmax by memoized depth-first search over the provably acyclic remainder.

    The stack is explicit, so a long chain cannot hit the recursion limit.
    """
    avoid = oracle_avoid_set(model)
    n = len(model.states)
    by_source = _by_state(model, 0)
    memo: list[ExtNat | None] = [
        0 if q in model.faulty else INF if q in avoid else None for q in range(n)
    ]
    for root in range(n):
        stack = [root]
        while stack:
            q = stack[-1]
            if memo[q] is not None:
                stack.pop()
                continue
            unknown = [dst for _, _, dst in by_source[q] if memo[dst] is None]
            if unknown:
                stack.extend(unknown)
                continue
            stays = [
                memo[dst] + (1 if model.events[ev].observable else 0)
                for _, ev, dst in by_source[q]
                if dst not in model.faulty
            ]
            memo[q] = max([1, *stays])
    return memo


# -- beliefs and pairs -------------------------------------------------------


def oracle_beliefs(
    model: DesModel, cap: int = DEFAULT_BELIEF_CAP
) -> list[frozenset[int]]:
    """All reachable beliefs by plain subset construction, in BFS order."""
    by_source = _by_state(model, 0)
    start = _silent_closure(model, by_source, (model.initial,))
    order, seen = [start], {start}
    observable = [e for e, event in enumerate(model.events) if event.observable]
    for belief in order:  # grows as beliefs are found
        for event in observable:
            nxt = _observe(model, by_source, belief, event)
            if nxt and nxt not in seen:
                if len(order) >= cap:
                    raise CapExceededError(cap, len(order))
                seen.add(nxt)
                order.append(nxt)
    return order


def _observe(
    model: DesModel, by_source: list[list[Transition]], belief: frozenset[int], event: int
) -> frozenset[int]:
    # The belief after observing event, empty when no member can.
    moved = {dst for q in belief for _, ev, dst in by_source[q] if ev == event}
    return _silent_closure(model, by_source, moved)


def oracle_pairs(model: DesModel) -> frozenset[tuple[int, int]]:
    """Unordered confusable pairs: co-membership in some belief."""
    beliefs = oracle_beliefs(model)
    return frozenset(p for b in beliefs for p in combinations_with_replacement(sorted(b), 2))


def oracle_is_ij_predictable(model: DesModel, i: int, j: ExtNat) -> bool:
    """Predictability decided directly over belief hulls: a reachable
    belief whose hull strictly contains (i, j) refuses it."""
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"lead time must be a finite natural: {i!r}")
    Interval(i, j)  # refuses j < i and a j that is not an extended natural
    dmin = oracle_dmin(model)
    dmax = oracle_dmax(model)
    if dmin[model.initial] == INF:
        return True
    if i > dmin[model.initial]:
        return False
    for belief in oracle_beliefs(model):
        lo, hi = min(dmin[q] for q in belief), max(dmax[q] for q in belief)
        if lo <= i and j <= hi and (lo, hi) != (i, j):
            return False
    return True


def oracle_product_is_ij_predictable(model: DesModel, i: int, j: ExtNat) -> bool:
    """Predictability by its definition, over (plant state, belief) pairs.

    A silent move changes the state and keeps the belief; an observable
    event moves both.  A belief may alarm when its hull lies inside
    [i, j]; (i, j) holds when no path from the initial pair reaches a
    faulty state through beliefs that may not alarm.  No pair hull is used.
    """
    dmin, dmax = oracle_dmin(model), oracle_dmax(model)
    by_source = _by_state(model, 0)
    order = [(model.initial, _silent_closure(model, by_source, (model.initial,)))]
    seen = set(order)
    for q, belief in order:  # grows as pairs are found
        if i <= min(dmin[p] for p in belief) and max(dmax[p] for p in belief) <= j:
            continue  # the monitor alarms here
        if q in model.faulty:
            return False
        for _, ev, dst in by_source[q]:
            step = _observe(model, by_source, belief, ev) if model.events[ev].observable else belief
            if (dst, step) not in seen:
                seen.add((dst, step))
                order.append((dst, step))
    return True
