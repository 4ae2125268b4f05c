"""Slow, independent reference implementations used to check the fast ones.

Everything here recomputes results from first principles with different
algorithms than the main modules: distances by layered breadth-first
search instead of a 0/1 priority queue, the avoid set through strongly
connected components instead of successor-count elimination, confusable
pairs by enumerating beliefs instead of the pair product, and
predictability by scanning belief hulls instead of pair hulls.  Agreement
between the two families is asserted by the test suite; nothing in the
package's normal code path calls into this module, and it reads none of
the model's cached adjacency tables: each entry point groups the
transitions itself.

The module also provides the seeded random model generator used for the
agreement sweeps, plus a random run sampler for soundness checks.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapExceededError
from .intervals import INF, ExtNat, Interval
from .model import DesModel, Event, Transition, validate

DEFAULT_BELIEF_CAP = 1 << 16


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the random sweeps; defaults match the test suite."""

    max_states: int = 8
    max_events: int = 4
    observable_prob: float = 0.7
    fault_prob: float = 0.15
    max_out_degree: int = 3
    belief_cap: int = DEFAULT_BELIEF_CAP
    run_samples: int = 1000
    run_length: int = 25


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
    component that is nontrivial or carries a self-loop.
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
    # Everything that reaches a cyclic component can loop forever.
    result = set(cyclic)
    frontier = deque(cyclic)
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
    seen: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    queue: deque[frozenset[int]] = deque([start])
    observable = [
        e for e in range(len(model.events)) if model.events[e].observable
    ]
    while queue:
        belief = queue.popleft()
        for event in observable:
            targets = {
                dst for q in belief for _, ev, dst in by_source[q] if ev == event
            }
            if not targets:
                continue
            nxt = _silent_closure(model, by_source, targets)
            if nxt not in seen:
                if len(order) >= cap:
                    raise CapExceededError(cap, len(order))
                seen[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
    return order


def oracle_pairs(
    model: DesModel, cap: int = DEFAULT_BELIEF_CAP
) -> frozenset[tuple[int, int]]:
    """Unordered confusable pairs: co-membership in some belief."""
    pairs: set[tuple[int, int]] = set()
    for belief in oracle_beliefs(model, cap):
        members = sorted(belief)
        for a in range(len(members)):
            for b in range(a, len(members)):
                pairs.add((members[a], members[b]))
    return frozenset(pairs)


def oracle_is_ij_predictable(
    model: DesModel, i: int, j: ExtNat, cap: int = DEFAULT_BELIEF_CAP
) -> bool:
    """Predictability decided directly over belief hulls."""
    if not isinstance(i, int) or i < 0:
        raise ValueError(f"lead time must be a finite natural: {i!r}")
    query = Interval(i, j)
    dmin = oracle_dmin(model)
    dmax = oracle_dmax(model)
    if dmin[model.initial] == INF:
        return True
    if i > dmin[model.initial]:
        return False
    for belief in oracle_beliefs(model, cap):
        hull = Interval(
            min(dmin[q] for q in belief), max(dmax[q] for q in belief)
        )
        if hull.lo == INF:
            continue
        if query.is_proper_subset(hull):
            return False
    return True


# -- random models and runs ---------------------------------------------------


def random_live_model(rng: random.Random, config: OracleConfig = OracleConfig()) -> DesModel:
    """Draw a random model satisfying all structural invariants.

    Samples are built so that liveness, fault closure, and a non-faulty
    initial state hold by construction (faulty states only ever target
    faulty states, every state gets at least one outgoing edge, state 0
    is initial and never faulty, event 0 is always observable).
    Observation liveness can still fail; such draws are rejected and
    redrawn, never repaired.
    """
    for _ in range(1000):
        model = _draw_model(rng, config)
        if validate(model).ok:
            return model
    raise RuntimeError("random model generation kept failing validation")


def _draw_model(rng: random.Random, config: OracleConfig) -> DesModel:
    n = rng.randint(2, config.max_states)
    n_events = rng.randint(1, config.max_events)
    event_names = [chr(ord("a") + k) for k in range(n_events)]
    events = tuple(
        Event(name, k == 0 or rng.random() < config.observable_prob)
        for k, name in enumerate(event_names)
    )
    faulty = frozenset(
        q for q in range(1, n) if rng.random() < config.fault_prob
    )
    fault_list = sorted(faulty)
    transitions: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for q in range(n):
        for _ in range(rng.randint(1, config.max_out_degree)):
            event = rng.randrange(n_events)
            if q in faulty:
                dst = rng.choice(fault_list)
            else:
                dst = rng.randrange(n)
            t = (q, event, dst)
            if t not in seen:
                seen.add(t)
                transitions.append(t)
    return DesModel(
        states=tuple(f"q{k}" for k in range(n)),
        events=events,
        transitions=tuple(transitions),
        initial=0,
        faulty=faulty,
    )


def sample_run(
    model: DesModel, rng: random.Random, length: int
) -> tuple[list[int], list[int]]:
    """A uniform random walk from the initial state.

    Returns (states, events) with len(states) == len(events) + 1; always
    possible up to the requested length because of liveness.
    """
    by_source = _by_state(model, 0)
    states = [model.initial]
    events: list[int] = []
    for _ in range(length):
        src, ev, dst = rng.choice(by_source[states[-1]])
        events.append(ev)
        states.append(dst)
    return states, events
