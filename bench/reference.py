"""Independent answers the benchmark checks the program's outputs against.

Everything here works on the generator's own integer structure, never on
a model the program parsed.  Distances and beliefs come from
`faultcast.oracle` (slow, separately written algorithms) run on a model
built straight from that structure; the confusable pairs, the query
verdicts, the frontier rows and the streamed intervals are recomputed
here from their definitions.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass

from workloads import Workload

INF = float("inf")


@dataclass
class Expected:
    dmin: list
    dmax: list
    pairs: set[int]  # unordered pairs encoded as lo * n + hi
    hulls: list[tuple]  # distinct pair hulls with a finite lower bound
    dmin_init: object
    vacuous: bool
    p: list  # p[i]: tightest predictable j at lead time i
    intervals: list[list[tuple]]  # per stream, the interval after each observation
    beliefs: set[frozenset[int]] | None  # every reachable belief, or None past the cap
    belief_sizes: list[int]
    revisits: int


def successors(work: Workload):
    """Per state: visible event -> targets, and the silent targets."""
    n = len(work.states)
    visible: list[dict[int, list[int]]] = [{} for _ in range(n)]
    silent: list[list[int]] = [[] for _ in range(n)]
    for src, ev, dst in work.transitions:
        if work.events[ev][1]:
            visible[src].setdefault(ev, []).append(dst)
        else:
            silent[src].append(dst)
    return visible, silent


def oracle_model(work: Workload):
    """The workload as a DesModel built directly, bypassing the parser."""
    from faultcast import DesModel, Event

    return DesModel(
        states=tuple(work.states),
        events=tuple(Event(name, visible) for name, visible in work.events),
        transitions=tuple(work.transitions),
        initial=work.initial,
        faulty=work.faulty,
    )


def confusable_pairs(work: Workload) -> set[int]:
    """Breadth-first search over ordered state pairs from (init, init).

    A visible event moves both sides on that event; a silent event moves
    one side.  Returns the unordered pairs, after checking that the
    ordered relation came out symmetric.
    """
    visible, silent = successors(work)
    n = len(work.states)
    start = work.initial * n + work.initial
    seen = {start}
    todo = deque([start])
    while todo:
        code = todo.popleft()
        a, b = divmod(code, n)
        succ_b = visible[b]
        for ev, targets_a in visible[a].items():
            targets_b = succ_b.get(ev)
            if targets_b:
                for x in targets_a:
                    row = x * n
                    for y in targets_b:
                        c = row + y
                        if c not in seen:
                            seen.add(c)
                            todo.append(c)
        for x in silent[a]:
            c = x * n + b
            if c not in seen:
                seen.add(c)
                todo.append(c)
        for y in silent[b]:
            c = a * n + y
            if c not in seen:
                seen.add(c)
                todo.append(c)
    unordered = set()
    for code in seen:
        a, b = divmod(code, n)
        if b * n + a not in seen:
            raise AssertionError("ordered pair relation is not symmetric")
        if a <= b:
            unordered.add(code)
    return unordered


def blocked(hulls, i, j) -> bool:
    """Some pair hull strictly contains (i, j)."""
    for lo, hi in hulls:
        if lo <= i and j <= hi and (lo != i or hi != j):
            return True
    return False


def predictable(exp: Expected, i, j) -> bool:
    """The definition of (i, j)-predictability over the pair hulls."""
    if exp.vacuous:
        return True
    return i <= exp.dmin_init and not blocked(exp.hulls, i, j)


def tightest(hulls, i, top) -> object:
    """Least j >= i with (i, j) not blocked; INF when no finite j works.

    Blocking only grows as j shrinks, so a binary search over [i, top]
    suffices, with top one past every finite hull end.
    """
    if blocked(hulls, i, top):
        return INF
    lo, hi = i, top
    while lo < hi:
        mid = (lo + hi) // 2
        if blocked(hulls, i, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _closure(silent, states) -> frozenset[int]:
    closed = set(states)
    todo = list(closed)
    while todo:
        q = todo.pop()
        for dst in silent[q]:
            if dst not in closed:
                closed.add(dst)
                todo.append(dst)
    return frozenset(closed)


def beliefs_along(work: Workload, events, succ=None) -> list[frozenset[int]]:
    """The belief after each observation, from a plain subset tracker."""
    visible, silent = succ or successors(work)
    belief = _closure(silent, (work.initial,))
    beliefs = []
    for ev in events:
        belief = _closure(silent, {dst for q in belief for dst in visible[q].get(ev, ())})
        if not belief:
            raise AssertionError("observation impossible in its own model")
        beliefs.append(belief)
    return beliefs


def belief_after(work: Workload, events, succ=None) -> frozenset[int]:
    if not events:
        return _closure((succ or successors(work))[1], (work.initial,))
    return beliefs_along(work, events, succ)[-1]


def expected(work: Workload) -> Expected:
    from faultcast.errors import CapExceededError
    from faultcast.oracle import DEFAULT_BELIEF_CAP, oracle_beliefs, oracle_dmax, oracle_dmin

    model = oracle_model(work)
    # oracle_dmax recurses once per state along the longest chain.
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * len(work.states) + 1000))
    dmin = list(oracle_dmin(model))
    dmax = list(oracle_dmax(model))
    n = len(work.states)
    pairs = confusable_pairs(work)
    hulls = set()
    for code in pairs:
        a, b = divmod(code, n)
        lo = min(dmin[a], dmin[b])
        if lo != INF:
            hulls.add((lo, max(dmax[a], dmax[b])))
    hulls = sorted(hulls)
    dmin_init = dmin[work.initial]
    vacuous = dmin_init == INF
    limit = n if vacuous else min(n, int(dmin_init))
    top = 1 + max([limit] + [hi for _, hi in hulls if hi != INF])
    p = [tightest(hulls, i, top) for i in range(limit + 1)]

    intervals = []
    sizes = []
    distinct: set[frozenset[int]] = set()
    revisits = 0
    succ = successors(work)
    for events in work.streams:
        visited = beliefs_along(work, events, succ)
        intervals.append(
            [(min(dmin[q] for q in b), max(dmax[q] for q in b)) for b in visited]
        )
        for belief in visited:
            sizes.append(len(belief))
            if belief in distinct:
                revisits += 1
            distinct.add(belief)
    try:
        beliefs = set(oracle_beliefs(model, work.compile_cap or DEFAULT_BELIEF_CAP))
    except CapExceededError:
        beliefs = None
    return Expected(
        dmin=dmin,
        dmax=dmax,
        pairs=pairs,
        hulls=hulls,
        dmin_init=dmin_init,
        vacuous=vacuous,
        p=p,
        intervals=intervals,
        beliefs=beliefs,
        belief_sizes=sizes,
        revisits=revisits,
    )


def query_grid(exp: Expected, columns: int) -> list[tuple]:
    """Lead times 0..dmin_init+1 against promise bounds up to one past the
    last finite hull end: `columns` evenly spaced bounds per row, the
    bounds around the row's tightest answer, and inf."""
    if exp.vacuous:
        rows = 3
    else:
        rows = int(exp.dmin_init) + 2
    top = 1 + max([rows] + [hi for _, hi in exp.hulls if hi != INF])
    grid = []
    for i in range(rows):
        js = {i + (top - i) * k // (columns - 1) for k in range(columns)}
        if i < len(exp.p) and exp.p[i] != INF:
            js.update(j for j in (exp.p[i] - 1, exp.p[i], exp.p[i] + 1) if j >= i)
        grid.extend((i, j) for j in sorted(js))
        grid.append((i, INF))
    return grid
