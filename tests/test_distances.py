"""Distance tables: frozen fixture values, invariants, oracle agreement."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from faultcast import (
    INF,
    DesModel,
    Event,
    Interval,
    compute_avoid_set,
    compute_distances,
    compute_dmax,
    compute_dmin,
    make_model,
)
from faultcast.oracle import oracle_avoid_set, oracle_dmax, oracle_dmin

from helpers import by_state_name
from randmodels import OracleConfig, random_live_model


def test_plant_distance_table(plant):
    table = compute_distances(plant)
    assert by_state_name(plant, table.dmin) == {
        "A": 3, "B": 3, "C": 3, "D": 2, "E": 2, "F": 1, "G": 0,
    }
    assert by_state_name(plant, table.dmax) == {
        "A": INF, "B": INF, "C": INF, "D": INF, "E": 2, "F": 1, "G": 0,
    }
    assert {plant.states[q] for q in table.avoid} == {"A", "B", "C", "D"}


def test_short_fuse_distance_table(fuse_short):
    table = compute_distances(fuse_short)
    assert by_state_name(fuse_short, table.dmin) == {"S0": 2, "S1": 1, "S2": 0}
    assert by_state_name(fuse_short, table.dmax) == {"S0": INF, "S1": 1, "S2": 0}
    assert {fuse_short.states[q] for q in table.avoid} == {"S0"}


def test_long_fuse_distance_table(fuse_long):
    table = compute_distances(fuse_long)
    assert by_state_name(fuse_long, table.dmin) == {"A": 3, "B": 2, "C": 1, "D": 1, "E": 0}
    assert by_state_name(fuse_long, table.dmax) == {"A": INF, "B": 3, "C": 2, "D": 1, "E": 0}
    assert {fuse_long.states[q] for q in table.avoid} == {"A"}


def test_fan_is_all_infinite(fan2):
    table = compute_distances(fan2)
    assert all(v == INF for v in table.dmin)
    assert all(v == INF for v in table.dmax)
    assert table.avoid == frozenset(range(len(fan2.states)))


def test_unobservable_step_into_fault_set():
    # A non-faulty state whose only exit is an unobservable transition
    # into the fault set: no observation separates it from the fault
    # (dmin 0) but it still counts as one state outside (dmax 1).
    m = make_model(
        [("a", True), ("t", False)],
        [("I", "a", "X"), ("I", "a", "I"), ("X", "t", "Bad"), ("Bad", "a", "Bad")],
        "I",
        faulty=["Bad"],
    )
    table = compute_distances(m)
    x = m.state_index["X"]
    assert table.dmin[x] == 0
    assert table.dmax[x] == 1


def test_dmin_handles_unobservable_chains():
    m = make_model(
        [("a", True), ("t", False)],
        [
            ("P", "t", "Q"),
            ("Q", "t", "R"),
            ("R", "a", "Bad"),
            ("Bad", "a", "Bad"),
            ("P", "a", "P"),
        ],
        "P",
        faulty=["Bad"],
    )
    dmin = compute_dmin(m)
    assert dmin[m.state_index["P"]] == 1
    assert dmin[m.state_index["Q"]] == 1
    assert dmin[m.state_index["R"]] == 1


def test_avoid_set_requires_infinite_dodging():
    # B reaches the sink cycle and dodges forever; C is forced in.
    m = make_model(
        [("a", True)],
        [
            ("A", "a", "B"),
            ("A", "a", "C"),
            ("B", "a", "B"),
            ("C", "a", "Bad"),
            ("Bad", "a", "Bad"),
        ],
        "A",
        faulty=["Bad"],
    )
    avoid = compute_avoid_set(m)
    assert {m.states[q] for q in avoid} == {"A", "B"}


def test_oracle_dmax_matches_fast_dmax_on_fixtures(plant, fuse_short, fuse_long, fan2):
    for model in (plant, fuse_short, fuse_long, fan2):
        avoid = compute_avoid_set(model)
        assert list(compute_dmax(model, avoid)) == oracle_dmax(model)


def test_oracle_dmax_matches_fast_dmax_on_random_models():
    rng = random.Random(31)
    for _ in range(150):
        model = random_live_model(rng, OracleConfig())
        avoid = compute_avoid_set(model)
        assert list(compute_dmax(model, avoid)) == oracle_dmax(model)


def test_oracle_dmax_on_a_long_chain():
    # A fully observable 1,500-state chain into a fault: deeper than the
    # interpreter's default recursion limit.
    n = 1500
    transitions = [(f"s{k}", "a", f"s{k + 1}") for k in range(n)]
    transitions.append((f"s{n}", "a", f"s{n}"))
    model = make_model([("a", True)], transitions, "s0", faulty=[f"s{n}"])
    dmax = oracle_dmax(model)
    assert dmax == list(compute_dmax(model, compute_avoid_set(model)))
    assert dmax[model.state_index["s0"]] == n


def test_distance_invariants_on_random_models():
    rng = random.Random(32)
    for _ in range(150):
        model = random_live_model(rng, OracleConfig())
        table = compute_distances(model)
        n = len(model.states)
        for q in range(n):
            dmin, dmax = table.dmin[q], table.dmax[q]
            # Lower bound never exceeds upper bound.
            assert dmin <= dmax
            # Finite values are bounded by the state count.
            if dmin != INF:
                assert 0 <= dmin <= n
            if dmax != INF:
                assert 0 <= dmax <= n
            # Faulty states sit exactly at (0, 0).
            if q in model.faulty:
                assert (dmin, dmax) == (0, 0)
            # dmax is infinite exactly on the avoid set (for non-faulty).
            assert (dmax == INF and q not in model.faulty) == (q in table.avoid)
            # The interval constructor accepts every row.
            Interval(dmin, dmax)


def test_distances_agree_with_oracle_on_random_models():
    rng = random.Random(33)
    for _ in range(150):
        model = random_live_model(rng, OracleConfig())
        table = compute_distances(model)
        assert list(table.dmin) == oracle_dmin(model)
        assert list(table.dmax) == oracle_dmax(model)
        assert table.avoid == oracle_avoid_set(model)


def _unvalidated_model(rng):
    # What --no-validate lets through: any out-degree, none included, fault
    # states that lead back out, and silent moves anywhere, cycles too.
    n = rng.randint(1, 9)
    events = (Event("a", True), Event("b", rng.random() < 0.5), Event("t", False))
    faulty = frozenset(q for q in range(1, n) if rng.random() < 0.3)
    transitions = [
        (q, rng.randrange(3), rng.randrange(n))
        for q in range(n)
        for _ in range(rng.randint(0, 3))
    ]
    return DesModel(
        states=tuple(f"q{k}" for k in range(n)),
        events=events,
        transitions=tuple(dict.fromkeys(transitions)),
        initial=0,
        faulty=faulty,
    )


def _invalid_kinds(model):
    silent = {q: set() for q in range(len(model.states))}
    for src, ev, dst in model.transitions:
        if not model.events[ev].observable:
            silent[src].add(dst)
    kinds = set()
    if not model.transitions:
        kinds.add("no transitions")
    if len({src for src, _, _ in model.transitions}) < len(model.states):
        kinds.add("dead end")
    faulty = model.faulty
    if any(src in faulty and dst not in faulty for src, _, dst in model.transitions):
        kinds.add("fault escape")
    for q in silent:
        seen, stack = set(), list(silent[q])
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(silent[t])
        if q in seen:
            kinds.add("silent cycle")
    return kinds


def test_distances_agree_with_oracle_on_unvalidated_models():
    rng = random.Random(35)
    kinds = Counter()
    for _ in range(1500):
        model = _unvalidated_model(rng)
        avoid = compute_avoid_set(model)
        assert avoid == oracle_avoid_set(model)
        dmin, dmax = compute_dmin(model), compute_dmax(model, avoid)
        assert list(dmin) == oracle_dmin(model)
        assert list(dmax) == oracle_dmax(model)
        # The belief engine's one bounds field rests on dmin <= dmax.
        table = compute_distances(model)
        assert all(lo <= hi for lo, hi in zip(dmin, dmax))
        assert all(lo <= hi for lo, hi in zip(table.dmin, table.dmax))
        kinds.update(_invalid_kinds(model))
    assert set(kinds) == {"no transitions", "dead end", "fault escape", "silent cycle"}


def test_dmin_infinite_iff_fault_unreachable():
    rng = random.Random(34)
    for _ in range(80):
        model = random_live_model(rng, OracleConfig())
        table = compute_distances(model)
        for q in range(len(model.states)):
            reachable = _reaches_fault(model, q)
            assert (table.dmin[q] == INF) == (not reachable)


def _reaches_fault(model, q):
    seen = {q}
    stack = [q]
    while stack:
        cur = stack.pop()
        if cur in model.faulty:
            return True
        for src, _, dst in model.transitions:
            if src == cur and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return False
