"""The reference implementations themselves, pinned on the fixtures.

The oracle exists to check the fast code, so it gets its own frozen
expectations; otherwise a shared bug could hide in the agreement tests.
"""

from __future__ import annotations

import random

from faultcast import INF, drifting_plant, parse_model, validate
from faultcast.oracle import (
    oracle_avoid_set,
    oracle_beliefs,
    oracle_dmax,
    oracle_dmin,
    oracle_is_ij_predictable,
    oracle_pairs,
    oracle_product_is_ij_predictable,
)

from randmodels import OracleConfig, random_live_model, sample_run


def _by_name(model, values):
    return {model.states[q]: v for q, v in enumerate(values)}


def test_plant_oracle_distances(plant):
    assert _by_name(plant, oracle_dmin(plant)) == {
        "A": 3, "B": 3, "C": 3, "D": 2, "E": 2, "F": 1, "G": 0,
    }
    assert _by_name(plant, oracle_dmax(plant)) == {
        "A": INF, "B": INF, "C": INF, "D": INF, "E": 2, "F": 1, "G": 0,
    }
    assert {plant.states[q] for q in oracle_avoid_set(plant)} == {
        "A", "B", "C", "D",
    }


def test_fuse_oracle_distances(fuse_short, fuse_long):
    assert _by_name(fuse_short, oracle_dmin(fuse_short)) == {
        "S0": 2, "S1": 1, "S2": 0,
    }
    assert _by_name(fuse_short, oracle_dmax(fuse_short)) == {
        "S0": INF, "S1": 1, "S2": 0,
    }
    assert _by_name(fuse_long, oracle_dmin(fuse_long)) == {
        "A": 3, "B": 2, "C": 1, "D": 1, "E": 0,
    }
    assert _by_name(fuse_long, oracle_dmax(fuse_long)) == {
        "A": INF, "B": 3, "C": 2, "D": 1, "E": 0,
    }


def test_fan_oracle_is_all_infinite(fan2):
    assert set(oracle_dmin(fan2)) == {INF}
    assert set(oracle_dmax(fan2)) == {INF}
    assert oracle_avoid_set(fan2) == frozenset(range(len(fan2.states)))


def test_plant_oracle_beliefs_in_discovery_order(plant):
    names = [
        {plant.states[q] for q in belief} for belief in oracle_beliefs(plant)
    ]
    assert names == [
        {"A", "C"},
        {"B", "D"},
        {"C"},
        {"E", "F"},
        {"D"},
        {"G"},
        {"F"},
    ]


def test_plant_oracle_pairs(plant):
    idx = plant.state_index
    expected = {
        ("A", "A"), ("A", "C"), ("C", "C"), ("B", "B"), ("B", "D"),
        ("D", "D"), ("E", "E"), ("E", "F"), ("F", "F"), ("G", "G"),
    }
    canonical = {
        tuple(sorted((idx[a], idx[b]))) for a, b in expected
    }
    assert oracle_pairs(plant) == frozenset(canonical)


def test_oracle_query_verdicts(plant, fuse_short, fuse_long, fan2):
    assert oracle_is_ij_predictable(plant, 1, 2)
    assert not oracle_is_ij_predictable(plant, 2, 2)
    assert oracle_is_ij_predictable(fuse_short, 1, 1)
    assert not oracle_is_ij_predictable(fuse_short, 2, 3)
    assert oracle_is_ij_predictable(fuse_long, 2, 3)
    assert not oracle_is_ij_predictable(fuse_long, 1, 1)
    assert oracle_is_ij_predictable(fan2, 5, 5)


def test_product_oracle_verdicts(plant, fuse_short, fuse_long, fan2):
    oracle = oracle_product_is_ij_predictable
    assert oracle(plant, 1, 2) and not oracle(plant, 2, 2)
    assert oracle(fuse_short, 1, 1) and not oracle(fuse_short, 2, 3)
    assert oracle(fuse_long, 2, 3) and not oracle(fuse_long, 1, 1)
    assert oracle(fan2, 5, 5)
    # With j = inf a belief may alarm on its lower bound alone, so the two
    # oracles part: q0 has dmin 1 and dmax inf, and q1 is the fault.
    two = parse_model("des v1\nobs a\ninit q0\nfault q1\ntrans q0 a q0\ntrans q0 a q1\ntrans q1 a q1\n")
    assert [oracle_product_is_ij_predictable(two, i, INF) for i in range(3)] == [True, True, False]
    assert [oracle_is_ij_predictable(two, i, INF) for i in range(3)] == [True, False, False]


def test_random_models_satisfy_invariants():
    rng = random.Random(123)
    for _ in range(60):
        model = random_live_model(rng, OracleConfig())
        findings = validate(model)
        assert not findings, findings
        assert model.initial == 0
        assert model.initial not in model.faulty
        assert model.events[0].observable
        assert 2 <= len(model.states) <= OracleConfig().max_states


def test_random_models_are_seed_deterministic():
    first = random_live_model(random.Random(9), OracleConfig())
    second = random_live_model(random.Random(9), OracleConfig())
    assert first == second
    assert first.transitions == second.transitions


def test_sample_run_shape_and_liveness():
    rng = random.Random(31)
    model = random_live_model(rng, OracleConfig())
    states, events = sample_run(model, rng, 25)
    assert len(states) == 26
    assert len(events) == 25
    assert states[0] == model.initial
    for src, ev, dst in zip(states, events, states[1:]):
        assert (src, ev, dst) in set(model.transitions)


def test_oracle_reads_no_cached_adjacency_table():
    # The reference must not share a table with the code it checks.
    model = drifting_plant()
    oracle_dmin(model)
    oracle_dmax(model)
    oracle_pairs(model)
    oracle_is_ij_predictable(model, 1, 2)
    oracle_product_is_ij_predictable(model, 1, 2)
    sample_run(model, random.Random(3), 10)
    cached = {"incoming", "move_tables", "closed_successors"}
    assert not cached & set(vars(model))


def test_generator_population_is_varied():
    # The sweeps lean on seeing faulty and fault-free, deterministic and
    # nondeterministic, fully and partially observable draws.
    rng = random.Random(2024)
    models = [random_live_model(rng, OracleConfig()) for _ in range(120)]
    assert any(model.faulty for model in models)
    assert any(not model.faulty for model in models)
    assert any(_all_observable(model) for model in models)
    assert any(not _all_observable(model) for model in models)
    assert any(_deterministic(model) for model in models)
    assert any(not _deterministic(model) for model in models)


def _all_observable(model):
    return all(event.observable for event in model.events)


def _deterministic(model):
    moves = {(src, ev) for src, ev, _ in model.transitions}
    return len(moves) == len(set(model.transitions))
