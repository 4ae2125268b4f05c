"""The confusable-pair relation: frozen values, gates, witnesses, oracle."""

from __future__ import annotations

import random

import pytest

from faultcast import (
    DesModel,
    NoWitnessError,
    build_twin,
    compute_distances,
    fan_system,
    make_model,
    reachable_edges,
    unobservable_closure,
    validate,
    witness_observations,
)
from faultcast.oracle import oracle_pairs

from helpers import is_deterministic
from randmodels import OracleConfig, random_live_model


def _named_pairs(model, twin):
    return sorted((model.states[a], model.states[b]) for a, b in twin.pairs)


def _related(twin, a, b):
    return (min(a, b), max(a, b)) in twin.pairs


def test_plant_pairs(plant, plant_analysis):
    twin = plant_analysis.twin
    assert _named_pairs(plant, twin) == [
        ("A", "A"), ("A", "C"), ("B", "B"), ("B", "D"), ("C", "C"),
        ("D", "D"), ("E", "E"), ("E", "F"), ("F", "F"), ("G", "G"),
    ]
    assert twin.pair_count == 10
    assert twin.relation_size == 13


def test_plant_relatedness_queries(plant, plant_analysis):
    twin = plant_analysis.twin
    s = plant.state_index
    assert _related(twin, s["A"], s["C"])
    assert _related(twin, s["C"], s["A"])  # symmetric
    assert _related(twin, s["E"], s["E"])  # reflexive on reachable
    assert not _related(twin, s["E"], s["G"])
    assert not _related(twin, s["A"], s["B"])


def test_plant_witnesses(plant, plant_analysis):
    twin = plant_analysis.twin
    s, e = plant.state_index, plant.event_index

    def witness(a, b):
        return [
            plant.events[ev].name
            for ev in witness_observations(twin, (s[a], s[b]))
        ]

    assert witness("A", "C") == []
    assert witness("B", "D") == ["a"]
    assert witness("E", "F") == ["a", "d"]


def test_witnesses_require_parent_links(plant):
    twin = build_twin(plant, witnesses=False)
    with pytest.raises(NoWitnessError):
        witness_observations(twin, next(iter(twin.pairs)))


def test_witness_unknown_pair_is_an_error(plant, plant_analysis):
    s = plant.state_index
    with pytest.raises(ValueError):
        witness_observations(plant_analysis.twin, (s["E"], s["G"]))


def _bfs_depths(model):
    # The fewest moves from the initial state to each reachable state.
    depth = {model.initial: 0}
    queue = [model.initial]
    for q in queue:
        for src, _, dst in model.transitions:
            if src == q and dst not in depth:
                depth[dst] = depth[q] + 1
                queue.append(dst)
    return depth


def _assert_only_the_diagonal(model):
    # Every observation pins the state, so the pair search reaches only the
    # diagonal of the reachable states, each by a breadth-first path.
    assert is_deterministic(model)
    assert all(event.observable for event in model.events)
    twin = build_twin(model, witnesses=True)
    depth = _bfs_depths(model)
    assert twin.pairs == oracle_pairs(model) == {(q, q) for q in depth}
    for q, d in depth.items():
        assert len(witness_observations(twin, (q, q))) == d


def test_fuses_reach_only_the_diagonal(fuse_short, fuse_long, short_analysis):
    for model in (fuse_short, fuse_long):
        _assert_only_the_diagonal(model)
    twin = short_analysis.twin
    assert _named_pairs(fuse_short, twin) == [
        ("S0", "S0"), ("S1", "S1"), ("S2", "S2"),
    ]
    witness = witness_observations(twin, (
        fuse_short.state_index["S1"], fuse_short.state_index["S1"],
    ))
    assert [fuse_short.events[e].name for e in witness] == ["a"]


def test_deterministic_all_observable_draws_reach_only_the_diagonal():
    rng = random.Random(44)
    config = OracleConfig(observable_prob=1.0, max_out_degree=1)
    for _ in range(60):
        _assert_only_the_diagonal(random_live_model(rng, config))


def test_nondeterminism_confuses_states_with_every_event_observable():
    # Fully observable but nondeterministic: a and b each confuse two
    # states, so the relation is not the diagonal.
    m = make_model(
        [("a", True), ("b", True)],
        [
            ("I", "a", "P"), ("I", "a", "Q"),
            ("I", "b", "Q"), ("I", "b", "R"),
            ("P", "a", "P"), ("Q", "a", "Q"), ("R", "a", "R"),
        ],
        "I",
    )
    assert all(event.observable for event in m.events)
    assert not is_deterministic(m)
    twin = build_twin(m)
    s = m.state_index
    assert _related(twin, s["P"], s["Q"])
    assert _related(twin, s["Q"], s["R"])
    assert twin.pairs == oracle_pairs(m)


def test_relation_is_not_transitive():
    m = make_model(
        [("a", True), ("b", True)],
        [
            ("I", "a", "P"), ("I", "a", "Q"),
            ("I", "b", "Q"), ("I", "b", "R"),
            ("P", "a", "P"), ("Q", "a", "Q"), ("R", "a", "R"),
        ],
        "I",
    )
    twin = build_twin(m)
    s = m.state_index
    assert _related(twin, s["P"], s["Q"]) and _related(twin, s["Q"], s["R"])
    assert not _related(twin, s["P"], s["R"])


def test_fan_relation_size_formula():
    for n in range(1, 9):
        twin = build_twin(fan_system(n))
        assert twin.relation_size == 2 * n * n + 2 * n + 2
        assert twin.pair_count == n * n + 2 * n + 2


def test_fan_pairs_match_oracle_small():
    for n in range(1, 6):
        model = fan_system(n)
        assert build_twin(model).pairs == oracle_pairs(model)


def test_pairs_match_oracle_on_random_models():
    rng = random.Random(41)
    for _ in range(120):
        model = random_live_model(rng, OracleConfig())
        assert build_twin(model).pairs == oracle_pairs(model)


def test_pairs_match_generic_construction_on_random_models():
    # Recording parent links must not change which pairs the search finds.
    rng = random.Random(42)
    for _ in range(120):
        model = random_live_model(rng, OracleConfig())
        pairs = oracle_pairs(model)
        assert build_twin(model).pairs == pairs
        assert build_twin(model, witnesses=True).pairs == pairs


def _image(model, belief, event):
    # The targets of the belief's members on event, read from the transitions.
    return {dst for src, ev, dst in model.transitions if src in belief and ev == event}


def _belief_after(model, events):
    # States some run with exactly these observations can end in.
    belief = unobservable_closure(model, [model.initial])
    for event in events:
        belief = unobservable_closure(model, _image(model, belief, event))
    return belief


def _fewest_observations(model):
    # Breadth-first over beliefs: for each pair, the fewest observations
    # after which one belief holds both of its states.
    observable = [e for e, event in enumerate(model.events) if event.observable]
    start = _belief_after(model, [])
    depth = {start: 0}
    queue = [start]
    fewest = {}
    for belief in queue:
        members = sorted(belief)
        for k, a in enumerate(members):
            for b in members[k:]:
                fewest.setdefault((a, b), depth[belief])
        for event in observable:
            nxt = unobservable_closure(model, _image(model, belief, event))
            if nxt and nxt not in depth:
                depth[nxt] = depth[belief] + 1
                queue.append(nxt)
    return fewest


def test_witnesses_are_shortest_on_random_models():
    rng = random.Random(43)
    for _ in range(300):
        model = random_live_model(rng, OracleConfig())
        twin = build_twin(model, witnesses=True)
        assert twin.pairs == oracle_pairs(model)
        fewest = _fewest_observations(model)
        assert set(fewest) == twin.pairs
        for pair in twin.pairs:
            witness = witness_observations(twin, pair)
            assert all(model.events[e].observable for e in witness)
            assert set(pair) <= _belief_after(model, witness)
            assert len(witness) == fewest[pair]

def test_reachable_edges_stay_inside_relation(plant, plant_analysis):
    twin = plant_analysis.twin
    edges = list(reachable_edges(plant, twin))
    assert edges
    for src, event, observable, dst in edges:
        assert src in twin.pairs and dst in twin.pairs
        assert observable == plant.events[event].observable
    # The off-diagonal pair (B, D) is entered by the observable a.
    s = plant.state_index
    bd = (min(s["B"], s["D"]), max(s["B"], s["D"]))
    labels = {
        plant.events[event].name
        for _, event, _, dst in edges
        if dst == bd
    }
    assert "a" in labels


def test_move_tables_are_built_once_per_model(monkeypatch):
    # Validation, the distances, the pair search and the edge export read
    # one cached copy of the forward table, so `twin --dot` builds it once.
    built = []
    build = DesModel.move_tables.func
    monkeypatch.setattr(
        DesModel.move_tables, "func", lambda model: built.append(build(model)) or built[-1]
    )
    model = fan_system(4)
    assert validate(model) == ()
    compute_distances(model)
    twin = build_twin(model)
    assert list(reachable_edges(model, twin))
    assert len(built) == 1
    assert model.move_tables is built[0]
