"""Model construction, validation, normalization, and execution."""

from __future__ import annotations

import random

import pytest

from faultcast import (
    DesModel,
    Event,
    InitialFaultyError,
    fault_closure,
    make_model,
    observe,
    run,
    unobservable_closure,
    validate,
)
from faultcast.model import (
    FAULT_CLOSURE,
    INITIAL_FAULTY,
    LIVENESS,
    OBSERVATION_LIVENESS,
)
from faultcast.oracle import OracleConfig, random_live_model, sample_run


def _codes(report):
    return sorted(f.code for f in report.findings)


def test_make_model_interning_and_lookup(plant):
    assert plant.states[plant.initial] == "A"
    assert plant.state_index["G"] in plant.faulty
    assert plant.event_index["t"] == 4
    assert not plant.events[plant.event_index["t"]].observable
    assert len(plant.states) == 7
    assert len(plant.transitions) == 10


def test_constructor_rejects_structural_garbage():
    with pytest.raises(ValueError):
        DesModel(states=(), events=(), transitions=(), initial=0, faulty=frozenset())
    with pytest.raises(ValueError):
        DesModel(states=("A",), events=(), transitions=(), initial=1, faulty=frozenset())
    with pytest.raises(ValueError):
        DesModel(states=("A", "A"), events=(), transitions=(), initial=0, faulty=frozenset())
    with pytest.raises(ValueError):
        DesModel(
            states=("A",),
            events=(Event("a", True),),
            transitions=((0, 1, 0),),
            initial=0,
            faulty=frozenset(),
        )
    with pytest.raises(ValueError):
        make_model([("a", True)], [("A", "b", "A")], "A")


def test_semantic_equality_ignores_index_order():
    m1 = make_model(
        [("a", True), ("t", False)],
        [("X", "a", "Y"), ("Y", "t", "X")],
        "X",
        faulty=["Y"],
    )
    m2 = make_model(
        [("t", False), ("a", True)],
        [("Y", "t", "X"), ("X", "a", "Y")],
        "X",
        faulty=["Y"],
        states=["Y", "X"],
    )
    assert m1 == m2
    assert hash(m1) == hash(m2)
    m3 = make_model(
        [("a", True), ("t", True)],  # t observable now
        [("X", "a", "Y"), ("Y", "t", "X")],
        "X",
        faulty=["Y"],
    )
    assert m1 != m3


def test_validate_clean_fixtures(plant, fuse_short, fuse_long, fan2):
    for model in (plant, fuse_short, fuse_long, fan2):
        assert validate(model).ok


def test_validate_reports_liveness():
    # Remove the absorbing self-loop: the fault state gets stuck.
    m = make_model(
        [("a", True)],
        [("A", "a", "B")],
        "A",
        faulty=["B"],
    )
    report = validate(m)
    assert _codes(report) == [LIVENESS]
    assert "B" in report.findings[0].message


def test_validate_reports_fault_closure():
    m = make_model(
        [("a", True)],
        [("A", "a", "B"), ("B", "a", "A")],
        "A",
        faulty=["B"],
    )
    report = validate(m)
    assert _codes(report) == [FAULT_CLOSURE]
    assert "B -a-> A" in report.findings[0].message


def test_validate_reports_initial_faulty():
    m = make_model(
        [("a", True)],
        [("A", "a", "A")],
        "A",
        faulty=["A"],
    )
    assert INITIAL_FAULTY in _codes(validate(m))


def test_validate_reports_unobservable_cycle(plant):
    # Hiding a alone already breaks observation liveness: the absorbing
    # state's self-loop on a becomes an all-unobservable cycle.
    hidden_a = DesModel(
        states=plant.states,
        events=tuple(
            Event(e.name, e.name not in ("a",)) for e in plant.events
        ),
        transitions=plant.transitions,
        initial=plant.initial,
        faulty=plant.faulty,
    )
    report = validate(hidden_a)
    assert OBSERVATION_LIVENESS in _codes(report)
    # Hiding both a and b also creates the two-state unobservable cycle.
    hidden_ab = DesModel(
        states=plant.states,
        events=tuple(
            Event(e.name, e.name not in ("a", "b")) for e in plant.events
        ),
        transitions=plant.transitions,
        initial=plant.initial,
        faulty=plant.faulty,
    )
    assert OBSERVATION_LIVENESS in _codes(validate(hidden_ab))


def test_validate_collects_multiple_findings():
    m = make_model(
        [("t", False)],
        [("A", "t", "A"), ("B", "t", "C")],
        "A",
        faulty=["B"],
    )
    codes = _codes(validate(m))
    assert LIVENESS in codes  # C has no exit
    assert FAULT_CLOSURE in codes  # B -t-> C escapes
    assert OBSERVATION_LIVENESS in codes  # A loops unobservably


def test_fault_closure_extends_downstream(plant):
    refitted = DesModel(
        states=plant.states,
        events=plant.events,
        transitions=plant.transitions,
        initial=plant.initial,
        faulty=frozenset({plant.state_index["F"]}),
    )
    closed = fault_closure(refitted)
    assert {closed.states[q] for q in closed.faulty} == {"F", "G"}
    # Silent moves carry the fault too.
    m = make_model(
        [("a", True), ("h", False)],
        [("I", "a", "I"), ("I", "a", "B"), ("B", "h", "C"), ("C", "a", "C")],
        "I",
        faulty=["B"],
    )
    assert {m.states[q] for q in fault_closure(m).faulty} == {"B", "C"}
    # Already-closed sets come back unchanged.
    assert fault_closure(plant) is plant


def test_fault_closure_rejects_swallowing_initial(plant):
    refitted = DesModel(
        states=plant.states,
        events=plant.events,
        transitions=plant.transitions,
        initial=plant.initial,
        faulty=frozenset({plant.state_index["A"]}),
    )
    with pytest.raises(InitialFaultyError):
        fault_closure(refitted)


def test_observe_projects_unobservable_events(plant):
    e = plant.event_index
    assert observe(plant, [e["a"], e["b"], e["t"], e["a"]]) == [e["a"], e["b"], e["a"]]
    assert observe(plant, [e["t"]]) == []
    assert observe(plant, []) == []


def test_run_follows_exact_traces(plant, fan2):
    e = plant.event_index
    assert {plant.states[q] for q in run(plant, [e["a"], e["d"]])} == {"E"}
    assert {plant.states[q] for q in run(plant, [])} == {"A"}
    assert run(plant, [e["d"]]) == frozenset()
    ef = fan2.event_index
    assert {fan2.states[q] for q in run(fan2, [ef["a"]])} == {"B1", "B2"}


def test_run_deterministic_models_have_singleton_runs(fuse_short, fuse_long):
    rng = random.Random(5)
    for model in (fuse_short, fuse_long):
        assert len({(src, ev) for src, ev, _ in model.transitions}) == len(model.transitions)
        for _ in range(50):
            _, events = sample_run(model, rng, 12)
            for cut in range(len(events) + 1):
                assert len(run(model, events[:cut])) == 1


def test_unobservable_closure(plant, fan2):
    a = plant.state_index
    assert unobservable_closure(plant, [a["A"]]) == frozenset({a["A"], a["C"]})
    assert unobservable_closure(plant, [a["B"]]) == frozenset({a["B"]})
    f = fan2.state_index
    assert unobservable_closure(fan2, [f["B1"]]) == frozenset({f["B1"], f["C"]})


def _mask(states):
    return sum(1 << q for q in states)


def _valid_and_unvalidated_draws():
    # Random models, valid or not: unobservable cycles are not rejected here.
    rng = random.Random(41)
    models = [random_live_model(rng, OracleConfig(max_states=12)) for _ in range(100)]
    for _ in range(100):
        n = rng.randint(1, 12)
        models.append(
            DesModel(
                states=[f"s{q}" for q in range(n)],
                events=[Event("a", True), Event("h", False)],
                transitions=[
                    (rng.randrange(n), rng.randrange(2), rng.randrange(n))
                    for _ in range(rng.randint(0, 3 * n))
                ],
                initial=0,
                faulty=(),
            )
        )
    assert sum(OBSERVATION_LIVENESS in _codes(validate(m)) for m in models) > 20
    return models


def test_closed_successor_masks_match_closures():
    # The masks must hold the full closures, silent cycles included.
    for model in _valid_and_unvalidated_draws():
        for ev, row in enumerate(model.closed_successors):
            if not model.events[ev].observable:
                assert row is None
                continue
            for q in range(len(model.states)):
                targets = unobservable_closure(model, model.successors(q, ev))
                assert row[q] == _mask(targets)


def test_move_tables_expand_back_to_the_transitions():
    for model in _valid_and_unvalidated_draws():
        observable, silent = model.move_tables
        expanded = {
            (q, ev, t) for q, row in enumerate(observable) for ev, ts in row.items() for t in ts
        }
        expanded |= {(q, ev, t) for q, moves in enumerate(silent) for ev, t in moves}
        assert expanded == set(model.transitions)
        assert all(model.events[ev].observable for row in observable for ev in row)
        assert not any(model.events[ev].observable for moves in silent for ev, _ in moves)
        for q in range(len(model.states)):
            for ev in range(len(model.events)):
                expected = tuple(t for s, e, t in model.transitions if (s, e) == (q, ev))
                assert model.successors(q, ev) == expected


def test_run_endpoints_always_inside_observation_belief():
    # Endpoint of any trace is possible given the trace's observation.
    from faultcast import initial_belief, belief_step

    rng = random.Random(99)
    for _ in range(40):
        model = random_live_model(rng, OracleConfig())
        states, events = sample_run(model, rng, 15)
        belief = initial_belief(model)
        assert states[0] in belief.members
        for k, event in enumerate(events):
            if model.events[event].observable:
                belief = belief_step(model, belief, event)
            assert states[k + 1] in belief.members
