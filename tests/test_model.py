"""Model construction, validation, normalization, and adjacency tables."""

from __future__ import annotations

import random
import re

import pytest

from faultcast import (
    DesModel,
    Event,
    InitialFaultyError,
    PredictionSession,
    fault_closure,
    fan_system,
    make_model,
    unobservable_closure,
    validate,
)
from faultcast.model import (
    FAULT_CLOSURE,
    INITIAL_FAULTY,
    LIVENESS,
    OBSERVATION_LIVENESS,
)

from helpers import mask_of
from randmodels import OracleConfig, random_live_model, sample_run


def _codes(findings):
    return sorted(f.code for f in findings)


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
    with pytest.raises(ValueError, match="duplicate event name: a"):
        make_model([("a", True), ("a", False)], [("A", "a", "A")], "A")



@pytest.mark.parametrize("name", ["", "a b", " a", "a\t", "a\u3000b", "\xa0", "a\x1fb", "a#"])
def test_names_the_file_format_cannot_carry_are_refused(name):
    # A name must be one whole word of the file format: non-empty, no
    # str.isspace character and no "#".
    with pytest.raises(ValueError, match=re.escape(f"bad state name: {name!r}")):
        DesModel((name,), (), (), 0, frozenset())
    with pytest.raises(ValueError, match=re.escape(f"bad event name: {name!r}")):
        DesModel(("A",), (Event(name, True),), (), 0, frozenset())
    # States are checked before events, each in index order.
    with pytest.raises(ValueError, match=re.escape(f"bad state name: {name!r}")):
        DesModel(("A", name, "b c"), (Event("d e", True),), (), 0, frozenset())


_ONE_EVENT = (Event("a", True),)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: DesModel(("A",), _ONE_EVENT, (), 0, frozenset({1})),
            "faulty state index out of range: 1",
        ),
        (
            lambda: DesModel(("A",), _ONE_EVENT, ((0, 0, 1),), 0, frozenset()),
            r"transition state index out of range: \(0, 0, 1\)",
        ),
        (
            lambda: DesModel(("A",), _ONE_EVENT, ((-1, 0, 0),), 0, frozenset()),
            r"transition state index out of range: \(-1, 0, 0\)",
        ),
        (lambda: fan_system(0), "fan width must be at least 1"),
    ],
    ids=["fault index", "transition target", "transition source", "fan width 0"],
)
def test_out_of_range_arguments_are_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_model_never_equals_a_non_model(plant):
    assert plant != "x"
    assert plant.__eq__("x") is NotImplemented


def test_semantic_equality_ignores_index_order():
    m1 = make_model(
        [("a", True), ("t", False)],
        [("X", "a", "Y"), ("Y", "t", "X")],
        "X",
        faulty=["Y"],
    )
    m2 = DesModel(
        states=("Y", "X"),
        events=(Event("t", False), Event("a", True)),
        transitions=((0, 0, 1), (1, 1, 0)),
        initial=1,
        faulty=frozenset({0}),
    )
    assert m1 == m2 and not m1 != m2
    assert hash(m1) == hash(m2)
    # Equal models have no order, though their field tuples differ.
    with pytest.raises(TypeError):
        m1 < m2
    with pytest.raises(TypeError):
        sorted([m1, m2])
    m3 = make_model(
        [("a", True), ("t", True)],  # t observable now
        [("X", "a", "Y"), ("Y", "t", "X")],
        "X",
        faulty=["Y"],
    )
    assert m1 != m3


def test_models_neither_equal_nor_order_plain_tuples():
    model = make_model([("a", True)], [("X", "a", "Y")], "X", faulty=["Y"])
    fields = tuple(model)
    # A model equals no plain tuple, its own fields included, from either side.
    assert model != fields and fields != model
    assert not model == fields and not fields == model
    assert model.__eq__(fields) is False
    assert len({model, fields}) == 2
    for other in [(), fields, model]:
        for compare in [
            lambda: model < other,
            lambda: model <= other,
            lambda: model > other,
            lambda: model >= other,
            lambda: other < model,
            lambda: sorted([model, other]),
            lambda: sorted([other, model]),
        ]:
            with pytest.raises(TypeError):
                compare()


def test_validate_clean_fixtures(plant, fuse_short, fuse_long, fan2):
    for model in (plant, fuse_short, fuse_long, fan2):
        assert validate(model) == ()


def test_validate_reports_liveness():
    # Remove the absorbing self-loop: the fault state gets stuck.
    m = make_model(
        [("a", True)],
        [("A", "a", "B")],
        "A",
        faulty=["B"],
    )
    findings = validate(m)
    assert _codes(findings) == [LIVENESS]
    assert "B" in findings[0].message


def test_validate_reports_fault_closure():
    m = make_model(
        [("a", True)],
        [("A", "a", "B"), ("B", "a", "A")],
        "A",
        faulty=["B"],
    )
    findings = validate(m)
    assert _codes(findings) == [FAULT_CLOSURE]
    assert "B -a-> A" in findings[0].message


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
    findings = validate(hidden_a)
    assert OBSERVATION_LIVENESS in _codes(findings)
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


def test_unobservable_closure(plant, fan2):
    a = plant.state_index
    assert unobservable_closure(plant, [a["A"]]) == frozenset({a["A"], a["C"]})
    assert unobservable_closure(plant, [a["B"]]) == frozenset({a["B"]})
    f = fan2.state_index
    assert unobservable_closure(fan2, [f["B1"]]) == frozenset({f["B1"], f["C"]})


def _successors(model, q, ev):
    # The targets of q on ev, in transition order, read from the transitions.
    return tuple(t for s, e, t in model.transitions if (s, e) == (q, ev))


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
                targets = unobservable_closure(model, _successors(model, q, ev))
                assert row[q] == mask_of(targets)


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
                if model.events[ev].observable:
                    got = observable[q].get(ev, ())
                else:
                    got = tuple(t for e, t in silent[q] if e == ev)
                assert got == _successors(model, q, ev)


def test_run_endpoints_always_inside_observation_belief():
    # Endpoint of any trace is possible given the trace's observation.
    rng = random.Random(99)
    for _ in range(40):
        model = random_live_model(rng, OracleConfig())
        states, events = sample_run(model, rng, 15)
        session = PredictionSession(model)
        assert states[0] in session.belief.members
        for k, event in enumerate(events):
            if model.events[event].observable:
                session.feed(event)
            assert states[k + 1] in session.belief.members
