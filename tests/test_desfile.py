"""Parsing and serializing the model file format."""

from __future__ import annotations

import random
import string

import pytest

from faultcast import (
    DesModel,
    Event,
    InvalidModelError,
    ModelSyntaxError,
    make_model,
    parse_model,
    serialize_model,
)
from faultcast.model import FAULT_CLOSURE
from faultcast.oracle import OracleConfig, random_live_model

PLANT_TEXT = """\
# A plant that drifts between two look-alike loops.
des v1
obs a b c d
hidden t

init A
fault G
trans A a B
trans B b A
trans A t C
trans C a D
trans D c C
trans B d E
trans D d F
trans E c F
trans F a G
trans G a G
"""


def test_parse_plant_file(plant):
    parsed = parse_model(PLANT_TEXT)
    assert parsed == plant


def test_round_trip_preserves_models(plant, fuse_short, fuse_long, fan2):
    for model in (plant, fuse_short, fuse_long, fan2):
        again = parse_model(serialize_model(model))
        assert again == model
        # The round trip is exact, not just up to renaming.
        assert again.states == model.states
        assert again.events == model.events
        assert again.transitions == model.transitions
        assert again.initial == model.initial
        assert again.faulty == model.faulty


def test_round_trip_random_models():
    # Arbitrary index layouts survive semantically; a model that came
    # out of the parser once round-trips exactly from then on.
    rng = random.Random(88)
    for _ in range(60):
        model = random_live_model(rng, OracleConfig())
        again = parse_model(serialize_model(model))
        assert again == model
        stable = parse_model(serialize_model(again))
        assert stable == again
        assert stable.states == again.states
        assert stable.transitions == again.transitions
        assert stable.initial == again.initial
        assert stable.faulty == again.faulty


def test_hash_in_names_is_rejected():
    # "#" starts a comment, so such a name could not survive a round trip.
    with pytest.raises(ValueError):
        make_model([("a", True)], [("x#1", "a", "y"), ("y", "a", "y")], "x#1", ["y"])
    with pytest.raises(ValueError):
        make_model([("a#", True)], [("x", "a#", "x")], "x")


def test_unwritable_state_is_refused():
    # z is not initial, not faulty and in no transition: no line of the
    # format could carry it, so writing the model must fail, naming z.
    model = make_model([("a", True)], [("x", "a", "x")], "x", states=["z"])
    with pytest.raises(ValueError, match="state z"):
        serialize_model(model)


def test_round_trip_random_names():
    # Random oracle models under random printable names: every name the
    # model accepts survives the file format, and a name with "#" is
    # refused when the model is built.
    rng = random.Random(89)
    alphabet = string.ascii_letters + string.digits + string.punctuation
    refused = 0
    for _ in range(200):
        model = random_live_model(rng, OracleConfig())
        names = set()
        while len(names) < len(model.states) + len(model.events):
            names.add("".join(rng.choices(alphabet, k=rng.randint(1, 3))))
        names = sorted(names)
        rng.shuffle(names)
        try:
            renamed = DesModel(
                states=names[: len(model.states)],
                events=[
                    Event(name, e.observable)
                    for name, e in zip(names[len(model.states):], model.events)
                ],
                transitions=model.transitions,
                initial=model.initial,
                faulty=model.faulty,
            )
        except ValueError:
            assert any("#" in name for name in names)
            refused += 1
            continue
        assert parse_model(serialize_model(renamed)) == renamed
    assert 0 < refused < 200

def test_comments_blank_lines_and_grouped_events():
    text = """
    # leading comment
    des v1
    obs a b   # two events on one line
    hidden t u

    init S
    trans S a S  # keep alive
    trans S t T
    trans S u T
    trans T b S
    """
    model = parse_model(text)
    assert [e.name for e in model.events] == ["a", "b", "t", "u"]
    assert [e.observable for e in model.events] == [True, True, False, False]
    assert model.states == ("S", "T")
    assert not model.faulty


def _syntax_error(text):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    return exc.value


def test_empty_file():
    err = _syntax_error("")
    assert err.line == 1
    assert "des v1" in err.reason


def test_wrong_header():
    err = _syntax_error("des v2\ninit A\ntrans A a A\n")
    assert (err.line, err.column) == (1, 1)
    err = _syntax_error("# comment only\n\nmodel v1\n")
    assert err.line == 3


def test_unknown_directive():
    err = _syntax_error("des v1\nobs a\ninit A\nstate B\n")
    assert (err.line, err.column) == (4, 1)
    assert "state" in err.reason


def test_event_declaration_errors():
    err = _syntax_error("des v1\nobs\ninit A\n")
    assert err.line == 2
    err = _syntax_error("des v1\nobs a\nhidden a\ninit A\n")
    assert err.line == 3
    assert "line 2" in err.reason
    err = _syntax_error("des v1\nobs a a\ninit A\n")
    assert err.line == 2
    assert err.column == 7


def test_init_errors():
    err = _syntax_error("des v1\nobs a\ninit A B\n")
    assert (err.line, err.column) == (3, 1)
    err = _syntax_error("des v1\nobs a\ninit A\ninit B\ntrans A a A\n")
    assert err.line == 4
    assert "line 3" in err.reason
    err = _syntax_error("des v1\nobs a\ntrans A a A\n")
    assert err.line == 3
    assert err.column is None
    assert "init" in err.reason


def test_fault_and_trans_arity_errors():
    err = _syntax_error("des v1\nobs a\ninit A\nfault\n")
    assert (err.line, err.column) == (4, 1)
    err = _syntax_error("des v1\nobs a\ninit A\ntrans A a\n")
    assert (err.line, err.column) == (4, 1)
    err = _syntax_error("des v1\nobs a\ninit A\ntrans A a B C\n")
    assert (err.line, err.column) == (4, 1)


def test_undeclared_event():
    err = _syntax_error("des v1\nobs a\ninit A\ntrans A b A\n")
    assert (err.line, err.column) == (4, 1)
    assert "b" in err.reason


def test_state_indices_follow_first_mention():
    text = "des v1\nobs a\ninit Z\nfault Y\ntrans Z a Y\ntrans Y a Y\n"
    model = parse_model(text)
    assert model.states == ("Z", "Y")
    assert model.initial == 0
    assert model.faulty == frozenset({1})


def test_escapable_fault_set_rejected_then_closed():
    text = (
        "des v1\nobs a\ninit A\nfault B\n"
        "trans A a B\ntrans B a C\ntrans C a C\n"
    )
    with pytest.raises(InvalidModelError) as exc:
        parse_model(text)
    codes = {f.code for f in exc.value.report.findings}
    assert FAULT_CLOSURE in codes
    model = parse_model(text, close_faults=True)
    assert {model.states[q] for q in model.faulty} == {"B", "C"}


def test_require_valid_false_returns_raw_model():
    # B is a dead end, so the model is invalid but still parseable.
    text = "des v1\nobs a\ninit A\ntrans A a B\n"
    with pytest.raises(InvalidModelError):
        parse_model(text)
    model = parse_model(text, require_valid=False)
    assert model.states == ("A", "B")


def test_duplicate_transitions_collapse():
    text = "des v1\nobs a\ninit A\ntrans A a A\ntrans A a A\n"
    model = parse_model(text)
    assert len(model.transitions) == 1
