"""Parsing and serializing the model file format."""

from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultcast import (
    DesModel,
    Event,
    InvalidModelError,
    ModelSyntaxError,
    make_model,
    parse_model,
    serialize_model,
)
from faultcast.desfile import ModelDocument, document_to_model, parse_document
from faultcast.model import FAULT_CLOSURE

from randmodels import OracleConfig, random_live_model

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
    model = DesModel(
        states=("x", "z"),
        events=(Event("a", True),),
        transitions=((0, 0, 0),),
        initial=0,
        faulty=frozenset(),
    )
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
    err = _syntax_error(" \t\n\u3000\n")
    assert (err.reason, err.line, err.column) == ("empty file, expected the header: des v1", 1, None)
    err = _syntax_error("# nothing here\n\n   # nor here\n")
    assert (err.reason, err.line, err.column) == ("no directive, expected the header: des v1", 1, None)


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
    # The first in file order, at its keyword, once the file is read.
    err = _syntax_error("des v1\nobs a\ninit A\n  trans A c A\ntrans A b A\nobs b\n")
    assert (err.reason, err.line, err.column) == ("undeclared event: c", 4, 3)
    # A missing init is reported first.
    err = _syntax_error("des v1\nobs a\ntrans A b A\n")
    assert err.reason == "missing init directive"


def test_document_to_model_of_a_hand_built_document():
    # An undeclared event is refused by make_model, which guards every caller.
    doc = ModelDocument(
        events=(("a", True),),
        initial="A",
        faults=(),
        transitions=(("A", "a", "A"), ("A", "b", "A")),
    )
    with pytest.raises(ValueError, match="undeclared event in transition: b"):
        document_to_model(doc)
    # A parsed document holds triples, here with an event declared after
    # its use, and gives the model parse_model gives.
    late = "des v1\ninit A\ntrans A b B\ntrans B b A\nobs b\n"
    assert parse_document(late).transitions == (("A", "b", "B"), ("B", "b", "A"))
    for text in (PLANT_TEXT, late):
        assert document_to_model(parse_document(text)) == parse_model(text, require_valid=False)


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
    codes = {f.code for f in exc.value.findings}
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


def _finditer_read(text):
    """What the format says of text, read from an re.finditer(r"\\S+")
    tokenization that keeps every token's line and column: the
    ModelDocument, or the (reason, line, column) of the refusal."""
    lines = text.splitlines()
    rows = []
    for number, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        row = [(m.group(), number, m.start() + 1) for m in re.finditer(r"\S+", body)]
        if row:
            rows.append(row)
    if not rows:
        what = "no directive" if re.search(r"\S", text) else "empty file"
        return f"{what}, expected the header: des v1", 1, None
    if [word for word, _, _ in rows[0]] != ["des", "v1"]:
        return "first directive must be exactly: des v1", *rows[0][0][1:]
    events, declared, faults, transitions = [], {}, [], []
    initial = None
    for (keyword, line, column), *args in rows[1:]:
        names = [name for name, _, _ in args]
        if keyword in ("obs", "hidden"):
            if not args:
                return f"{keyword} needs at least one event name", line, column
            for name, name_line, name_column in args:
                if name in declared:
                    reason = f"event {name} already declared on line {declared[name]}"
                    return reason, name_line, name_column
                declared[name] = name_line
                events.append((name, keyword == "obs"))
        elif keyword == "init":
            if len(args) != 1:
                return "init takes exactly one state name", line, column
            if initial is not None:
                return f"init already given on line {initial[1]}", line, column
            initial = names[0], line
        elif keyword == "fault":
            if not args:
                return "fault needs at least one state name", line, column
            faults += names
        elif keyword == "trans":
            if len(args) != 3:
                return "trans takes exactly: source event target", line, column
            transitions.append((*names, line, column))
        else:
            return f"unknown directive: {keyword}", line, column
    if initial is None:
        return "missing init directive", len(lines) or 1, None
    for src, event, dst, line, column in transitions:
        if event not in declared:
            return f"undeclared event: {event}", line, column
    triples = tuple((src, event, dst) for src, event, dst, _, _ in transitions)
    return ModelDocument(tuple(events), initial[0], tuple(faults), triples)


# Separators are str.isspace characters that do not break a line; breaks
# are every line boundary of str.splitlines.
_SPACES = " \t\x1f\xa0\u2003\u3000"
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028"]
_NAMES = st.text("abAé1#", min_size=1, max_size=2)
# Arities around each directive's own, so that many files are accepted.
_ROWS = st.sampled_from(
    [("obs", 1, 3), ("obs", 0, 2), ("hidden", 1, 2), ("init", 1, 1), ("init", 0, 2),
     ("fault", 0, 2), ("trans", 3, 3), ("trans", 3, 3), ("trans", 2, 4), ("state", 0, 1)]
).flatmap(lambda r: st.lists(_NAMES, min_size=r[1], max_size=r[2]).map(lambda args: [r[0], *args]))
# Well-formed rows over three event names and names without "#", so that
# many files reach the undeclared-event check, some with more than one
# undeclared event.
_EVENTS = st.sampled_from(["a", "b", "é"])
_STATES = st.text("abAé1", min_size=1, max_size=2)
_WELL_FORMED = st.one_of(
    st.lists(_EVENTS, min_size=1, max_size=2, unique=True).map(lambda names: ["obs", *names]),
    st.tuples(_STATES, _EVENTS, _STATES).map(lambda args: ["trans", *args]),
)


@st.composite
def _model_texts(draw):
    header = draw(st.sampled_from([["des", "v1"]] * 9 + [["des"], ["des", "v1", "a"], []]))
    well_formed = draw(st.booleans())
    rows = [header, *draw(st.lists(_WELL_FORMED if well_formed else _ROWS, max_size=8))]
    if well_formed or draw(st.booleans()):
        rows.insert(draw(st.integers(1, len(rows))), ["init", draw(_STATES if well_formed else _NAMES)])
    out = []
    for row in rows:
        out.append(draw(st.text(_SPACES, max_size=2)))
        for k, word in enumerate(row):
            out.append(word if k == 0 else draw(st.text(_SPACES, min_size=1, max_size=2)) + word)
        out.append(draw(st.sampled_from(["", "#", " # a b", "#trans x", "\u3000"])))
        out.append(draw(st.sampled_from(_BREAKS)))
    return "".join(out)


@settings(max_examples=250, deadline=None)
@given(_model_texts())
def test_tokens_and_error_positions_match_a_regex_tokenization(text):
    try:
        got = parse_document(text)
    except ModelSyntaxError as exc:
        got = exc.reason, exc.line, exc.column
    assert got == _finditer_read(text)
