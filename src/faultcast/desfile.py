"""Line-oriented text format for models.

A file is a sequence of directives, one per line, with `#` starting a
comment and blank lines ignored:

    des v1
    obs a b c d
    hidden t
    init A
    fault G
    trans A a B
    trans B b A

The first directive must be the exact header `des v1`.  `obs` and
`hidden` declare events (each event exactly once, any number of lines),
`init` names the single initial state, `fault` lines accumulate the fault
set, and each `trans` line adds one transition.  States are declared
implicitly by use.  make_model assigns the indices: events in declaration
order, states by first mention.  Serialization writes the same shape back,
so parse and serialize are mutually inverse.

Fault sets are taken literally: a fault set that can be escaped is a
validation error, not silently repaired.  Pass close_faults=True to
apply the closure instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

from .errors import ModelSyntaxError
from .model import DesModel, check_valid, fault_closure, make_model

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class ModelDocument:
    """The raw directives of one file, before index assignment."""

    events: tuple[tuple[str, bool, int, int], ...]
    initial: tuple[str, int, int]
    faults: tuple[tuple[str, int, int], ...]
    transitions: tuple[tuple[str, str, str, int, int], ...]


def parse_document(text: str) -> ModelDocument:
    """Split a file into directives, enforcing only the line grammar."""
    lines = text.splitlines()
    rows: list[list[tuple[str, int, int]]] = []  # (text, line, column) tokens
    for number, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), number, m.start() + 1) for m in _TOKEN.finditer(body)]
        if tokens:
            rows.append(tokens)

    if not rows:
        raise ModelSyntaxError("empty file, expected the header: des v1", 1)
    head = rows[0]
    if [word for word, _, _ in head] != ["des", "v1"]:
        _, line, column = head[0]
        raise ModelSyntaxError("first directive must be exactly: des v1", line, column)

    events: list[tuple[str, bool, int, int]] = []
    declared: dict[str, int] = {}
    initial: tuple[str, int, int] | None = None
    faults: list[tuple[str, int, int]] = []
    transitions: list[tuple[str, str, str, int, int]] = []

    for row in rows[1:]:
        (keyword, line, column), args = row[0], row[1:]
        if keyword in ("obs", "hidden"):
            if not args:
                raise ModelSyntaxError(
                    f"{keyword} needs at least one event name", line, column
                )
            for name, name_line, name_column in args:
                if name in declared:
                    raise ModelSyntaxError(
                        f"event {name} already declared on line {declared[name]}",
                        name_line,
                        name_column,
                    )
                declared[name] = name_line
                events.append((name, keyword == "obs", name_line, name_column))
        elif keyword == "init":
            if len(args) != 1:
                raise ModelSyntaxError(
                    "init takes exactly one state name", line, column
                )
            if initial is not None:
                raise ModelSyntaxError(
                    f"init already given on line {initial[1]}", line, column
                )
            initial = args[0]
        elif keyword == "fault":
            if not args:
                raise ModelSyntaxError(
                    "fault needs at least one state name", line, column
                )
            faults.extend(args)
        elif keyword == "trans":
            if len(args) != 3:
                raise ModelSyntaxError(
                    "trans takes exactly: source event target", line, column
                )
            (src, _, _), (event, _, _), (dst, _, _) = args
            transitions.append((src, event, dst, line, column))
        else:
            raise ModelSyntaxError(f"unknown directive: {keyword}", line, column)

    if initial is None:
        raise ModelSyntaxError("missing init directive", len(lines) or 1)
    return ModelDocument(
        events=tuple(events),
        initial=initial,
        faults=tuple(faults),
        transitions=tuple(transitions),
    )


def document_to_model(doc: ModelDocument) -> DesModel:
    """Check that every transition's event is declared, then build the model.

    make_model assigns the indices; an undeclared event is reported here,
    at its transition's line and column.
    """
    declared = {name for name, _, _, _ in doc.events}
    for _, event, _, line, column in doc.transitions:
        if event not in declared:
            raise ModelSyntaxError(f"undeclared event: {event}", line, column)
    return make_model(
        [(name, observable) for name, observable, _, _ in doc.events],
        [(src, event, dst) for src, event, dst, _, _ in doc.transitions],
        doc.initial[0],
        [name for name, _, _ in doc.faults],
    )


def parse_model(
    text: str, *, close_faults: bool = False, require_valid: bool = True
) -> DesModel:
    """Parse a file into a model, optionally closing the fault set.

    With require_valid (the default), structural problems raise
    InvalidModelError; parsing tools that want to show findings pass
    require_valid=False and run validate themselves.
    """
    model = document_to_model(parse_document(text))
    if close_faults:
        model = fault_closure(model)
    if require_valid:
        check_valid(model)
    return model


def serialize_model(model: DesModel) -> str:
    """Write a model back out; parse_model(serialize_model(m)) == m.

    The format names a state only on its init, fault and trans lines, so
    a state that is not initial, not faulty and in no transition cannot
    be written: it raises ValueError.  Every other model round-trips.
    Event declarations are grouped into runs of equal visibility in index
    order and states appear first in init/fault/trans order, so a
    parse/serialize round trip also preserves index assignment.
    """
    named = {model.initial, *model.faulty}
    named.update(q for t in model.transitions for q in t[::2])
    unnamed = [name for q, name in enumerate(model.states) if q not in named]
    if unnamed:
        raise ValueError(f"state {unnamed[0]} is not initial, faulty or in a transition")
    lines = ["des v1"]
    for observable, run in groupby(model.events, attrgetter("observable")):
        keyword = "obs" if observable else "hidden"
        lines.append(f"{keyword} {' '.join(e.name for e in run)}")
    lines.append(f"init {model.states[model.initial]}")
    if model.faulty:
        names = " ".join(model.states[q] for q in sorted(model.faulty))
        lines.append(f"fault {names}")
    for src, ev, dst in model.transitions:
        lines.append(
            f"trans {model.states[src]} {model.events[ev].name} {model.states[dst]}"
        )
    return "\n".join(lines) + "\n"
