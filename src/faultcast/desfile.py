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
implicitly by use.  Event indices follow declaration order; state indices
follow first mention.  Serialization writes the same shape back, so
parse and serialize are mutually inverse.

Fault sets are taken literally: a fault set that can be escaped is a
validation error, not silently repaired.  Pass close_faults=True to
apply the closure instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ModelSyntaxError
from .model import DesModel, Event, check_valid, fault_closure

_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


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
    rows: list[list[_Token]] = []
    for number, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        tokens = [
            _Token(m.group(), number, m.start() + 1)
            for m in _TOKEN.finditer(body)
        ]
        if tokens:
            rows.append(tokens)

    if not rows:
        raise ModelSyntaxError("empty file, expected the header: des v1", 1)
    head = rows[0]
    if [t.text for t in head] != ["des", "v1"]:
        raise ModelSyntaxError(
            "first directive must be exactly: des v1", head[0].line, head[0].column
        )

    events: list[tuple[str, bool, int, int]] = []
    declared: dict[str, int] = {}
    initial: tuple[str, int, int] | None = None
    faults: list[tuple[str, int, int]] = []
    transitions: list[tuple[str, str, str, int, int]] = []

    for row in rows[1:]:
        keyword, args = row[0], row[1:]
        if keyword.text in ("obs", "hidden"):
            if not args:
                raise ModelSyntaxError(
                    f"{keyword.text} needs at least one event name",
                    keyword.line,
                    keyword.column,
                )
            for token in args:
                if token.text in declared:
                    raise ModelSyntaxError(
                        f"event {token.text} already declared on line "
                        f"{declared[token.text]}",
                        token.line,
                        token.column,
                    )
                declared[token.text] = token.line
                events.append(
                    (token.text, keyword.text == "obs", token.line, token.column)
                )
        elif keyword.text == "init":
            if len(args) != 1:
                raise ModelSyntaxError(
                    "init takes exactly one state name", keyword.line, keyword.column
                )
            if initial is not None:
                raise ModelSyntaxError(
                    f"init already given on line {initial[1]}",
                    keyword.line,
                    keyword.column,
                )
            initial = (args[0].text, args[0].line, args[0].column)
        elif keyword.text == "fault":
            if not args:
                raise ModelSyntaxError(
                    "fault needs at least one state name", keyword.line, keyword.column
                )
            for token in args:
                faults.append((token.text, token.line, token.column))
        elif keyword.text == "trans":
            if len(args) != 3:
                raise ModelSyntaxError(
                    "trans takes exactly: source event target",
                    keyword.line,
                    keyword.column,
                )
            transitions.append(
                (args[0].text, args[1].text, args[2].text, keyword.line, keyword.column)
            )
        else:
            raise ModelSyntaxError(
                f"unknown directive: {keyword.text}", keyword.line, keyword.column
            )

    if initial is None:
        raise ModelSyntaxError("missing init directive", len(lines) or 1)
    return ModelDocument(
        events=tuple(events),
        initial=initial,
        faults=tuple(faults),
        transitions=tuple(transitions),
    )


def document_to_model(doc: ModelDocument) -> DesModel:
    """Assign indices: events by declaration, states by first mention."""
    events = tuple(Event(name, obs) for name, obs, _, _ in doc.events)
    event_ids = {e.name: i for i, e in enumerate(events)}

    order: list[str] = []
    ids: dict[str, int] = {}

    def intern(name: str) -> int:
        if name not in ids:
            ids[name] = len(order)
            order.append(name)
        return ids[name]

    initial = intern(doc.initial[0])
    faulty = frozenset(intern(name) for name, _, _ in doc.faults)
    transitions: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for src, ev, dst, line, column in doc.transitions:
        if ev not in event_ids:
            raise ModelSyntaxError(f"undeclared event: {ev}", line, column)
        t = (intern(src), event_ids[ev], intern(dst))
        if t not in seen:
            seen.add(t)
            transitions.append(t)
    return DesModel(
        states=tuple(order),
        events=events,
        transitions=tuple(transitions),
        initial=initial,
        faulty=faulty,
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
    start = 0
    events = model.events
    while start < len(events):
        end = start
        while end < len(events) and events[end].observable == events[start].observable:
            end += 1
        keyword = "obs" if events[start].observable else "hidden"
        names = " ".join(e.name for e in events[start:end])
        lines.append(f"{keyword} {names}")
        start = end
    lines.append(f"init {model.states[model.initial]}")
    if model.faulty:
        names = " ".join(model.states[q] for q in sorted(model.faulty))
        lines.append(f"fault {names}")
    for src, ev, dst in model.transitions:
        lines.append(
            f"trans {model.states[src]} {model.events[ev].name} {model.states[dst]}"
        )
    return "\n".join(lines) + "\n"
