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
implicitly by use.  An event may be declared after a `trans` line that
uses it: undeclared events are looked for once the whole file is read,
after a missing `init`, and the first in file order is reported at its
`trans` keyword.  make_model assigns the indices: events in declaration
order, states by first mention.  Serialization writes the same shape back,
so parse and serialize are mutually inverse.

Lines end where str.splitlines ends them: vertical tab, form feed, the
file, group and record separators, NEL and the Unicode line and
paragraph separators end a line too.  Each line is cut at its first `#`
and split into words with str.split(), at runs of str.isspace
characters such as tabs and no-break or ideographic spaces.  A syntax
error names its line and, where a word is at fault, that word's 1-based
character column; the column is found only then, by scanning that one
line again.

Fault sets are taken literally: a fault set that can be escaped is a
validation error, not silently repaired.  Pass close_faults=True to
apply the closure instead.
"""

from __future__ import annotations

import re
from itertools import groupby, islice
from operator import attrgetter
from typing import NamedTuple

from .errors import ModelSyntaxError
from .model import DesModel, check_valid, fault_closure, make_model

_TOKEN = re.compile(r"\S+")


class ModelDocument(NamedTuple):
    """The directives of one well-formed file, before index assignment."""

    events: tuple[tuple[str, bool], ...]  # (name, observable)
    initial: str
    faults: tuple[str, ...]
    transitions: tuple[tuple[str, str, str], ...]  # (source, event, target)


def parse_document(text: str) -> ModelDocument:
    """Split a file into directives, enforcing the whole file grammar."""
    lines = text.splitlines()
    rows: list[tuple[list[str], int]] = []  # (words, line)
    for number, raw in enumerate(lines, start=1):
        words = raw.partition("#")[0].split()
        if words:
            rows.append((words, number))

    if not rows:
        what = "no directive" if text.strip() else "empty file"
        raise ModelSyntaxError(f"{what}, expected the header: des v1", 1)
    head, line = rows[0]
    if head != ["des", "v1"]:
        raise _error("first directive must be exactly: des v1", lines, line)

    events: list[tuple[str, bool]] = []
    declared: dict[str, int] = {}
    initial: tuple[str, int] | None = None
    faults: list[str] = []
    transitions: list[tuple[str, str, str]] = []

    for words, line in rows[1:]:
        keyword = words[0]
        if keyword == "trans":
            if len(words) != 4:
                raise _error("trans takes exactly: source event target", lines, line)
            transitions.append((words[1], words[2], words[3]))
        elif keyword in ("obs", "hidden"):
            if len(words) == 1:
                raise _error(f"{keyword} needs at least one event name", lines, line)
            for k, name in enumerate(words[1:], start=1):
                if name in declared:
                    reason = f"event {name} already declared on line {declared[name]}"
                    raise _error(reason, lines, line, k)
                declared[name] = line
                events.append((name, keyword == "obs"))
        elif keyword == "init":
            if len(words) != 2:
                raise _error("init takes exactly one state name", lines, line)
            if initial is not None:
                raise _error(f"init already given on line {initial[1]}", lines, line)
            initial = words[1], line
        elif keyword == "fault":
            if len(words) == 1:
                raise _error("fault needs at least one state name", lines, line)
            faults.extend(words[1:])
        else:
            raise _error(f"unknown directive: {keyword}", lines, line)

    if initial is None:
        raise ModelSyntaxError("missing init directive", len(lines) or 1)
    for words, line in rows:
        if words[0] == "trans" and words[2] not in declared:
            raise _error(f"undeclared event: {words[2]}", lines, line)
    return ModelDocument(
        events=tuple(events),
        initial=initial[0],
        faults=tuple(faults),
        transitions=tuple(transitions),
    )


def _error(reason: str, lines: list[str], line: int, k: int = 0) -> ModelSyntaxError:
    """The error at word k of a line, the directive's keyword by default,
    with that word's 1-based column, found by scanning the line again."""
    words = _TOKEN.finditer(lines[line - 1].partition("#")[0])
    return ModelSyntaxError(reason, line, next(islice(words, k, None)).start() + 1)


def document_to_model(doc: ModelDocument) -> DesModel:
    """Build a document's model; make_model assigns the indices."""
    return make_model(doc.events, doc.transitions, doc.initial, doc.faults)


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
