"""Partially observable finite-state models and their basic semantics.

A model is a finite set of named states and named events, a transition
relation (possibly nondeterministic), a single initial state, and a set of
permanently faulty states.  Events are split into observable ones, which an
outside monitor sees, and unobservable ones, which it does not.  Everything
downstream (distances, twin construction, belief tracking) works on the
dense integer indices this module assigns; names exist for people and for
the file format.

Four structural invariants make the later analyses meaningful:

* liveness: every state has at least one outgoing transition, so runs never
  get stuck and "time until the fault" is well defined;
* fault closure: transitions leaving a faulty state stay inside the fault
  set, so faults are permanent;
* the initial state is not faulty, otherwise there is nothing to predict;
* observation liveness: no cycle of only unobservable transitions, so any
  infinite run emits infinitely many observations.

`validate` checks all four and returns its findings, a tuple that is
empty for a valid model; it never raises.  `check_valid` raises
InvalidModelError carrying them.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, NamedTuple, Sequence, Tuple

from .errors import InitialFaultyError, InvalidModelError

#: A transition (source state, event, target state), all dense indices.
Transition = Tuple[int, int, int]


class Event(NamedTuple):
    """A named event with its visibility flag."""

    name: str
    observable: bool


class DesModel(namedtuple("DesModel", "states events transitions initial faulty")):
    """An immutable discrete event system model: the state names, the
    Events, the (source, event, target) index triples, the initial state's
    index and the frozenset of faulty indices.

    Equality and hashing are semantic: two models are equal when they have
    the same named states, events (with visibility), transitions, initial
    state and fault set, regardless of index assignment.  An instance keeps
    a __dict__ only for the tables it builds on first use.
    """

    # _replace builds through _make, which checks the fields as the constructor does.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, states, events, transitions, initial: int, faulty) -> DesModel:
        faulty = frozenset(faulty)
        self = super().__new__(cls, tuple(states), tuple(events), tuple(transitions), initial, faulty)
        _check_names(self.states, "state")
        _check_names([e.name for e in self.events], "event")
        if not self.states:
            raise ValueError("a model needs at least one state")
        n = len(self.states)
        if not 0 <= self.initial < n:
            raise ValueError(f"initial state index out of range: {self.initial}")
        for q in self.faulty:
            if not 0 <= q < n:
                raise ValueError(f"faulty state index out of range: {q}")
        for t in self.transitions:
            src, ev, dst = t
            if not 0 <= src < n or not 0 <= dst < n:
                raise ValueError(f"transition state index out of range: {t}")
            if not 0 <= ev < len(self.events):
                raise ValueError(f"transition event index out of range: {t}")
        return self

    # -- naming ---------------------------------------------------------

    @cached_property
    def state_index(self) -> Mapping[str, int]:
        return {name: q for q, name in enumerate(self.states)}

    @cached_property
    def event_index(self) -> Mapping[str, int]:
        return {e.name: i for i, e in enumerate(self.events)}

    # -- adjacency ------------------------------------------------------

    @cached_property
    def incoming(self) -> tuple[tuple[Transition, ...], ...]:
        inc: list[list[Transition]] = [[] for _ in self.states]
        for t in self.transitions:
            inc[t[2]].append(t)
        return tuple(tuple(ts) for ts in inc)

    @cached_property
    def move_tables(self) -> tuple[tuple, tuple]:
        """Per state: observable event -> targets, and silent (event, target) moves.

        The one forward table, built in one pass; both parts keep
        transition order.
        """
        obs = [e.observable for e in self.events]
        observable: list[dict[int, list[int]]] = [{} for _ in self.states]
        silent: list[list[tuple[int, int]]] = [[] for _ in self.states]
        for src, ev, dst in self.transitions:
            if obs[ev]:
                observable[src].setdefault(ev, []).append(dst)
            else:
                silent[src].append((ev, dst))
        for row in observable:
            for ev, ts in row.items():
                row[ev] = tuple(ts)
        return tuple(observable), tuple(map(tuple, silent))

    @cached_property
    def closed_successors(self) -> tuple[tuple[int, ...] | None, ...]:
        """Per event: None if unobservable, else per state the bit mask of
        its targets on that event, closed under unobservable moves."""
        n = len(self.states)
        closure = [sum(1 << t for t in unobservable_closure(self, [q])) for q in range(n)]
        rows = [[0] * n if e.observable else None for e in self.events]
        for src, ev, dst in self.transitions:
            row = rows[ev]
            if row is not None:
                row[src] |= closure[dst]
        return tuple(row if row is None else tuple(row) for row in rows)

    @cached_property
    def distance_table(self):
        """The model's one DistanceTable; see compute_distances."""
        from .distances import build_distances  # which imports this module
        return build_distances(self)

    @cached_property
    def belief_engine(self):
        """The belief engine shared by the model's PredictionSessions."""
        from .belief import _BeliefEngine  # which imports this module
        return _BeliefEngine(self, self.distance_table)

    # -- semantic identity ----------------------------------------------

    @cached_property
    def _signature(self) -> tuple:
        return (
            tuple(sorted((e.name, e.observable) for e in self.events)),
            tuple(sorted(self.states)),
            self.states[self.initial],
            tuple(sorted(self.states[q] for q in self.faulty)),
            tuple(
                sorted(
                    {
                        (self.states[s], self.events[e].name, self.states[t])
                        for s, e, t in self.transitions
                    }
                )
            ),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DesModel):
            return self._signature == other._signature
        # False for any other tuple: NotImplemented would let tuple's reflected
        # __eq__ compare the fields, which hash differently.
        return False if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._signature)

    __ne__ = object.__ne__  # inverts __eq__; tuple's own __ne__ compares fields

    def __lt__(self, other: object) -> bool:
        # Raises for any operand: returning NotImplemented would let a plain
        # tuple's reflected comparison order the fields.
        raise TypeError("models have no order")

    __le__ = __gt__ = __ge__ = __lt__


def _check_names(names: Sequence[str], kind: str) -> None:
    seen: set[str] = set()
    for name in names:
        # "#" starts a comment in the file format, so it could not be read back.
        if "#" in name or name.split() != [name]:  # also refuses the empty name
            raise ValueError(f"bad {kind} name: {name!r}")
        if name in seen:
            raise ValueError(f"duplicate {kind} name: {name}")
        seen.add(name)


def make_model(
    events: Iterable[tuple[str, bool]],
    transitions: Iterable[tuple[str, str, str]],
    initial: str,
    faulty: Iterable[str] = (),
) -> DesModel:
    """Assemble a model from names.

    State indices follow first mention (the initial state, fault states,
    and transition endpoints in order); to fix them otherwise, build the
    DesModel by index.  Event indices follow the order of `events`.
    Exact duplicate transitions collapse.  The result is not validated;
    run `validate` or `check_valid` separately.
    """
    event_list = [Event(name, bool(obs)) for name, obs in events]
    event_ids = {e.name: i for i, e in enumerate(event_list)}
    ids = {initial: 0}  # state name -> index, in order of first mention
    fault_ids = frozenset(ids.setdefault(name, len(ids)) for name in faulty)
    trans: list[Transition] = []
    for src, ev, dst in transitions:
        if ev not in event_ids:
            raise ValueError(f"undeclared event in transition: {ev}")
        trans.append((ids.setdefault(src, len(ids)), event_ids[ev], ids.setdefault(dst, len(ids))))
    return DesModel(
        states=tuple(ids),
        events=tuple(event_list),
        transitions=tuple(dict.fromkeys(trans)),
        initial=0,
        faulty=fault_ids,
    )


# -- validation -----------------------------------------------------------

#: Finding codes, one per structural invariant.
LIVENESS = "liveness"
FAULT_CLOSURE = "fault-closure"
INITIAL_FAULTY = "initial-faulty"
OBSERVATION_LIVENESS = "observation-liveness"


class Finding(NamedTuple):
    """One validation problem: what rule broke, and where."""

    code: str
    message: str


def validate(model: DesModel) -> tuple[Finding, ...]:
    """Check the four structural invariants and return every violation."""
    findings: list[Finding] = []

    observable, silent = model.move_tables
    for q in range(len(model.states)):
        if not observable[q] and not silent[q]:
            findings.append(
                Finding(LIVENESS, f"state {model.states[q]} has no outgoing transition")
            )

    for src, ev, dst in model.transitions:
        if src in model.faulty and dst not in model.faulty:
            text = _trans_text(model, (src, ev, dst))
            findings.append(Finding(FAULT_CLOSURE, f"transition {text} leaves the fault set"))

    if model.initial in model.faulty:
        findings.append(
            Finding(INITIAL_FAULTY, f"initial state {model.states[model.initial]} is faulty")
        )

    cycle = _unobservable_cycle(model)
    if cycle is not None:
        text = " -> ".join(model.states[q] for q in cycle)
        findings.append(
            Finding(OBSERVATION_LIVENESS, f"cycle {text} uses only unobservable events")
        )

    return tuple(findings)


def check_valid(model: DesModel) -> None:
    """Raise InvalidModelError when validate finds anything."""
    findings = validate(model)
    if findings:
        raise InvalidModelError(findings)


def _trans_text(model: DesModel, t: Transition) -> str:
    src, ev, dst = t
    return f"{model.states[src]} -{model.events[ev].name}-> {model.states[dst]}"


def _unobservable_cycle(model: DesModel) -> list[int] | None:
    # Iterative DFS over unobservable edges; returns one offending cycle.
    # The stack is the path from its root, so a move back onto it closes one.
    silent = model.move_tables[1]
    color = [0] * len(model.states)  # 0 new, 1 on stack, 2 done
    for root in range(len(model.states)):
        if color[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = 1
        while stack:
            q, i = stack[-1]
            moves = silent[q]
            if i < len(moves):
                stack[-1] = (q, i + 1)
                nxt = moves[i][1]
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
                elif color[nxt] == 1:
                    path = [p for p, _ in stack]
                    return path[path.index(nxt):] + [nxt]
            else:
                color[q] = 2
                stack.pop()
    return None


# -- normalization and closure ---------------------------------------------


def fault_closure(model: DesModel) -> DesModel:
    """Extend the fault set with everything reachable from it.

    Fault permanence then holds by construction.  Raises
    InitialFaultyError when the closure swallows the initial state, since
    such a model has no non-faulty behavior left to predict.
    """
    observable, silent = model.move_tables
    closed = set(model.faulty)
    queue = deque(closed)
    while queue:
        q = queue.popleft()
        for dst in chain(*observable[q].values(), (t for _, t in silent[q])):
            if dst not in closed:
                closed.add(dst)
                queue.append(dst)
    if model.initial in closed:
        raise InitialFaultyError(
            f"fault closure reaches the initial state {model.states[model.initial]}"
        )
    if closed == model.faulty:
        return model
    return model._replace(faulty=frozenset(closed))


def unobservable_closure(model: DesModel, states: Iterable[int]) -> frozenset[int]:
    """All states reachable from `states` using unobservable events only."""
    silent = model.move_tables[1]
    closed = set(states)
    queue = deque(closed)
    while queue:
        q = queue.popleft()
        for _, dst in silent[q]:
            if dst not in closed:
                closed.add(dst)
                queue.append(dst)
    return frozenset(closed)
