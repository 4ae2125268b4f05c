"""Online fault prediction by tracking the set of possible states.

After an observation sequence o, the monitor's knowledge is the belief:
every state some run consistent with o could be in right now, including
states reached by trailing unobservable events.  The prediction emitted
for o is the hull of the member states' own intervals, so its bounds are
achieved by (at most) two members, recorded as witnesses.  Feeding one
more observation can only keep or sharpen the promise: the new interval
is contained in the old one shifted by one observation.

A belief is a bit mask over the states; its successor on an event is the
union of its members' rows in the model's closed-successor table, and an
empty union means no run explains the event.  One engine, the observer
(subset) construction built lazily, numbers beliefs as found and memoizes
the edges between them: a new belief costs one pass over its members, a
revisited one a dict lookup.  Sessions on a model share the one engine it
keeps, which starts new tables at DEFAULT_NODE_CAP beliefs;
compile_predictor expands an engine of its own and refuses past its cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Mapping, Sequence, Union

from .distances import DistanceTable, compute_distances
from .errors import CapExceededError, ImpossibleObservationError
from .intervals import Interval
from .model import DesModel, unobservable_closure

#: Node ceiling of compile_predictor, and of a session's belief cache.
DEFAULT_NODE_CAP = 1 << 16


@dataclass(frozen=True)
class BeliefState:
    """A non-empty set of possible states with its hull interval.

    witnesses holds one member achieving the lower bound and one
    achieving the upper bound, in that order.
    """

    members: frozenset[int]
    interval: Interval
    witnesses: tuple[int, int]


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    if mask.bit_count() * 8 < mask.bit_length():
        # Sparse: peel off the lowest set bit.
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length() - 1)
            mask ^= low
        return members
    bits = bin(mask)[:1:-1].encode().translate(_BITS)
    return list(compress(range(len(bits)), bits))


class _BeliefEngine:
    """The beliefs of one model found so far, numbered in discovery order,
    and their memoized edges, keyed by node * len(events) + event."""

    def __init__(self, model: DesModel, table: DistanceTable):
        self.model, self.table = model, table
        self.rows = model.closed_successors
        self.width = len(model.events)
        self.index: dict[int, int] = {}
        self.masks: list[int] = []
        self.intervals: list[Interval] = []
        self.edges: dict[int, int] = {}
        self._shared: dict[tuple, Interval] = {}  # one Interval per (lo, hi)
        self.start = sum(1 << q for q in unobservable_closure(model, (model.initial,)))
        self.add(self.start)

    def node(self, mask: int) -> int:
        """The node of a belief mask, added when new, after a flush when full."""
        node = self.index.get(mask)
        if node is None:
            if len(self.masks) >= DEFAULT_NODE_CAP:
                # New tables, not cleared: sessions still read their nodes in the old.
                self.index, self.masks, self.intervals, self.edges = {}, [], [], {}
            node = self.add(mask)
        return node

    def add(self, mask: int) -> int:
        members = _members(mask)
        dmin, dmax = self.table.dmin.__getitem__, self.table.dmax.__getitem__
        bounds = (min(map(dmin, members)), max(map(dmax, members)))
        interval = self._shared.get(bounds)
        if interval is None:
            interval = self._shared[bounds] = Interval(*bounds)
        node = self.index[mask] = len(self.masks)
        self.masks.append(mask)
        self.intervals.append(interval)
        return node

    def successor(self, members: list[int], event: int) -> int:
        """The belief mask after observing event, 0 when none."""
        return reduce(or_, filter(None, map(self.rows[event].__getitem__, members)), 0)

    def step(self, node: int, event: int) -> int:
        """The node after observing event at node; a new target first
        flushes the engine when it is full."""
        if not 0 <= event < self.width:
            raise ImpossibleObservationError(f"unknown event index: {event}")
        nxt = self.edges.get(node * self.width + event)
        if nxt is not None:
            return nxt
        name = self.model.events[event].name
        if self.rows[event] is None:
            raise ImpossibleObservationError(f"event {name} is not observable")
        mask = self.successor(_members(self.masks[node]), event)
        if not mask:
            raise ImpossibleObservationError(f"no run explains observing {name} here")
        masks = self.masks
        nxt = self.node(mask)
        if self.masks is masks:  # not flushed, so node is still one of these tables
            self.edges[node * self.width + event] = nxt
        return nxt

    def belief(self, mask: int, interval: Interval) -> BeliefState:
        members = _members(mask)
        # The first extreme member in ascending order: ties go to the smallest index.
        dmin, dmax = self.table.dmin.__getitem__, self.table.dmax.__getitem__
        witnesses = (min(members, key=dmin), max(members, key=dmax))
        return BeliefState(frozenset(members), interval, witnesses)


def initial_belief(model: DesModel, table: DistanceTable) -> BeliefState:
    """The belief before any observation: the initial state's closure."""
    return PredictionSession(model, table).belief


def belief_step(
    model: DesModel, table: DistanceTable, belief: BeliefState, event: int
) -> BeliefState:
    """Advance a belief by one observed event.

    Raises ImpossibleObservationError when the event is unknown or
    unobservable or no member can take it, since then no run of the model
    produces this observation.
    """
    engine = _BeliefEngine(model, table)
    node = engine.step(engine.node(sum(1 << q for q in belief.members)), event)
    return engine.belief(engine.masks[node], engine.intervals[node])


def predict_sequence(
    model: DesModel, table: DistanceTable, events: Sequence[int]
) -> Interval:
    """The interval announced after observing the whole sequence."""
    engine = _BeliefEngine(model, table)
    return engine.intervals[reduce(engine.step, events, 0)]


class PredictionSession:
    """Mutable online predictor over a stream of observed events.

    Events may be given by index or by name.  The current belief and its
    interval are available between feeds; a rejected event leaves them
    unchanged.  Sessions handed no table, or the model's own, share it and
    the model's belief engine, so feed them from one thread at a time; a
    session handed another table has an engine of its own.
    """

    def __init__(self, model: DesModel, table: DistanceTable | None = None):
        self.model = model
        own = table is None or table is compute_distances(model)
        self.table = compute_distances(model) if own else table
        self._engine = model.belief_engine if own else _BeliefEngine(model, table)
        self._node = self._engine.node(self._engine.start)
        self._masks = self._engine.masks  # the tables that self._node indexes
        self.interval: Interval = self._engine.intervals[self._node]

    @property
    def belief(self) -> BeliefState:
        return self._engine.belief(self._masks[self._node], self.interval)

    def feed(self, event: Union[int, str]) -> Interval:
        if isinstance(event, str):
            index = self.model.event_index.get(event)
            if index is None:
                raise ImpossibleObservationError(f"unknown event name: {event}")
            event = index
        engine, node = self._engine, self._node
        if self._masks is not engine.masks:  # flushed since this session's last step
            node = engine.node(self._masks[node])
        self._node = node = engine.step(node, event)
        self._masks, self.interval = engine.masks, engine.intervals[node]
        return self.interval


@dataclass(frozen=True)
class BeliefAutomaton:
    """Every reachable belief, with one edge per feasible observation."""

    nodes: tuple[BeliefState, ...]
    edges: Mapping[tuple[int, int], int]
    initial: int = 0

    def step(self, node: int, event: int) -> int | None:
        return self.edges.get((node, event))


def compile_predictor(
    model: DesModel,
    table: DistanceTable | None = None,
    cap: int = DEFAULT_NODE_CAP,
) -> BeliefAutomaton:
    """Expand every belief of the engine, breadth-first.

    Raises CapExceededError as soon as a (cap+1)-th distinct belief shows
    up, reporting how many were explored.
    """
    engine = _BeliefEngine(model, table or compute_distances(model))
    observable = [e for e, row in enumerate(engine.rows) if row is not None]
    for node, mask in enumerate(engine.masks):  # grows as beliefs are found
        members = _members(mask)
        for event in observable:
            target = engine.successor(members, event)
            if not target:
                continue
            nxt = engine.index.get(target)
            if nxt is None:
                if len(engine.masks) >= cap:
                    raise CapExceededError(cap, len(engine.masks))
                nxt = engine.add(target)
            engine.edges[node * engine.width + event] = nxt
    edges = {divmod(key, engine.width): nxt for key, nxt in engine.edges.items()}
    nodes = tuple(map(engine.belief, engine.masks, engine.intervals))
    return BeliefAutomaton(nodes=nodes, edges=edges, initial=0)
