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
empty union means no run explains the event.  One engine per model, the
observer (subset) construction built lazily, makes each belief a node
when found and reads it once for its hull bounds and the row from which
every step and successor is computed.  A dense mask is read as the OR of
ceil(n/8) byte-table entries (the method of four Russians): its rows and
one field whose lowest and highest set bits are its hull.  A position's
whole table is built the first time a read meets a non-zero byte there.
A sparse mask is read member by member.  Witnesses are found only where
read.  A session holds only its node; compile_predictor numbers its own
nodes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from operator import getitem, or_
from typing import Mapping, NamedTuple, Union

from .distances import DistanceTable
from .errors import CapExceededError, ImpossibleObservationError
from .intervals import INF, ExtNat, Interval
from .model import DesModel, unobservable_closure

#: Node ceiling of the engine a model's sessions share, read at every
#: flush.  compile_predictor's cap and `faultcast compile --cap` default to
#: the value it has when this module and the CLI are imported.
DEFAULT_NODE_CAP = 1 << 16


class BeliefState(namedtuple("BeliefState", "mask interval witnesses")):
    """A non-empty set of possible states with its hull Interval.

    mask is the belief: bit q is set when state q is a member; members is
    decoded from it one set bit at a time the first time it is read, and
    kept in the instance's __dict__.  witnesses holds the least member
    reaching the lower bound and the least reaching the upper bound.
    """

    @cached_property
    def members(self) -> frozenset[int]:
        """The member states, decoded from mask the first time they are read."""
        return frozenset(_members(self.mask))

    def __repr__(self) -> str:
        members, interval, witnesses = _members(self.mask), self.interval, self.witnesses
        return f"BeliefState({members=}, {interval=}, {witnesses=})"


# A byte position's table until it is built: slot 0, no members, holds 0.
_UNFILLED = (0,) + (None,) * 255


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending, in one step per member."""
    members = []
    while mask:  # peel off the lowest set bit
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


class _Node:
    """A found belief: its mask, the row its one read left, and its interval."""

    __slots__ = ("mask", "row", "interval")

    def __init__(self, mask: int, row: int | list[int], interval: Interval):
        self.mask, self.row, self.interval = mask, row, interval


class _BeliefEngine:
    """The beliefs of one model found so far, as nodes by mask, each with
    the row its one read left.  A step computes its target from the row
    and looks it up by mask.  A full engine starts its index anew; a
    session holding an old node then steps on from that node's row.

    A dense mask is read a byte at a time.  Each state packs its rows, one
    per observable event n bits apart, and above them a field of 1 + the
    table's largest finite distance bits, top bit INF, with bits dmin[q]
    and dmax[q] set.  Slot b of a position's table ORs the packed ints of
    b's states, so the OR of a mask's entries is its row, and its field's
    lowest and highest set bits are its hull, given dmin[q] <= dmax[q] on
    every state: a model's own table, the only kind the engine is given,
    holds that.  A position's table is built whole, all 2^k slots of its k
    states, the first time a dense read meets a non-zero byte there; until
    then it is _UNFILLED, whose slot 0 reads 0.  The tables and move lists
    depend only on the model and the table: they outlive a flush, and
    compile_predictor shares them.
    """

    def __init__(self, model: DesModel, table: DistanceTable):
        self.model, self.table = model, table
        self.rows = model.closed_successors
        n = len(model.states)
        observable = [e for e, row in enumerate(self.rows) if row is not None]
        self.shifts = {e: k * n for k, e in enumerate(observable)}
        self.full = (1 << n) - 1
        self._inf = 1 + max((d for d in table.dmin + table.dmax if d != INF), default=-1)
        self._field_at = len(observable) * n  # the bounds field's first bit
        self._tables = [_UNFILLED] * ((n + 7) // 8)  # per byte position, by byte value
        self._moves: list[list | None] = [None] * n  # per state, its (event, row) moves
        self.index: dict[int, _Node] = {}
        self._shared: dict[tuple, Interval] = {}  # one Interval per (lo, hi)
        self.start = sum(1 << q for q in unobservable_closure(model, (model.initial,)))

    def node(self, mask: int) -> _Node:
        """The node of a belief mask, added when new, after a flush when full."""
        node = self.index.get(mask)
        if node is None:
            if len(self.index) >= DEFAULT_NODE_CAP:
                self.index = {}
            row, lo, hi = self.read(mask)
            node = self.index[mask] = _Node(mask, row, self.interval(lo, hi))
        return node

    def interval(self, lo: ExtNat, hi: ExtNat) -> Interval:
        """The hull interval (lo, hi), one shared object per pair of bounds."""
        return self._shared.get((lo, hi)) or self._shared.setdefault((lo, hi), Interval(lo, hi))

    def _fill(self, position: int) -> None:
        """Build a byte position's whole table by doubling: slot b is slot
        b without its top bit, ORed with that bit's state's packed int."""
        inf, dmin, dmax = self._inf, self.table.dmin, self.table.dmax
        table = [0]
        for q in range(position * 8, min(position * 8 + 8, len(dmin))):
            field = 1 << min(dmin[q], inf) | 1 << min(dmax[q], inf)  # min(d, inf): d's bit
            rows = sum(self.rows[e][q] << shift for e, shift in self.shifts.items())
            packed = rows | field << self._field_at
            table += [entry | packed for entry in table]
        self._tables[position] = table

    def read(self, mask: int) -> tuple[int | list[int], ExtNat, ExtNat]:
        """The belief's row and hull bounds.  A dense row ORs its bytes'
        entries; a sparse row is its members."""
        # Dense: at least one member per byte up to the top one, on average.
        if mask.bit_count() * 8 >= mask.bit_length():
            data = mask.to_bytes(len(self._tables), "little")
            try:
                row = reduce(or_, map(getitem, self._tables, data), 0)
            except TypeError:  # an untouched position's non-zero byte holds None
                for position, byte in enumerate(data):
                    if byte and self._tables[position] is _UNFILLED:
                        self._fill(position)
                row = reduce(or_, map(getitem, self._tables, data), 0)
            field, inf = row >> self._field_at, self._inf
            lo, hi = (field & -field).bit_length() - 1, field.bit_length() - 1
            return row, INF if lo == inf else lo, INF if hi == inf else hi
        members = _members(mask)
        dmin, dmax = self.table.dmin.__getitem__, self.table.dmax.__getitem__
        return members, min(map(dmin, members)), max(map(dmax, members))

    @cached_property
    def _levels(self) -> tuple[dict[ExtNat, int], dict[ExtNat, int]]:
        # The mask of the states at each dmin value, and at each dmax value.
        levels: tuple[dict[ExtNat, int], dict[ExtNat, int]] = ({}, {})
        for q, bounds in enumerate(zip(self.table.dmin, self.table.dmax)):
            for level, d in zip(levels, bounds):
                level[d] = level.get(d, 0) | 1 << q
        return levels

    def witnesses(self, mask: int, lo: ExtNat, hi: ExtNat) -> tuple[int, int]:
        """The least member of mask at dmin lo and the least at dmax hi."""
        with_dmin, with_dmax = self._levels
        low, high = mask & with_dmin[lo], mask & with_dmax[hi]
        return (low & -low).bit_length() - 1, (high & -high).bit_length() - 1

    def successor(self, row: int | list[int], event: int) -> int:
        """The belief mask after observing event from a belief's row, 0 when none."""
        if type(row) is list:  # a sparse belief's members, never empty
            return reduce(or_, map(self.rows[event].__getitem__, row))
        return row >> self.shifts[event] & self.full

    def successors(self, row: int | list[int]) -> list[tuple[int, int]]:
        """The (event, belief mask) pairs after every observable event from
        a belief's row, ascending by event, leaving out the events with no
        target.  A sparse row ORs its members' move lists per event."""
        if type(row) is not list:
            return [(e, t) for e, shift in self.shifts.items() if (t := row >> shift & self.full)]
        moves = self._moves
        for q in row:
            if moves[q] is None:
                moves[q] = [(e, r[q]) for e in self.shifts if (r := self.rows[e])[q]]
        if len(row) == 1:
            return moves[row[0]]
        targets: dict[int, int] = {}
        for q in row:
            for event, target in moves[q]:
                targets[event] = targets.get(event, 0) | target
        return sorted(targets.items())

    def step(self, node: _Node, event: int) -> _Node:
        """The node after observing event at node, from its row; a new
        target first flushes the engine when it is full."""
        if not 0 <= event < len(self.rows):
            raise ImpossibleObservationError(f"unknown event index: {event}")
        if self.rows[event] is not None and (mask := self.successor(node.row, event)):
            return self.node(mask)
        name = self.model.events[event].name
        if self.rows[event] is None:
            raise ImpossibleObservationError(f"event {name} is not observable")
        raise ImpossibleObservationError(f"no run explains observing {name} here")


class PredictionSession:
    """Mutable online predictor over a stream of observed events.

    Events may be given by index or by name.  A session holds only its
    node in the belief engine the model keeps: the current belief and its
    interval are read from that node between feeds, and a rejected event
    leaves it unchanged.  The sessions on one model share its engine, so
    feed them from one thread at a time.
    """

    def __init__(self, model: DesModel):
        self.model = model
        self._engine = model.belief_engine
        self._node = self._engine.node(self._engine.start)

    @property
    def interval(self) -> Interval:
        """The current belief's hull interval."""
        return self._node.interval

    @property
    def belief(self) -> BeliefState:
        """The current belief, with its interval and its witnesses."""
        mask, interval = self._node.mask, self._node.interval
        return BeliefState(mask, interval, self._engine.witnesses(mask, interval.lo, interval.hi))

    def feed(self, event: Union[int, str]) -> Interval:
        """Observe event and return the new belief's interval.  Raises
        ImpossibleObservationError, leaving the session unchanged, for an
        unknown, unobservable or unexplained event."""
        if isinstance(event, str):
            index = self.model.event_index.get(event)
            if index is None:
                raise ImpossibleObservationError(f"unknown event name: {event}")
            event = index
        elif not isinstance(event, int) or isinstance(event, bool):
            raise ImpossibleObservationError(f"not an event name or index: {event!r}")
        self._node = node = self._engine.step(self._node, event)
        return node.interval


class BeliefAutomaton(NamedTuple):
    """Every reachable belief, with one edge per feasible observation."""

    nodes: tuple[BeliefState, ...]
    edges: Mapping[tuple[int, int], int]
    initial: int = 0


def compile_predictor(model: DesModel, cap: int = DEFAULT_NODE_CAP) -> BeliefAutomaton:
    """Expand every belief on all events at once, breadth-first, reading
    each once through the engine the model keeps.

    Raises CapExceededError as soon as a (cap+1)-th distinct belief shows
    up, reporting how many were explored, and ValueError for a cap below 1.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1: {cap}")
    engine = model.belief_engine
    masks, intervals = [engine.start], []
    index = {engine.start: 0}
    edges: dict[tuple[int, int], int] = {}
    for node, mask in enumerate(masks):  # grows as beliefs are found
        # One read, here and not when found, gives its interval and successors.
        row, lo, hi = engine.read(mask)
        intervals.append(engine.interval(lo, hi))
        for event, target in engine.successors(row):
            nxt = index.get(target)
            if nxt is None:
                if len(masks) >= cap:
                    raise CapExceededError(cap, len(masks))
                nxt = index[target] = len(masks)
                masks.append(target)
            edges[node, event] = nxt
    witnesses = engine.witnesses  # only now, so that a refused compile finds none
    nodes = tuple(BeliefState(m, i, witnesses(m, i.lo, i.hi)) for m, i in zip(masks, intervals))
    return BeliefAutomaton(nodes=nodes, edges=edges, initial=0)
