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
(subset) construction built lazily, makes each belief a node when found
and memoizes the edges between nodes; a revisited edge costs a dict
lookup.  Each belief is read once, when found: the read gives its
interval, and its node keeps the part of it that gives its successors.
A dense mask, with at least one member per byte on average, is read in
at most ceil(n/8) lookups of memoized byte entries (the method of four
Russians), which give its successor on every observable event, its
interval and its witnesses without decoding it.  A sparse mask is read
by one pass over its members.  Every interval comes from the model's
own distance table.  A model keeps one engine, which starts its nodes
anew at DEFAULT_NODE_CAP beliefs; a session holds only its node, so one
left behind steps on from it.  compile_predictor numbers its own nodes,
reads each belief once through that engine, takes its successors on
every event in one pass (a sparse one from its members' move lists), and
refuses past its cap.  The mask is the belief: a BeliefState holds it
and decodes its member set on first read, so compiling builds no sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress, count
from operator import itemgetter, or_
from typing import Mapping, Union

from .distances import DistanceTable
from .errors import CapExceededError, ImpossibleObservationError
from .intervals import Interval
from .model import DesModel, unobservable_closure

#: Node ceiling of the engine a model's sessions share, read at every
#: flush.  compile_predictor's cap and `faultcast compile --cap` default to
#: the value it has when this module and the CLI are imported.
DEFAULT_NODE_CAP = 1 << 16


@dataclass(frozen=True)
class BeliefState:
    """A non-empty set of possible states with its hull interval.

    mask is the belief: bit q is set when state q is a member.  members
    is decoded from it on first read.  witnesses holds one member
    achieving the lower bound and one achieving the upper bound, in that
    order.
    """

    mask: int
    interval: Interval
    witnesses: tuple[int, int]

    @cached_property
    def members(self) -> frozenset[int]:
        """The member states, decoded from mask on first read."""
        return frozenset(_members(self.mask))

    def __repr__(self) -> str:
        return (
            f"BeliefState(members={_members(self.mask)}, interval={self.interval!r}, "
            f"witnesses={self.witnesses!r})"
        )


_BITS = bytes.maketrans(b"01", b"\x00\x01")
_PACKED, _LO, _HI = itemgetter(0), itemgetter(1), itemgetter(3)  # fields of a byte entry
# The set bits of each byte value, ascending.
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def _members(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    if mask.bit_count() * 8 >= mask.bit_length():
        bits = bin(mask)[:1:-1].encode().translate(_BITS)
        return list(compress(range(len(bits)), bits))
    return _sparse_members(mask)


def _sparse_members(mask: int) -> list[int]:
    """The set bits of mask, ascending, in one step per member."""
    members = []
    while mask:  # peel off the lowest set bit
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return members


class _Node:
    """A found belief: a serial never reused, its mask, row and interval."""

    __slots__ = ("serial", "mask", "row", "interval")

    def __init__(self, serial: int, mask: int, row: int | list[int], interval: Interval):
        self.serial, self.mask, self.row, self.interval = serial, mask, row, interval


class _BeliefEngine:
    """The beliefs of one model found so far, as nodes by mask, each with
    the row its one read left (what successor needs of it), and their
    memoized edges, keyed by node serial * len(events) + event.  A full
    engine starts both dicts anew; a session holding an old node then
    misses in the new edges and steps on from that node's row.

    A dense mask is read a byte at a time: the entry of a (byte position,
    byte value) holds, for the at most 8 states of that byte, the OR of
    their closed-successor rows with every observable event's row n bits
    apart, and their least dmin and greatest dmax with the first member
    reaching each.  Entries are filled on first use and depend only on the
    model and the table, so they outlive a flush, and compile_predictor
    shares them.  So do the move lists of the states, which only
    successors reads.
    """

    def __init__(self, model: DesModel, table: DistanceTable):
        self.model, self.table = model, table
        self.rows = model.closed_successors
        self.width = len(model.events)
        n = len(model.states)
        observable = [e for e, row in enumerate(self.rows) if row is not None]
        self.shifts = {e: k * n for k, e in enumerate(observable)}
        self.full = (1 << n) - 1
        self._bytes: dict[int, tuple] = {}  # byte position * 256 + byte value -> entry
        self._packed: list[int | None] = [None] * n  # per state, its rows n bits apart
        self._moves: list[list | None] = [None] * n  # per state, its (event, row) moves
        self._keys = range(0, 256 * ((n + 7) // 8), 256)
        self.index: dict[int, _Node] = {}
        self.edges: dict[int, _Node] = {}
        self._serials = count()
        self._shared: dict[tuple, Interval] = {}  # one Interval per (lo, hi)
        self.start = sum(1 << q for q in unobservable_closure(model, (model.initial,)))

    def node(self, mask: int) -> _Node:
        """The node of a belief mask, added when new, after a flush when full."""
        node = self.index.get(mask)
        if node is None:
            if len(self.index) >= DEFAULT_NODE_CAP:
                self.index, self.edges = {}, {}
            row, lo, hi = self.read(mask)
            node = self.index[mask] = _Node(next(self._serials), mask, row, self.interval(lo, hi))
        return node

    def interval(self, lo: int, hi: int) -> Interval:
        """The hull interval whose bounds members lo and hi reach, shared."""
        bounds = (self.table.dmin[lo], self.table.dmax[hi])
        interval = self._shared.get(bounds)
        if interval is None:
            interval = self._shared[bounds] = Interval(*bounds)
        return interval

    def _entry(self, key: int) -> tuple:
        # The low 8 bits of key are the byte value, the rest its position.
        base, packed = (key >> 8) * 8, self._packed
        members = [base + i for i in _BYTE_BITS[key & 255]]
        for q in members:
            if packed[q] is None:
                packed[q] = sum(self.rows[e][q] << shift for e, shift in self.shifts.items())
        dmin, dmax = self.table.dmin.__getitem__, self.table.dmax.__getitem__
        lo, hi = min(members, key=dmin), max(members, key=dmax)
        entry = (reduce(or_, map(packed.__getitem__, members)), dmin(lo), lo, dmax(hi), hi)
        self._bytes[key] = entry
        return entry

    def read(self, mask: int) -> tuple[int | list[int], int, int]:
        """The belief's row, its first member of least dmin and its first
        member of greatest dmax (ties go to the smallest index).  A dense
        row is the OR of its non-zero bytes' packed rows; a sparse row is
        the members.  Each belief is read once, when it becomes a node."""
        # Dense: at least one member per byte up to the top one, on average.
        if mask.bit_count() * 8 >= mask.bit_length():
            get, data = self._bytes.get, mask.to_bytes((mask.bit_length() + 7) // 8, "little")
            entries = [get(k + b) or self._entry(k + b) for k, b in zip(self._keys, data) if b]
            # min and max keep the first extreme entry, and bytes ascend.
            lo, hi = min(entries, key=_LO)[2], max(entries, key=_HI)[4]
            return reduce(or_, map(_PACKED, entries)), lo, hi
        members = _sparse_members(mask)
        dmin, dmax = self.table.dmin.__getitem__, self.table.dmax.__getitem__
        return members, min(members, key=dmin), max(members, key=dmax)

    def successor(self, row: int | list[int], event: int) -> int:
        """The belief mask after observing event from a belief's row, 0 when none."""
        if type(row) is list:  # a sparse belief's members
            return reduce(or_, filter(None, map(self.rows[event].__getitem__, row)), 0)
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
        if not 0 <= event < self.width:
            raise ImpossibleObservationError(f"unknown event index: {event}")
        key = node.serial * self.width + event
        nxt = self.edges.get(key)
        if nxt is not None:
            return nxt
        name = self.model.events[event].name
        if self.rows[event] is None:
            raise ImpossibleObservationError(f"event {name} is not observable")
        mask = self.successor(node.row, event)
        if not mask:
            raise ImpossibleObservationError(f"no run explains observing {name} here")
        nxt = self.edges[key] = self.node(mask)  # into the new dict if node() flushed
        return nxt


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
        return self._node.interval

    @property
    def belief(self) -> BeliefState:
        node = self._node
        _, lo, hi = self._engine.read(node.mask)
        return BeliefState(node.mask, node.interval, (lo, hi))

    def feed(self, event: Union[int, str]) -> Interval:
        if isinstance(event, str):
            index = self.model.event_index.get(event)
            if index is None:
                raise ImpossibleObservationError(f"unknown event name: {event}")
            event = index
        elif not isinstance(event, int) or isinstance(event, bool):
            raise ImpossibleObservationError(f"not an event name or index: {event!r}")
        self._node = node = self._engine.step(self._node, event)
        return node.interval


@dataclass(frozen=True)
class BeliefAutomaton:
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
    # Each node's witnesses, kept for its BeliefState: a refused compile
    # builds none, and two lists of ints hold less than a list of pairs.
    masks, intervals, lows, highs = [engine.start], [], [], []
    index = {engine.start: 0}
    edges: dict[tuple[int, int], int] = {}
    for node, mask in enumerate(masks):  # grows as beliefs are found
        # A node gets its interval here, not when found, so that one read
        # of it gives both its successors and its witnesses: no row is kept.
        row, lo, hi = engine.read(mask)
        intervals.append(engine.interval(lo, hi))
        lows.append(lo)
        highs.append(hi)
        for event, target in engine.successors(row):
            nxt = index.get(target)
            if nxt is None:
                if len(masks) >= cap:
                    raise CapExceededError(cap, len(masks))
                nxt = index[target] = len(masks)
                masks.append(target)
            edges[node, event] = nxt
    nodes = tuple(map(BeliefState, masks, intervals, zip(lows, highs)))
    return BeliefAutomaton(nodes=nodes, edges=edges, initial=0)
