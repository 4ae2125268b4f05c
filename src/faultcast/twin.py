"""Pairs of states an observer can confuse, via a layered self-product search.

Two states are related when some observation sequence leaves both of them
possible.  The search explores pairs: from (q1, q2), observable events
advance both components on the same event, while an unobservable event
advances one component and leaves the other in place.  The relation is
reflexive on reachable states and symmetric but not transitive.

The relation is held as pair codes: the unordered pair q1 <= q2 is the int
q1 * n + q2, so code order is canonical pair order, and (min, max) tuples
are built only when first read.  The search runs breadth-first by
observation count.  Layer k, the pairs first reached with k observations,
is first closed under silent moves by a stack worklist; then the
observable moves of its pairs, in visiting order, seed layer k + 1.  A
pair is recorded when first seen, with its parent link if witnesses are
asked for, so the links spell out a shortest observation sequence
witnessing each pair.  The visiting order picks among equally short ones.

A deterministic, fully observable model reaches only diagonal pairs, so
there the search is linear in the reachable states and their moves.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import Iterator, Optional

from .errors import NoWitnessError
from .model import DesModel

#: An unordered state pair, stored as (min index, max index).
Pair = tuple[int, int]

#: parent pair code and the observable event taken, or None for a silent move.
ParentLink = tuple[int, Optional[int]]


class TwinReachability(namedtuple("TwinReachability", "codes size parents")):
    """The confusable-pair relation of one model, held as pair codes.

    codes maps each pair code q1 * size + q2, q1 <= q2, to its parent link,
    or to None when links were not recorded; parents is codes when they
    were, else None.  size is the model's state count.
    """

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        """The pairs as (min, max) tuples, built the first time they are read."""
        # The tuples share one int per state; fresh ints nearly double the memory.
        n, states = self.size, tuple(range(self.size))
        return frozenset((states[code // n], states[code % n]) for code in self.codes)

    @property
    def pair_count(self) -> int:
        """Number of unordered pairs (diagonal included)."""
        return len(self.codes)

    @property
    def relation_size(self) -> int:
        """Size of the relation as ordered pairs; diagonal codes are multiples of size + 1."""
        return sum(1 if code % (self.size + 1) == 0 else 2 for code in self.codes)

    def related(self, q1: int, q2: int) -> bool:
        """True when some observation sequence allows both states."""
        q1, q2 = _canon(q1, q2)
        return q2 < self.size and q1 * self.size + q2 in self.codes


def _canon(q1: int, q2: int) -> Pair:
    return (q1, q2) if q1 <= q2 else (q2, q1)


def build_twin(model: DesModel, *, witnesses: bool = False) -> TwinReachability:
    """Explore every confusable pair reachable from the initial state.

    With witnesses=True, parent links are recorded so that
    witness_observations can replay a shortest observation sequence for
    any pair.
    """
    n = len(model.states)
    observable, silent = model.move_tables
    root = model.initial * n + model.initial
    # code -> parent link (None without witnesses), in discovery order.
    links: dict[int, ParentLink | None] = {root: None}
    following = [root]
    while following:
        # Silent closure, last found first; layer keeps the visiting order.
        layer: list[int] = []
        stack = following[::-1]
        while stack:
            code = stack.pop()
            layer.append(code)
            q1, q2 = divmod(code, n)
            for _, t in silent[q1]:
                nxt = t * n + q2 if t <= q2 else q2 * n + t
                if nxt not in links:
                    links[nxt] = (code, None) if witnesses else None
                    stack.append(nxt)
            for _, t in silent[q2]:
                nxt = q1 * n + t if q1 <= t else t * n + q1
                if nxt not in links:
                    links[nxt] = (code, None) if witnesses else None
                    stack.append(nxt)
        following = []
        for code in layer:
            q1, q2 = divmod(code, n)
            row2 = observable[q2]
            for ev, targets1 in observable[q1].items():
                targets2 = row2.get(ev)
                if targets2 is None:
                    continue
                for t1 in targets1:
                    for t2 in targets2:
                        nxt = t1 * n + t2 if t1 <= t2 else t2 * n + t1
                        if nxt not in links:
                            links[nxt] = (code, ev) if witnesses else None
                            following.append(nxt)
    return TwinReachability(codes=links, size=n, parents=links if witnesses else None)


def reachable_edges(
    model: DesModel, twin: TwinReachability
) -> Iterator[tuple[Pair, int, bool, Pair]]:
    """Every move between reachable pairs, for export and inspection.

    Yields (source pair, event, observable flag, target pair), each
    combination once, sources in canonical order.
    """
    observable, silent = model.move_tables
    for q1, q2 in sorted(twin.pairs):
        moves = [
            (_canon(t1, t2), ev, True)
            for ev, targets1 in observable[q1].items()
            for t1 in targets1
            for t2 in observable[q2].get(ev, ())
        ]
        moves += [(_canon(t, q2), ev, False) for ev, t in silent[q1]]
        moves += [(_canon(q1, t), ev, False) for ev, t in silent[q2]]
        for nxt, ev, is_observable in dict.fromkeys(moves):
            yield (q1, q2), ev, is_observable, nxt


def witness_observations(twin: TwinReachability, pair: Pair) -> list[int]:
    """A shortest observation sequence making both states of pair possible.

    Returns event indices.  Requires the twin to have been built with
    witnesses=True and the pair to be in the relation.
    """
    pair = _canon(*pair)
    if twin.parents is None:
        raise NoWitnessError("twin was built without witness links")
    if not twin.related(*pair):
        raise ValueError(f"pair {pair} is not in the relation")
    events: list[int] = []
    link = twin.parents[pair[0] * twin.size + pair[1]]
    while link is not None:
        parent, event = link
        if event is not None:
            events.append(event)
        link = twin.parents[parent]
    return events[::-1]
