"""Interval containment and decrement, the two fuse models, small
readers of models and state sets, and two model texts whose state names
hold quotes, backslashes and commas, for tests.

A plain helper module of the test suite, imported as `helpers`; the
package never imports it.  The interval functions state how promises
relate: one observation later, the new interval lies inside the old one
decremented.  The two fuse models are small, fully observable systems
whose guarantees neither imply the other's.
"""

from __future__ import annotations

from faultcast import INF, DesModel, ExtNat, Interval, make_model


def issubset(a: Interval, b: Interval) -> bool:
    """Containment: every point of a lies inside b."""
    return b.lo <= a.lo and a.hi <= b.hi


def is_proper_subset(a: Interval, b: Interval) -> bool:
    """Strict containment: contained and not equal."""
    return issubset(a, b) and a != b


def decrement(a: Interval) -> Interval:
    """Shift the promise one observation into the future.

    Each bound drops by one, saturating so that 0 and INF are fixed
    points.  After seeing one more event, "at least lo / at most hi
    more" becomes "at least lo-1 / at most hi-1 more".
    """
    return Interval(_dec(a.lo), _dec(a.hi))


def _dec(value: ExtNat) -> ExtNat:
    if value == INF or value == 0:
        return value
    return value - 1


def by_state_name(model: DesModel, values) -> dict:
    """Per-state values keyed by state name."""
    return {model.states[q]: v for q, v in enumerate(values)}


def mask_of(states) -> int:
    """The bit mask of a set of state indexes."""
    return sum(1 << q for q in states)


#: Model texts for the DOT exports: state names that need quoting and
#: escaping, and names whose commas make pair labels collide.
QUOTED_MODEL = (
    'des v1\nobs a b\nhidden h\ninit "B\nfault x"y\\\n'
    'trans "B a a\\b\ntrans a\\b h "B\ntrans "B b x"y\\\n'
    'trans x"y\\ a x"y\\\ntrans a\\b a x"y\\\n'
)
COMMA_MODEL = (
    "des v1\nobs x\ninit i\n"
    "trans i x a,b\ntrans i x c\ntrans i x a\ntrans i x b,c\n"
    "trans a,b x a,b\ntrans c x c\ntrans a x a\ntrans b,c x b,c\n"
)


def is_deterministic(model: DesModel) -> bool:
    """No state has two transitions on one event."""
    moves = {(src, ev) for src, ev, _ in model.transitions}
    return len(moves) == len(set(model.transitions))


def short_fuse() -> DesModel:
    """Fully observable chain where the warning comes one step ahead.

    S0 can idle on b forever; the first a commits it to the fault two
    observations later, and after the second a the fault is immediate.
    The fault is predictable with a tight one-step horizon and nothing
    looser.
    """
    return make_model(
        events=[("a", True), ("b", True)],
        transitions=[
            ("S0", "a", "S1"),
            ("S0", "b", "S0"),
            ("S1", "a", "S2"),
            ("S2", "a", "S2"),
        ],
        initial="S0",
        faulty=["S2"],
    )


def long_fuse() -> DesModel:
    """Fully observable model with an early but imprecise warning.

    Once A takes a, the fault is certain, but it arrives after two or
    three more observations depending on whether C goes straight in or
    detours through D.  Compared with short_fuse the warning is earlier
    and the arrival window wider; neither system's guarantee implies the
    other's.
    """
    return make_model(
        events=[("a", True), ("b", True)],
        transitions=[
            ("A", "a", "B"),
            ("A", "b", "A"),
            ("B", "a", "C"),
            ("C", "a", "E"),
            ("C", "b", "D"),
            ("D", "b", "E"),
            ("E", "a", "E"),
        ],
        initial="A",
        faulty=["E"],
    )
