"""Built-in example systems: the drifting plant of the README tour, and
the fan family that `faultcast gen fig3a` writes for scaling runs.
"""

from __future__ import annotations

from .model import DesModel, make_model


def drifting_plant() -> DesModel:
    """A plant that silently drifts from a healthy loop to a doomed one.

    The healthy loop A-a->B-b->A can be left at any time through the
    unobservable event t, landing in the look-alike loop C-a->D-c->C.
    Both loops can raise the alarm d, but only the drifted loop is doomed:
    after its alarm the fault state G arrives within two observations,
    while the healthy loop's alarm gives the observer the same d and a
    window of one to two observations.  A monitor therefore never knows
    which loop it is watching until the alarm, which is what makes the
    prediction intervals of this model interesting.
    """
    return make_model(
        events=[("a", True), ("b", True), ("c", True), ("d", True), ("t", False)],
        transitions=[
            ("A", "a", "B"),
            ("B", "b", "A"),
            ("A", "t", "C"),
            ("C", "a", "D"),
            ("D", "c", "C"),
            ("B", "d", "E"),
            ("D", "d", "F"),
            ("E", "c", "F"),
            ("F", "a", "G"),
            ("G", "a", "G"),
        ],
        initial="A",
        faulty=["G"],
    )


def fan_system(n: int) -> DesModel:
    """Fault-free fan of width n used for twin-size scaling runs.

    One observable a fans out to n indistinguishable states B1..Bn, which
    silently merge into C and fan out again to n absorbing states D1..Dn.
    The model has 2n+2 states and 4n transitions, while its twin has
    2n^2+2n+2 ordered reachable pairs, so the family exhibits the
    quadratic growth of the pair construction.  With no fault states all
    predictions are vacuous.
    """
    if n < 1:
        raise ValueError("fan width must be at least 1")
    transitions: list[tuple[str, str, str]] = []
    for i in range(1, n + 1):
        transitions.append(("A", "a", f"B{i}"))
    for i in range(1, n + 1):
        transitions.append((f"B{i}", "t", "C"))
    for i in range(1, n + 1):
        transitions.append(("C", "a", f"D{i}"))
    for i in range(1, n + 1):
        transitions.append((f"D{i}", "a", f"D{i}"))
    return make_model(
        events=[("a", True), ("t", False)],
        transitions=transitions,
        initial="A",
        faulty=[],
    )


#: Families the CLI generator knows, keyed by their command-line name.
GENERATORS = {"fig3a": fan_system}
