"""Seeded inputs for the benchmark workloads.

Each generator returns a `Workload`: the model as the benchmark's own
integer structure (used by the independent reference checks), the `.des`
text handed to the program, and the observation streams with the true
run state behind every observation.  The program only ever sees the text
and the event names of the streams.

* doomed-800: 800 states on a forward-only skeleton (every state steps
  3, 13 and 29 ahead, past the end into the fault), with random labels
  over ten observable events and exactly 10% of the transitions silent.
  The fault cannot be avoided and every dmax is finite.
* monitor-200: a 200-state nondeterministic model whose healthy circulant
  part can drift silently into a look-alike doomed part.

Between random draws of these shapes, the hull count, the query grid,
the belief sizes and the belief-space size swing by a quarter up to a
hundredfold, which no timing bound survives.  So the shapes are drawn
once, from a fixed structure seed; the run seed renames the states,
reorders the file's lines (which reassigns the program's state indices)
and draws the streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

FAULT_NAME = "F"


@dataclass
class Workload:
    """A model as plain integer structure, plus its text and streams."""

    name: str
    states: list[str]
    events: list[tuple[str, bool]]
    transitions: list[tuple[int, int, int]]
    initial: int
    faulty: frozenset[int]
    # The order in which the file lists the transitions.
    line_order: list[int]
    streams: list[list[int]] = field(default_factory=list)
    # truth[k][t] is the run state right after observation t of stream k.
    truth: list[list[int]] = field(default_factory=list)
    # The faultcast subcommand timed as cli_s; predict reads stream 0.
    cli: str = "predictability"
    # Times per round that analyze, query and explain run, so that they
    # gather as many samples as the round's longer operations.
    analyses: int = 1
    # compile_predictor's node cap; None keeps the program's default.
    compile_cap: int | None = None

    def text(self) -> str:
        """The `.des` file for this model, written without the program."""
        lines = ["des v1"]
        obs = [name for name, visible in self.events if visible]
        hidden = [name for name, visible in self.events if not visible]
        if obs:
            lines.append("obs " + " ".join(obs))
        if hidden:
            lines.append("hidden " + " ".join(hidden))
        lines.append(f"init {self.states[self.initial]}")
        if self.faulty:
            lines.append("fault " + " ".join(self.states[q] for q in sorted(self.faulty)))
        for k in self.line_order:
            src, ev, dst = self.transitions[k]
            lines.append(
                f"trans {self.states[src]} {self.events[ev][0]} {self.states[dst]}"
            )
        return "\n".join(lines) + "\n"

    def stream_names(self, k: int) -> list[str]:
        return [self.events[e][0] for e in self.streams[k]]


def _walk(
    rng: random.Random,
    out: list[list[tuple[int, int]]],
    events: list[tuple[str, bool]],
    start: int,
    allowed,
    observations: int | None,
    stop,
) -> tuple[list[int], list[int]]:
    """A random run from start along edges whose target passes `allowed`.

    Returns the observed events and the run state after each of them.
    Ends after `observations` observations, or when `stop(state)` holds.
    """
    seen: list[int] = []
    states: list[int] = []
    q = start
    while observations is None or len(seen) < observations:
        if stop(q):
            break
        choices = [(ev, dst) for ev, dst in out[q] if allowed(dst)]
        ev, q = rng.choice(choices)
        if events[ev][1]:
            seen.append(ev)
            states.append(q)
    return seen, states


def _renamed(rng: random.Random, prefix: str, n: int) -> list[str]:
    numbers = list(range(n))
    rng.shuffle(numbers)
    return [f"{prefix}{k}" for k in numbers]


def _shuffled(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


def _adjacency(n: int, transitions) -> list[list[tuple[int, int]]]:
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for src, ev, dst in transitions:
        out[src].append((ev, dst))
    return out


# -- doomed-800 -------------------------------------------------------------

DOOMED_STRUCTURE_SEED = 1
DOOMED_STATES = 800
DOOMED_OFFSETS = (3, 13, 29)
DOOMED_OBSERVABLE = 10
DOOMED_SILENT_SHARE = 0.1
DOOMED_EPISODES = 64
# The belief space is larger than this cap, so compile_predictor is timed
# up to its refusal there.
DOOMED_COMPILE_CAP = 12_000


def doomed(seed: int) -> Workload:
    rng = random.Random(DOOMED_STRUCTURE_SEED)
    n = DOOMED_STATES
    fault = n
    events = [(f"o{k}", True) for k in range(DOOMED_OBSERVABLE)] + [("h", False)]
    silent = DOOMED_OBSERVABLE
    total = n * len(DOOMED_OFFSETS)
    hidden_count = round(total * DOOMED_SILENT_SHARE)
    hidden = [True] * hidden_count + [False] * (total - hidden_count)
    rng.shuffle(hidden)
    transitions: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    k = 0
    for q in range(n):
        for offset in DOOMED_OFFSETS:
            dst = q + offset if q + offset < n else fault
            ev = silent if hidden[k] else rng.randrange(DOOMED_OBSERVABLE)
            k += 1
            if (q, ev, dst) not in seen:
                seen.add((q, ev, dst))
                transitions.append((q, ev, dst))
    transitions.append((fault, 0, fault))
    rng = random.Random(seed)
    work = Workload(
        "doomed-800", _renamed(rng, "s", n) + [FAULT_NAME], events, transitions, 0,
        frozenset({fault}), line_order=_shuffled(rng, len(transitions)),
        compile_cap=DOOMED_COMPILE_CAP,
    )
    out = _adjacency(n + 1, transitions)
    for _ in range(DOOMED_EPISODES):
        seen_events, run_states = _walk(
            rng, out, events, 0, lambda q: True, None, lambda q: q == fault
        )
        work.streams.append(seen_events)
        work.truth.append(run_states)
    return work


# -- monitor-200 --------------------------------------------------------------

MON_STRUCTURE_SEED = 4
MON_HEALTHY = 120
MON_DOOMED = 80
MON_HEALTHY_OFFSETS = (1, 7, 30)
MON_DOOMED_OFFSETS = (1, 5, 11)
MON_OBSERVABLE = 5
MON_SILENT_SHARE = 0.35
MON_DRIFT_SHARE = 0.03
MON_STREAM = 4_000


def _monitor_shape() -> tuple[list[tuple[str, bool]], list[tuple[int, int, int]]]:
    rng = random.Random(MON_STRUCTURE_SEED)
    h, d = MON_HEALTHY, MON_DOOMED
    fault = h + d
    silent = MON_OBSERVABLE
    events = [(f"o{k}", True) for k in range(MON_OBSERVABLE)] + [("t", False)]

    def label() -> int:
        if rng.random() < MON_SILENT_SHARE:
            return silent
        return rng.randrange(MON_OBSERVABLE)

    transitions: set[tuple[int, int, int]] = set()
    for q in range(h):
        for offset in MON_HEALTHY_OFFSETS:
            ev = label()
            dst = q + offset
            if dst >= h:
                # Silent edges never wrap, so the silent graph stays acyclic.
                dst -= h
                if ev == silent:
                    ev = rng.randrange(MON_OBSERVABLE)
            transitions.add((q, ev, dst))
        if rng.random() < MON_DRIFT_SHARE:
            transitions.add((q, silent, h + rng.randrange(d)))
    for k in range(d):
        for offset in MON_DOOMED_OFFSETS:
            ev = label()
            dst = h + k + offset if k + offset < d else fault
            transitions.add((h + k, ev, dst))
    transitions.add((fault, 0, fault))
    return events, sorted(transitions)


def monitor(seed: int) -> Workload:
    events, transitions = _monitor_shape()
    rng = random.Random(seed)
    h = MON_HEALTHY
    n = MON_HEALTHY + MON_DOOMED + 1
    fault = n - 1
    work = Workload(
        "monitor-200", _renamed(rng, "m", n - 1) + [FAULT_NAME], events, transitions,
        0, frozenset({fault}), line_order=_shuffled(rng, len(transitions)), cli="predict",
        analyses=2,
    )
    out = _adjacency(n, transitions)
    seen_events, run_states = _walk(
        rng, out, events, 0, lambda q: q < h, MON_STREAM, lambda q: False
    )
    work.streams.append(seen_events)
    work.truth.append(run_states)
    return work


GENERATORS = {
    "doomed-800": doomed,
    "monitor-200": monitor,
}
