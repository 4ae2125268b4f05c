"""The seeded random model generator behind the agreement sweeps, plus a
random run sampler for soundness checks.

A plain helper module of the test suite, imported as `randmodels`; the
package never imports it.  Each seed draws the same models on every run,
so a seeded sweep always tests the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from faultcast.model import DesModel, Event, validate


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the random sweeps; defaults match the test suite."""

    max_states: int = 8
    max_events: int = 4
    observable_prob: float = 0.7
    fault_prob: float = 0.15
    max_out_degree: int = 3


def random_live_model(rng: random.Random, config: OracleConfig = OracleConfig()) -> DesModel:
    """Draw a random model satisfying all structural invariants.

    Samples are built so that liveness, fault closure, and a non-faulty
    initial state hold by construction (faulty states only ever target
    faulty states, every state gets at least one outgoing edge, state 0
    is initial and never faulty, event 0 is always observable).
    Observation liveness can still fail; such draws are rejected and
    redrawn, never repaired.
    """
    for _ in range(1000):
        model = _draw_model(rng, config)
        if not validate(model):
            return model
    raise RuntimeError("random model generation kept failing validation")


def _draw_model(rng: random.Random, config: OracleConfig) -> DesModel:
    n = rng.randint(2, config.max_states)
    n_events = rng.randint(1, config.max_events)
    event_names = [chr(ord("a") + k) for k in range(n_events)]
    events = tuple(
        Event(name, k == 0 or rng.random() < config.observable_prob)
        for k, name in enumerate(event_names)
    )
    faulty = frozenset(
        q for q in range(1, n) if rng.random() < config.fault_prob
    )
    fault_list = sorted(faulty)
    transitions: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    for q in range(n):
        for _ in range(rng.randint(1, config.max_out_degree)):
            event = rng.randrange(n_events)
            if q in faulty:
                dst = rng.choice(fault_list)
            else:
                dst = rng.randrange(n)
            t = (q, event, dst)
            if t not in seen:
                seen.add(t)
                transitions.append(t)
    return DesModel(
        states=tuple(f"q{k}" for k in range(n)),
        events=events,
        transitions=tuple(transitions),
        initial=0,
        faulty=faulty,
    )


def sample_run(
    model: DesModel, rng: random.Random, length: int
) -> tuple[list[int], list[int]]:
    """A uniform random walk from the initial state.

    Returns (states, events) with len(states) == len(events) + 1; always
    possible up to the requested length because of liveness.  It groups
    the transitions itself and reads none of the model's cached tables.
    """
    by_source = [[t for t in model.transitions if t[0] == q] for q in range(len(model.states))]
    states = [model.initial]
    events: list[int] = []
    for _ in range(length):
        src, ev, dst = rng.choice(by_source[states[-1]])
        events.append(ev)
        states.append(dst)
    return states, events
