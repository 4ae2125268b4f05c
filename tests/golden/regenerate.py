"""Rewrite belief.json, the recorded CLI answers of the belief side.

Each record holds the argv of one `faultcast predict`, `compile --json -`
or `compile --dot -` call, the stdin it read, and its exit code, stdout
and stderr.  The models are the drifting plant, `gen fig3a` at n = 2 and
5, seeded `random_live_model` draws, and four models that fail
validation, read under `--no-validate`; each is written to a file named
as in the argv, in the working directory of the call.  A record with a
`node_cap` field was made with `faultcast.belief.DEFAULT_NODE_CAP` set
to it, so that its session's engine flushes.
tests/test_golden.py replays every record through `cli.main` and requires
the same answers.

Run from the repository root, after a change that is meant to alter an
answer, and review the diff of belief.json:

    PYTHONPATH=src:tests python tests/golden/regenerate.py
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import faultcast.belief
from faultcast import drifting_plant, fan_system, serialize_model, validate
from faultcast.cli import main

from randmodels import OracleConfig, _draw_model, random_live_model, sample_run

RECORDS = Path(__file__).with_name("belief.json")
CAP = "300"  # a compile past it is recorded as the refusal it is
NODE_CAPS = (2, 4)  # engine ceilings low enough that a predict stream flushes
FLUSHED = 8  # the models, in order, whose predict streams also run under NODE_CAPS

# Fails liveness: d is a non-faulty dead end, with dmin inf and dmax 1,
# so the belief {q, d} after "a" has the hull (1, 3), not (1, inf).
DEAD_END = """\
des v1
obs a b
init s
fault f
trans s a q
trans s a d
trans q b f
trans q a q2
trans q2 a q3
trans q3 a f
trans f a f
"""


def run(argv: list[str], stdin: str, node_cap: int | None = None) -> tuple[int, str, str]:
    """cli.main on argv with stdin as its input, under node_cap when one is
    given: (exit code, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    default = faultcast.belief.DEFAULT_NODE_CAP
    faultcast.belief.DEFAULT_NODE_CAP = node_cap or default
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin, faultcast.belief.DEFAULT_NODE_CAP = saved, default
    return code, out.getvalue(), err.getvalue()


def _streams(model, rng: random.Random) -> list[str]:
    """Observable projections of two random runs, one line per name."""
    streams = []
    for length in (6, 25):
        _, events = sample_run(model, rng, length)
        names = [model.events[e].name for e in events if model.events[e].observable]
        streams.append("".join(f"{name}\n" for name in names))
    return streams


def models() -> dict[str, tuple]:
    """File name -> (model, extra predict streams)."""
    chosen = {
        # "b" right after "a b" is impossible at {A, C}; "t" is silent.
        "plant.des": (drifting_plant(), ["a\nd\nc\na\na\n", "a\nb\nb\na\n", "a\nt\n"]),
        "fig3a-2.des": (fan_system(2), ["a\na\na\n"]),
        "fig3a-5.des": (fan_system(5), ["a\na\n"]),
    }
    rng = random.Random(2021)
    for k in range(20):
        config = OracleConfig(max_states=rng.choice([8, 24, 40]), max_events=3)
        chosen[f"random-{k:02}.des"] = (random_live_model(rng, config), [])
    return chosen


def unvalidated() -> dict[str, tuple[str, list[str]]]:
    """File name -> (model text, predict streams) of models that fail
    validation: the dead end and three draws with a fault and a silent
    cycle."""
    chosen = {"dead-end.des": (DEAD_END, ["a\n", "a\nb\na\n", "a\na\na\na\na\n", "b\n"])}
    rng = random.Random(2022)
    while len(chosen) < 4:
        model = _draw_model(rng, OracleConfig(max_states=12, max_events=3))
        if validate(model) and model.faulty:
            chosen[f"unvalidated-{len(chosen)}.des"] = (serialize_model(model), _streams(model, rng))
    return chosen


def records() -> dict:
    rng = random.Random(7)
    inputs = []  # (file name, model text, predict streams, flags, node caps)
    for k, (name, (model, extra)) in enumerate(models().items()):
        streams = extra + _streams(model, rng)
        # An unknown name ends the last stream halfway.
        lines = streams[-1].splitlines(keepends=True)
        streams[-1] = "".join(lines[: len(lines) // 2] + ["nope\n"] + lines[len(lines) // 2 :])
        inputs.append((name, serialize_model(model), streams, [], NODE_CAPS if k < FLUSHED else ()))
    for name, (text, streams) in unvalidated().items():
        inputs.append((name, text, streams, ["--no-validate"], ()))
    texts, out = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for name, text, streams, flags, caps in inputs:
                texts[name] = text
                Path(name).write_text(text)
                calls = [(["compile", "--cap", CAP, "--json", "-", *flags, name], "", None)]
                calls.append((["compile", "--cap", CAP, "--dot", "-", *flags, name], "", None))
                for cap in (None, *caps):
                    calls += [(["predict", *flags, name], stream, cap) for stream in streams]
                for argv, stdin, cap in calls:
                    code, stdout, stderr = run(argv, stdin, cap)
                    record = {"argv": argv, "stdin": stdin, "exit": code, "stdout": stdout, "stderr": stderr}
                    out.append(record | ({"node_cap": cap} if cap else {}))
        finally:
            os.chdir(cwd)
    return {"models": texts, "records": out}


if __name__ == "__main__":
    RECORDS.write_text(json.dumps(records(), indent=1) + "\n")
    print(f"wrote {RECORDS}")
