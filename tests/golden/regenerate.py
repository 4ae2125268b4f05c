"""Rewrite belief.json, the recorded CLI answers of the belief side.

Each record holds the argv of one `faultcast predict`, `compile --json -`
or `compile --dot -` call, the stdin it read, and its exit code, stdout
and stderr.  The models are the drifting plant, `gen fig3a` at n = 2 and
5, and seeded `random_live_model` draws; each is written to a file named
as in the argv, in the working directory of the call.
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

from faultcast import drifting_plant, fan_system, serialize_model
from faultcast.cli import main

from randmodels import OracleConfig, random_live_model, sample_run

RECORDS = Path(__file__).with_name("belief.json")
CAP = "300"  # a compile past it is recorded as the refusal it is


def run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    """cli.main on argv with stdin as its input: (exit code, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
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


def records() -> dict:
    rng = random.Random(7)
    texts, out = {}, []
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for name, (model, extra) in models().items():
                texts[name] = serialize_model(model)
                Path(name).write_text(texts[name])
                streams = extra + _streams(model, rng)
                # An unknown name ends the last stream halfway.
                lines = streams[-1].splitlines(keepends=True)
                streams[-1] = "".join(lines[: len(lines) // 2] + ["nope\n"] + lines[len(lines) // 2 :])
                calls = [(["compile", "--cap", CAP, "--json", "-", name], "")]
                calls.append((["compile", "--cap", CAP, "--dot", "-", name], ""))
                calls += [(["predict", name], stream) for stream in streams]
                for argv, stdin in calls:
                    code, stdout, stderr = run(argv, stdin)
                    out.append(
                        {"argv": argv, "stdin": stdin, "exit": code, "stdout": stdout, "stderr": stderr}
                    )
        finally:
            os.chdir(cwd)
    return {"models": texts, "records": out}


if __name__ == "__main__":
    RECORDS.write_text(json.dumps(records(), indent=1) + "\n")
    print(f"wrote {RECORDS}")
