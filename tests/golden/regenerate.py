"""Rewrite the recorded CLI answers: belief.json, parse.json, analysis.json and bench.json.

Each record holds the argv of one `faultcast` call, the stdin it read, and
its exit code, stdout and stderr; each file also holds the model texts
its calls read, written to files named as in the argv, in the working
directory of the call.

* belief.json: `predict`, `compile --json -` and `compile --dot -` on
  the drifting plant, `gen fig3a` at n = 2 and 5, seeded
  `random_live_model` draws, and four models that fail validation, read
  under `--no-validate`.  A record with a `node_cap` field was made with
  `faultcast.belief.DEFAULT_NODE_CAP` set to it, so that its session's
  engine flushes.
* parse.json: `validate` and `distances` on small hand-written files,
  one per refusal of the file format and one per accepted oddity: Unicode
  separators, other line breaks, CRLF, a glued `#` and a byte-order mark,
  and the order in which undeclared events and a missing `init` are
  reported.
* analysis.json: `distances`, `twin --witnesses`, `predictability` and
  `query --witness` at i = 0, 1, 2 with three j each, on the belief
  side's first 23 models.
* bench.json: `predictability` and `query --witness` on the seed-1
  inputs of the benchmark's two workloads, written by
  bench/workloads.py: on doomed-800 (1,789 hulls) accepts, refusals
  blocked in row i, j = inf and a lead time past dmin(initial); on
  monitor-200 i = 0..3 with j = i and j = inf, where (1, inf) and
  (2, inf) are refused by a hull of a lower row.

tests/test_golden.py replays every record through `cli.main` and requires
the same answers.

Run from the repository root, after a change that is meant to alter an
answer, and review the diff of the three files:

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

GOLDEN = Path(__file__).parent
sys.path.insert(0, str(GOLDEN.parent.parent / "bench"))

from workloads import GENERATORS  # noqa: E402

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

# The body of the accepted files below, around its separators and breaks.
_OK = ["des v1", "obs a b", "hidden t", "init A", "fault F", "trans A a B", "trans B t A", "trans A b F", "trans F a F"]

# File name -> text: one file per refusal of the format, then accepted
# files with odd whitespace, line breaks and comments.  A few refusals sit
# behind the same oddities, so that their lines and columns are pinned too.
PARSE_FILES = {
    "empty.des": "",
    "comments-only.des": "# nothing here\n\n   # nor here\n",
    "wrong-header.des": "# the header is below\n\n  des  v2\ninit A\n",
    "header-extra-word.des": "des v1 extra\nobs a\n",
    "unknown-directive.des": "des v1\nobs a\ninit A\n\tstate B\n",
    "obs-no-names.des": "des v1\n  obs   # no names\ninit A\n",
    "hidden-no-names.des": "des v1\nobs a\nhidden\ninit A\n",
    "duplicate-one-line.des": "des v1\nobs a  b\t a\ninit A\n",
    "duplicate-across-lines.des": "des v1\nobs a b\nhidden  c b\ninit A\n",
    "init-two-names.des": "des v1\nobs a\n init A B\n",
    "init-no-name.des": "des v1\nobs a\ninit\n",
    "init-twice.des": "des v1\nobs a\ninit A\ntrans A a A\n   init B\n",
    "no-init.des": "des v1\nobs a\ntrans A a A\n# a trailing comment\n\n",
    "fault-no-names.des": "des v1\nobs a\ninit A\n  fault\n",
    "trans-two-args.des": "des v1\nobs a\ninit A\ntrans A a\n",
    "trans-four-args.des": "des v1\nobs a\ninit A\n\ttrans A a B C\n",
    "undeclared-event.des": "des v1\nobs a\ninit A\ntrans A a A\n  trans A b A\n",
    "tab-indented.des": "\n".join("\t" + line.replace(" ", "\t") for line in _OK) + "\n",
    # \x0b and \x0c break lines, as str.splitlines does, so they cannot separate words.
    "vt-ff-split-header.des": "\n".join(line.replace(" ", "\x0b \x0c") for line in _OK) + "\n",
    "vt-ff-line-breaks.des": "\x0b".join(_OK[:4]) + "\x0c\x0c" + "\x0c".join(_OK[4:]) + "\x0b",
    "nbsp-separators.des": "\n".join("\xa0" + line.replace(" ", "\xa0") for line in _OK) + "\n",
    "ideographic-separators.des": "\n".join(line.replace(" ", "\u3000\x1f") + "\u3000" for line in _OK) + "\n",
    "crlf.des": "\r\n".join(_OK) + "\r\n",
    "fs-line-breaks.des": "\x1c".join(_OK) + "\x1c",
    "line-separator-breaks.des": "\u2028".join(_OK) + "\u2029\x85",
    "glued-comment.des": "des v1#format\nobs a b#c\nhidden t\ninit A# start\nfault F\n" + "\n".join(line + "#" for line in _OK[5:]) + "\n",
    "byte-order-mark.des": "\ufeff" + "\n".join(_OK) + "\n",
    "two-byte-order-marks.des": "\ufeff\ufeff" + "\n".join(_OK) + "\n",
    "duplicate-after-ideographic.des": "des v1\nobs\u3000a\u3000\u3000a\ninit A\n",
    "undeclared-after-line-separators.des": "des v1\u2028obs a\x1cinit A\x1d\xa0trans A b A\n",
    "error-after-crlf.des": "des v1\r\nobs a\r\n\r\ninit A\r\n\x0btrans A a\r\n",
    # Undeclared events are looked for once the whole file is read.
    "declared-after-use.des": "des v1\ninit A\nobs a\nfault F\ntrans A b B\ntrans B a A\ntrans B b F\ntrans F a F\nobs b\n",
    "two-undeclared.des": "des v1\nobs a\ninit A\ntrans A a A\n\ttrans A c B\ntrans B d A\n",
    "no-init-and-undeclared.des": "des v1\nobs a\ntrans A b A\ntrans A a A\n",
    "undeclared-after-crlf-tab.des": "des v1\r\nobs a\r\ninit A\r\n\ttrans A a A\r\n\t trans A z A\r\n",
}


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


def replay(texts: dict[str, str], calls: list[tuple[list[str], str, int | None]]) -> list[dict]:
    """Run each (argv, stdin, node cap) call in a scratch directory that
    holds texts, each under its file name, written byte for byte."""
    out = []
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for name, text in texts.items():
                Path(name).write_text(text, encoding="utf-8", newline="")
            for argv, stdin, cap in calls:
                code, stdout, stderr = run(argv, stdin, cap)
                record = {"argv": argv, "stdin": stdin, "exit": code, "stdout": stdout, "stderr": stderr}
                out.append(record | ({"node_cap": cap} if cap else {}))
        finally:
            os.chdir(cwd)
    return out


def belief_records() -> dict:
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
    calls = []
    for name, _, streams, flags, caps in inputs:
        calls.append((["compile", "--cap", CAP, "--json", "-", *flags, name], "", None))
        calls.append((["compile", "--cap", CAP, "--dot", "-", *flags, name], "", None))
        for cap in (None, *caps):
            calls += [(["predict", *flags, name], stream, cap) for stream in streams]
    texts = {name: text for name, text, _, _, _ in inputs}
    return {"models": texts, "records": replay(texts, calls)}


def parse_records() -> dict:
    calls = [([command, name], "", None) for name in PARSE_FILES for command in ("validate", "distances")]
    return {"models": PARSE_FILES, "records": replay(PARSE_FILES, calls)}


def analysis_records() -> dict:
    texts = {name: serialize_model(model) for name, (model, _) in models().items()}
    calls = []
    for name in texts:
        calls += [([command, name], "", None) for command in ("distances", "predictability")]
        calls.append((["twin", "--witnesses", name], "", None))
        for i in range(3):
            for j in (str(i), str(i + 3), "inf"):
                calls.append((["query", "--witness", "-i", str(i), "-j", j, name], "", None))
    return {"models": texts, "records": replay(texts, calls)}


# Input file -> (workload, seed-1 (i, j) queries).  On doomed-800 the rows'
# top ends rise strictly, so no refusal there is blocked in a lower row.
BENCH_QUERIES = {
    "doomed800.des": ("doomed-800", [(0, 131), (0, 132), (7, 100), (12, 219), (20, 239), (20, 240), (5, "inf"), (21, "inf")]),
    "monitor200.des": ("monitor-200", [(i, j) for i in range(4) for j in (i, "inf")]),
}


def bench_records() -> dict:
    texts = {name: GENERATORS[workload](1).text() for name, (workload, _) in BENCH_QUERIES.items()}
    calls = []
    for name, (_, queries) in BENCH_QUERIES.items():
        calls.append((["predictability", name], "", None))
        calls += [(["query", "--witness", "-i", str(i), "-j", str(j), name], "", None) for i, j in queries]
    return {"models": texts, "records": replay(texts, calls)}


if __name__ == "__main__":
    makers = (("belief", belief_records), ("parse", parse_records), ("analysis", analysis_records), ("bench", bench_records))
    for name, make in makers:
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(make(), indent=1) + "\n")
        print(f"wrote {path}")
