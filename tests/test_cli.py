"""End-to-end command line behavior, run in process through main()."""

from __future__ import annotations

import ast
import io
import json
import os
import random
import re
import select
import subprocess
import sys
import types
from pathlib import Path

import pytest

import faultcast
from faultcast import drifting_plant, fan_system, format_extnat, parse_model, serialize_model
from faultcast.cli import main

from helpers import COMMA_MODEL, QUOTED_MODEL
from randmodels import OracleConfig, _draw_model


@pytest.fixture
def plant_file(tmp_path):
    path = tmp_path / "plant.des"
    path.write_text(serialize_model(drifting_plant()))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    # B is a dead end and the fault set leaks through B a C.
    path = tmp_path / "broken.des"
    path.write_text(
        "des v1\nobs a\ninit A\nfault B\n"
        "trans A a B\ntrans B a C\ntrans C a C\n"
    )
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -----------------------------------------------------------------


def test_validate_ok(capsys, plant_file):
    code, out, _ = run_cli(capsys, "validate", plant_file)
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_findings(capsys, broken_file):
    code, out, _ = run_cli(capsys, "validate", broken_file)
    assert code == 2
    assert "fault-closure" in out
    assert "B -a-> C" in out


def test_validate_close_faults(capsys, broken_file):
    code, out, _ = run_cli(capsys, "validate", "--close-faults", broken_file)
    assert code == 0
    assert out.strip() == "ok"


@pytest.mark.parametrize(
    "text, line",
    [
        (
            "des v1\nobs a\ninit A\ntrans A a B\n",
            "error liveness: state B has no outgoing transition",
        ),
        (
            "des v1\nobs a\ninit A\nfault B\ntrans A a B\ntrans B a A\n",
            "error fault-closure: transition B -a-> A leaves the fault set",
        ),
        (
            "des v1\nobs a\ninit A\nfault A\ntrans A a A\n",
            "error initial-faulty: initial state A is faulty",
        ),
        (
            "des v1\nobs a\nhidden t\ninit A\ntrans A t B\ntrans B t A\ntrans A a A\n",
            "error observation-liveness: cycle A -> B -> A uses only unobservable events",
        ),
    ],
    ids=["liveness", "fault-closure", "initial-faulty", "observation-liveness"],
)
def test_validate_finding_messages(capsys, tmp_path, text, line):
    path = tmp_path / "model.des"
    path.write_text(text)
    assert run_cli(capsys, "validate", str(path)) == (2, line + "\n", "")


def test_byte_order_mark_is_skipped(capsys, tmp_path, plant_file):
    path = tmp_path / "bom.des"
    path.write_bytes(b"\xef\xbb\xbf" + Path(plant_file).read_bytes())
    assert run_cli(capsys, "validate", str(path)) == (0, "ok\n", "")
    for fmt in ("tsv", "json"):
        plain = run_cli(capsys, "distances", "--format", fmt, plant_file)
        assert run_cli(capsys, "distances", "--format", fmt, str(path)) == plain


def test_syntax_error_exits_2_with_location(capsys, tmp_path):
    path = tmp_path / "bad.des"
    path.write_text("des v2\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "validate", "no-such-file.des")
    assert code == 2
    assert "error" in err


# -- distances ----------------------------------------------------------------


def test_distances_tsv(capsys, plant_file):
    code, out, _ = run_cli(capsys, "distances", plant_file)
    assert code == 0
    rows = dict()
    for line in out.strip().splitlines():
        name, dmin, dmax = line.split("\t")
        rows[name] = (dmin, dmax)
    assert rows == {
        "A": ("3", "inf"),
        "B": ("3", "inf"),
        "C": ("3", "inf"),
        "D": ("2", "inf"),
        "E": ("2", "2"),
        "F": ("1", "1"),
        "G": ("0", "0"),
    }


def test_distances_oracle_match(capsys, plant_file):
    code, out, _ = run_cli(capsys, "distances", "--oracle", plant_file)
    assert code == 0
    assert "# oracle" in out
    assert out.strip().endswith("MATCH")


def test_distances_json(capsys, plant_file):
    code, out, _ = run_cli(capsys, "distances", "--format", "json", plant_file)
    assert code == 0
    payload = json.loads(out)
    by_name = {row["name"]: row for row in payload["states"]}
    assert by_name["E"] == {"name": "E", "dmin": 2, "dmax": 2}
    assert by_name["A"] == {"name": "A", "dmin": 3, "dmax": "inf"}


def test_distances_oracle_json(capsys, plant_file):
    code, out, _ = run_cli(capsys, "distances", "--oracle", "--format", "json", plant_file)
    assert code == 0
    rows = [
        {"name": name, "dmin": dmin, "dmax": dmax}
        for name, dmin, dmax in [
            ("A", 3, "inf"), ("G", 0, 0), ("B", 3, "inf"), ("C", 3, "inf"),
            ("D", 2, "inf"), ("E", 2, 2), ("F", 1, 1),
        ]
    ]
    assert out == json.dumps({"states": rows, "oracle": rows, "match": True}, indent=2) + "\n"


# -- twin ---------------------------------------------------------------------


def test_twin_tsv_with_witnesses(capsys, plant_file):
    code, out, _ = run_cli(capsys, "twin", "--witnesses", plant_file)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# pairs\t10"
    assert lines[1] == "# relation\t13"
    body = {}
    for line in lines[2:]:
        a, b, witness = line.split("\t")
        body[(a, b)] = witness
    assert len(body) == 10
    assert body[("B", "D")] == "a"
    assert body[("G", "G")] == "a d a"
    assert body[("A", "C")] == ""


def test_twin_json(capsys, plant_file):
    code, out, _ = run_cli(capsys, "twin", "--format", "json", plant_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["pair_count"] == 10
    assert payload["relation_size"] == 13
    assert set(payload) == {"pair_count", "relation_size", "pairs"}
    states = {tuple(entry["states"]) for entry in payload["pairs"]}
    assert ("B", "D") in states
    assert all(entry["witness"] is None for entry in payload["pairs"])


def test_twin_dot_export(capsys, tmp_path, plant_file):
    dot_path = tmp_path / "twin.dot"
    code, _, _ = run_cli(capsys, "twin", "--dot", str(dot_path), plant_file)
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph twin {")
    assert '[label="G,G", style=filled, fillcolor=grey];' in dot
    # The silent drift into the second loop shows up dashed.
    assert 'style=dashed' in dot
    nodes, edges = _twin_dot_graph(dot)
    assert (nodes.index("B,D"), nodes.index("E,F"), "d") in edges


def _twin_dot_graph(dot):
    """A twin DOT file's node labels, in id order, and its edges as
    (source, target, label) with node positions; fails unless pair k has
    the id pk and every edge joins two written nodes."""
    found = re.findall(r'^  (\w+) \[label="([^"]*)"', dot, re.M)
    assert [node for node, _ in found] == [f"p{k}" for k in range(len(found))]
    edges = [
        (int(src[1:]), int(dst[1:]), label)
        for src, dst, label in re.findall(r'^  (\w+) -> (\w+) \[label="([^"]*)"', dot, re.M)
    ]
    assert all(max(src, dst) < len(found) for src, dst, _ in edges)
    return [label for _, label in found], edges


def test_twin_dot_ids_stay_apart_when_names_hold_commas(capsys, tmp_path):
    # The pairs (a,b, c) and (a, b,c) share the label "a,b,c", not the id.
    path = tmp_path / "commas.des"
    path.write_text(COMMA_MODEL)
    dot_path = tmp_path / "twin.dot"
    code, out, _ = run_cli(capsys, "twin", "--dot", str(dot_path), str(path))
    assert code == 0
    assert out.startswith("# pairs\t11\n")
    nodes, edges = _twin_dot_graph(dot_path.read_text())
    assert len(nodes) == 11
    assert nodes.count("a,b,c") == 2
    assert len(set(edges)) == len(edges) > 0


# -- predictability -----------------------------------------------------------


def test_predictability_text(capsys, plant_file):
    code, out, _ = run_cli(capsys, "predictability", plant_file)
    assert code == 0
    assert out.splitlines() == [
        "dmin_init 3",
        "vacuous false",
        "0 -> 0",
        "1 -> 2",
        "2 -> inf",
        "3 -> inf",
    ]


def test_predictability_json(capsys, plant_file):
    code, out, _ = run_cli(
        capsys, "predictability", "--format", "json", plant_file
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dmin_init"] == 3
    assert payload["vacuous"] is False
    assert payload["rows"] == [
        {"i": 0, "p": 0},
        {"i": 1, "p": 2},
        {"i": 2, "p": "inf"},
        {"i": 3, "p": "inf"},
    ]


# -- query --------------------------------------------------------------------


def test_query_yes(capsys, plant_file):
    code, out, _ = run_cli(capsys, "query", plant_file, "-i", "1", "-j", "2")
    assert code == 0
    assert out.strip() == "predictable"



def test_query_no_without_witness(capsys, plant_file):
    # Without --witness the text answer is the bare verdict.
    code, out, _ = run_cli(capsys, "query", plant_file, "-i", "2", "-j", "2")
    assert code == 1
    assert out == "not predictable\n"
    code, out, _ = run_cli(
        capsys, "query", plant_file, "-i", "2", "-j", "2", "--oracle"
    )
    assert code == 1
    assert out.splitlines() == ["not predictable", "oracle not predictable", "MATCH"]

def test_query_no_with_witness(capsys, plant_file):
    code, out, _ = run_cli(
        capsys, "query", plant_file, "-i", "2", "-j", "2", "--witness"
    )
    assert code == 1
    assert out.splitlines() == [
        "not predictable",
        "blocking pair: B D",
        "blocking hull: 2 inf",
        "witness: a",
    ]


def test_query_gate_reason(capsys, plant_file):
    code, out, _ = run_cli(
        capsys, "query", plant_file, "-i", "9", "-j", "9", "--witness"
    )
    assert code == 1
    assert "exceeds the initial fault distance 3" in out


def test_query_infinite_bound(capsys, plant_file):
    code, out, _ = run_cli(capsys, "query", plant_file, "-i", "2", "-j", "inf")
    assert code == 0
    code, out, _ = run_cli(capsys, "query", plant_file, "-i", "3", "-j", "inf")
    assert code == 1


def test_query_oracle_cross_check(capsys, plant_file):
    code, out, _ = run_cli(
        capsys, "query", plant_file, "-i", "2", "-j", "2", "--oracle"
    )
    assert code == 1
    assert "oracle not predictable" in out
    assert "MATCH" in out


def test_oracle_mismatch_exits_2(capsys, monkeypatch, plant_file):
    # An oracle that disagrees: the answer is still printed, then MISMATCH.
    monkeypatch.setattr("faultcast.oracle.oracle_is_ij_predictable", lambda model, i, j: True)
    monkeypatch.setattr("faultcast.oracle.oracle_dmin", lambda model: (0,) * len(model.states))
    code, out, _ = run_cli(capsys, "query", plant_file, "-i", "2", "-j", "2", "--oracle")
    assert code == 2
    assert out.splitlines() == ["not predictable", "oracle predictable", "MISMATCH"]
    code, out, _ = run_cli(capsys, "distances", plant_file, "--oracle")
    assert code == 2
    assert "# oracle" in out
    assert out.splitlines()[-1] == "MISMATCH"


def test_query_json(capsys, plant_file):
    code, out, _ = run_cli(
        capsys, "query", plant_file, "-i", "2", "-j", "2",
        "--format", "json", "--oracle",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["predictable"] is False
    assert payload["blocking"] == {
        "pair": ["B", "D"],
        "hull": [2, "inf"],
        "witness": ["a"],
    }
    assert payload["oracle"] is False
    assert payload["match"] is True


def test_query_bad_interval_exits_2(capsys, plant_file):
    code, _, err = run_cli(capsys, "query", plant_file, "-i", "3", "-j", "1")
    assert code == 2
    assert "error" in err


def test_query_negative_lead_exits_3(capsys, plant_file):
    # A lead time is a natural number, so -1 is a usage error, as -j -1 is.
    code, _, err = run_cli(capsys, "query", plant_file, "-i", "-1", "-j", "2")
    assert code == 3
    assert "expected a natural number, got '-1'" in err


def test_query_usage_errors_exit_3(capsys, plant_file):
    code, _, _ = run_cli(capsys, "query", plant_file, "-i", "1")
    assert code == 3
    code, _, _ = run_cli(capsys, "query", plant_file, "-i", "1", "-j", "soon")
    assert code == 3
    code, _, err = run_cli(capsys, "query", plant_file, "-i", "1", "-j", "+2")
    assert code == 3
    assert "expected a natural number or inf, got '+2'" in err


@pytest.mark.parametrize("text", ["+1", " 1", "1 ", "\u0661", "1_0", "inf"])
def test_lead_and_family_size_take_ascii_digits_only(capsys, plant_file, text):
    # int() would read each of these as a number (or inf as nothing at all).
    code, out, err = run_cli(capsys, "query", plant_file, "-i", text, "-j", "2")
    assert (code, out) == (3, "")
    assert f"argument -i: expected a natural number, got {text!r}" in err
    code, out, err = run_cli(capsys, "gen", "fig3a", "-n", text)
    assert (code, out) == (3, "")
    assert f"argument -n: expected a natural number, got {text!r}" in err


# -- predict ------------------------------------------------------------------


def _feed_stdin(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_predict_stream(capsys, monkeypatch, plant_file):
    _feed_stdin(monkeypatch, "a\nd\n\nc\na\n")
    code, out, _ = run_cli(capsys, "predict", plant_file)
    assert code == 0
    assert out.splitlines() == ["2 inf", "1 2", "1 1", "0 0"]


def test_predict_impossible_observation(capsys, monkeypatch, plant_file):
    _feed_stdin(monkeypatch, "a\na\n")
    code, out, err = run_cli(capsys, "predict", plant_file)
    assert code == 1
    # The first observation still produced a prediction.
    assert out.splitlines() == ["2 inf"]
    assert "impossible observation" in err


def test_predict_unknown_event_name(capsys, monkeypatch, plant_file):
    _feed_stdin(monkeypatch, "zap\n")
    code, _, err = run_cli(capsys, "predict", plant_file)
    assert code == 1
    assert "zap" in err


# -- compile ------------------------------------------------------------------


def test_compile_counts(capsys, plant_file):
    code, out, _ = run_cli(capsys, "compile", plant_file)
    assert code == 0
    assert out.splitlines() == ["nodes 7", "edges 11"]


def test_compile_cap_exits_2(capsys, plant_file):
    code, _, err = run_cli(capsys, "compile", "--cap", "3", plant_file)
    assert code == 2
    assert "cap" in err


def _loop_file(tmp_path):
    path = tmp_path / "loop.des"
    path.write_text("des v1\nobs a\ninit A\ntrans A a A\n")
    return str(path)


def test_compile_cap_below_one_exits_2(capsys, tmp_path):
    path = _loop_file(tmp_path)
    code, out, err = run_cli(capsys, "compile", "--cap", "0", path)
    assert (code, out) == (2, "")
    assert err == "faultcast: error: cap must be at least 1: 0\n"
    code, out, _ = run_cli(capsys, "compile", "--cap", "1", path)
    assert (code, out) == (0, "nodes 1\nedges 1\n")


@pytest.mark.parametrize("text", ["-1", "1_0", "+7", " 7"])
def test_compile_cap_takes_ascii_digits_only(capsys, tmp_path, text):
    # A cap is a natural number; int() would read each of these as one.
    code, out, err = run_cli(capsys, "compile", "--cap", text, _loop_file(tmp_path))
    assert (code, out) == (3, "")
    assert f"argument --cap: expected a natural number, got {text!r}" in err


def test_compile_json_export(capsys, tmp_path, plant_file):
    out_path = tmp_path / "predictor.json"
    code, out, _ = run_cli(
        capsys, "compile", "--json", str(out_path), plant_file
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["initial"] == 0
    first = payload["nodes"][0]
    assert first["members"] == ["A", "C"]
    assert first["interval"] == [3, "inf"]
    assert len(payload["nodes"]) == 7
    assert len(payload["edges"]) == 11
    assert {"src": 0, "event": "a", "dst": 1} in payload["edges"]


def test_compile_dot_export(capsys, tmp_path, plant_file):
    dot_path = tmp_path / "predictor.dot"
    code, _, _ = run_cli(capsys, "compile", "--dot", str(dot_path), plant_file)
    assert code == 0
    dot = dot_path.read_text()
    assert dot.startswith("digraph predictor {")
    assert "n0" in dot
    assert "fillcolor=grey" in dot


_DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _dot_labels(dot):
    """The quoted strings of each line, unescaped; fails on a stray quote
    or backslash outside them."""
    strings = []
    for line in dot.splitlines():
        rest = _DOT_STRING.sub("", line)
        assert '"' not in rest and "\\" not in rest, line
        for body in _DOT_STRING.findall(line):
            assert re.fullmatch(r'(?:[^"\\]|\\["\\n])*', body), line
            strings.append(re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], body))
    return strings


def test_dot_exports_quote_every_label(capsys, tmp_path):
    # The grammar allows any non-space token without "#" as a state name.
    path = tmp_path / "quoted.des"
    path.write_text(QUOTED_MODEL)
    model = parse_model(path.read_text())
    dot_path = tmp_path / "out.dot"

    code, _, _ = run_cli(capsys, "compile", "--dot", str(dot_path), str(path))
    assert code == 0
    want = {
        "{" + ",".join(sorted(model.states[q] for q in node.members)) + "}\n"
        f"[{format_extnat(node.interval.lo)},{format_extnat(node.interval.hi)}]"
        for node in faultcast.compile_predictor(model).nodes
    }
    labels = _dot_labels(dot_path.read_text())
    assert want <= set(labels)
    assert '{"B,a\\b}\n[1,inf]' in labels
    assert set(labels) - want <= {"a", "b"}

    code, _, _ = run_cli(capsys, "twin", "--dot", str(dot_path), str(path))
    assert code == 0
    want = {f"{model.states[x]},{model.states[y]}" for x, y in faultcast.build_twin(model).pairs}
    labels = _dot_labels(dot_path.read_text())
    assert want <= set(labels)
    assert 'x"y\\,x"y\\' in labels
    assert set(labels) - want <= {"a", "b", "h"}


# -- gen ----------------------------------------------------------------------


def test_gen_round_trips(capsys, tmp_path):
    out_path = tmp_path / "fan.des"
    code, _, _ = run_cli(capsys, "gen", "fig3a", "-n", "3", "-o", str(out_path))
    assert code == 0
    assert parse_model(out_path.read_text()) == fan_system(3)


def test_gen_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "fig3a", "-n", "1")
    assert code == 0
    assert out.startswith("des v1\n")
    assert parse_model(out) == fan_system(1)


def test_readme_quick_start_matches_the_cli(capsys, tmp_path):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = block.splitlines()
    assert shown[:2] == [
        "$ faultcast gen fig3a -n 2 -o fan.des",
        "$ faultcast twin fan.des | head -3",
    ]
    path = tmp_path / "fan.des"
    code, _, _ = run_cli(capsys, "gen", "fig3a", "-n", "2", "-o", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "twin", str(path))
    assert code == 0
    assert out.splitlines()[:3] == shown[2:]


def test_readme_library_tour_shows_real_values():
    # Runs the tour statement by statement; a trailing comment is the repr
    # of the value its expression statement gives.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = 0
    for statement in ast.parse(block).body:
        comment = lines[statement.end_lineno - 1][statement.end_col_offset:].strip()
        if not comment:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(statement, ast.Expr), comment
        value = eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace)
        assert comment == f"# {value!r}"
        shown += 1
    assert shown == 8


def test_package_exports_exactly_its_public_names():
    # Submodules such as faultcast.cli bind themselves on import, so modules
    # are left out; __version__ is not public.
    bound = {
        name
        for name, value in vars(faultcast).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(faultcast.__all__) == sorted(bound)


def test_imports_load_only_the_modules_they_need():
    # One child, with only src on the path (no site-packages, no tests/, no
    # bytecode), imports the library, the CLI and the oracle in turn and
    # lists sys.modules after each.  The library loads neither the CLI nor
    # the oracle; the CLI loads no oracle (only --oracle needs it), neither
    # dataclasses nor inspect (the records are tuples) and no json (only JSON
    # output needs it); and nothing loads a module outside the standard library.
    src = str(Path(faultcast.__file__).parent.parent)
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); seen = []\n"
        "for name in ('faultcast', 'faultcast.cli', 'faultcast.oracle'):\n"
        "    __import__(name); seen.append(sorted(sys.modules))\n"
        "print(seen)"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-S", "-c", probe, src],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    library, cli, oracle = map(set, ast.literal_eval(result.stdout))
    assert "faultcast" in library
    assert {"faultcast.oracle", "faultcast.cli"} & library == set()
    assert "faultcast.cli" in cli
    assert {"faultcast.oracle", "dataclasses", "inspect", "json"} & cli == set()
    assert "faultcast.oracle" in oracle
    tops = {name.partition(".")[0] for name in oracle}
    assert tops - set(sys.stdlib_module_names) - {"__main__", "faultcast"} == set()


def _cli_env(unbuffered=""):
    """The environment of a CLI child process that imports this faultcast."""
    src = str(Path(faultcast.__file__).parent.parent)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("command", ["twin", "validate", "predict"])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_is_not_an_error(capsys, tmp_path, command, unbuffered):
    # `faultcast twin fan40.des | head -1`: the reader goes away early.  With
    # buffered stdout the short `validate` output is written at the end;
    # `predict` reads a stream on stdin and flushes every line.
    path = tmp_path / "fan40.des"
    code, _, _ = run_cli(capsys, "gen", "fig3a", "-n", "40", "-o", str(path))
    assert code == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "faultcast.cli", command, str(path)],
            input=b"a\n" * 1000 if command == "predict" else None,
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_cli_env(unbuffered),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 0


def test_predict_answers_each_line_over_a_pipe(plant_file):
    # A monitor writes one event and waits for its interval before writing
    # the next, so every answer line must leave as soon as it is made.
    with subprocess.Popen(
        [sys.executable, "-m", "faultcast.cli", "predict", plant_file],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        bufsize=0,
        env=_cli_env(),
    ) as child:
        for name, answer in [("a", b"2 inf\n"), ("d", b"1 2\n"), ("c", b"1 1\n"), ("a", b"0 0\n")]:
            child.stdin.write(name.encode() + b"\n")
            ready, _, _ = select.select([child.stdout], [], [], 60)
            assert ready, f"no answer to {name} within 60 s"
            assert child.stdout.readline() == answer
        child.stdin.close()
        assert child.wait(timeout=60) == 0
        assert child.stderr.read() == b""


def test_gen_bad_size_exits_2(capsys):
    code, _, _ = run_cli(capsys, "gen", "fig3a", "-n", "0")
    assert code == 2


def test_gen_unknown_family_exits_3(capsys):
    code, _, _ = run_cli(capsys, "gen", "nosuch", "-n", "3")
    assert code == 3


# -- global usage -------------------------------------------------------------


def test_unknown_subcommand_exits_3(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 3


def test_no_arguments_exits_3(capsys):
    code, _, _ = run_cli(capsys)
    assert code == 3


def test_no_validate_lets_broken_models_through(capsys, tmp_path):
    path = tmp_path / "dead-end.des"
    path.write_text("des v1\nobs a\ninit A\ntrans A a B\n")
    code, _, _ = run_cli(capsys, "distances", str(path))
    assert code == 2
    code, out, _ = run_cli(capsys, "distances", "--no-validate", str(path))
    assert code == 0
    # B, a non-faulty dead end, avoids the fault: its runs end without it.
    assert "B\tinf\tinf" in out


def test_mutated_models_get_well_formed_answers(capsys, monkeypatch, tmp_path):
    # Random models with about a quarter of their transitions dropped, so
    # with dead ends, leaking fault sets and silent cycles.  Validated or
    # not, every subcommand answers with a documented exit code, and every
    # stderr line is the CLI's own.  Each query is a valid interval, so no
    # hull may be refused as one.
    rng = random.Random(7)
    path = str(tmp_path / "mutated.des")
    commands = [
        ["distances"], ["twin", "--witnesses"], ["predictability"],
        ["query", "--witness", "-i", "1", "-j", "2"], ["query", "-i", "0", "-j", "inf"],
        ["compile"], ["predict"],
    ]
    flags = [[], ["--no-validate"], ["--close-faults", "--no-validate"]]
    codes = set()
    for _ in range(50):
        model = _draw_model(rng, OracleConfig(max_states=7))
        lines = serialize_model(model).splitlines()
        kept = [line for line in lines if not line.startswith("trans") or rng.random() >= 0.25]
        Path(path).write_text("\n".join(kept) + "\n")
        names = [e.name for e in model.events if e.observable]
        stream = "".join(f"{rng.choice(names)}\n" for _ in range(6))
        calls = [["validate", path], ["validate", "--close-faults", path]]
        calls += [[*command, *flag, path] for command in commands for flag in flags]
        for argv in calls:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stream))
            code, _, err = run_cli(capsys, *argv)
            codes.add(code)
            assert code in (0, 1, 2), argv
            assert all(line.startswith("faultcast: ") for line in err.splitlines()), (argv, err)
            assert "exceeds upper bound" not in err, (argv, err)
    assert codes == {0, 1, 2}
