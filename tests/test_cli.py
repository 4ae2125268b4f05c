"""End-to-end command line behavior, run in process through main()."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import faultcast
from faultcast import drifting_plant, fan_system, parse_model, serialize_model
from faultcast.cli import main


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
    assert '"G,G" [label="G,G", style=filled, fillcolor=grey];' in dot
    # The silent drift into the second loop shows up dashed.
    assert 'style=dashed' in dot
    assert '"B,D" -> "E,F" [label="d"];' in dot


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


def test_compile_cap_below_one_exits_2(capsys, tmp_path):
    path = tmp_path / "loop.des"
    path.write_text("des v1\nobs a\ninit A\ntrans A a A\n")
    for cap in ("0", "-1"):
        code, out, err = run_cli(capsys, "compile", "--cap", cap, str(path))
        assert (code, out) == (2, "")
        assert err == f"faultcast: error: cap must be at least 1: {cap}\n"
    code, out, _ = run_cli(capsys, "compile", "--cap", "1", str(path))
    assert (code, out) == (0, "nodes 1\nedges 1\n")


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


@pytest.mark.parametrize("command", ["twin", "validate"])
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_is_not_an_error(capsys, tmp_path, command, unbuffered):
    # `faultcast twin fan40.des | head -1`: the reader goes away early.  With
    # buffered stdout the short `validate` output is written at the end.
    path = tmp_path / "fan40.des"
    code, _, _ = run_cli(capsys, "gen", "fig3a", "-n", "40", "-o", str(path))
    assert code == 0
    src = str(Path(faultcast.__file__).parent.parent)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "faultcast.cli", command, str(path)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 0


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
    assert "B\tinf\t1" in out
