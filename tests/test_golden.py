"""Recorded CLI answers, replayed through cli.main.

Each file under tests/golden/ holds model texts and, per call, its argv,
stdin, exit code, stdout and stderr: belief.json the belief side
(`predict`, `compile`, with the engine node cap of the calls made under
one), parse.json the file format's refusals and accepted oddities
(`validate`, `distances`), and analysis.json the analysis commands
(`distances`, `twin --witnesses`, `twin --dot`, `predictability` and
`query --witness`, the last two also as JSON), and bench.json
`predictability`, `query --witness` and a refused `compile` on the
seed-1 inputs of the benchmark's workloads.  tests/golden/regenerate.py
rewrites them.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import faultcast.belief
from faultcast.belief import _BeliefEngine
from faultcast.cli import main


def _load(name: str) -> dict:
    return json.loads((Path(__file__).parent / "golden" / name).read_text(encoding="utf-8"))


def _replay(golden: dict, capsys, monkeypatch, tmp_path) -> None:
    """Write the golden models into tmp_path, byte for byte, and require
    every record's answer of cli.main there."""
    monkeypatch.chdir(tmp_path)
    for name, text in golden["models"].items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    default = faultcast.belief.DEFAULT_NODE_CAP
    for record in golden["records"]:
        monkeypatch.setattr(faultcast.belief, "DEFAULT_NODE_CAP", record.get("node_cap", default))
        monkeypatch.setattr(sys, "stdin", io.StringIO(record["stdin"]))
        code = main(record["argv"])
        out, err = capsys.readouterr()
        got = {"exit": code, "stdout": out, "stderr": err}
        want = {key: record[key] for key in got}
        assert got == want, record["argv"]


def test_recorded_predict_and_compile_answers_are_unchanged(capsys, monkeypatch, tmp_path):
    golden = _load("belief.json")
    records = golden["records"]
    errors = "".join(r["stderr"] for r in records)
    assert "unknown event name" in errors and "no run explains" in errors
    assert any("--no-validate" in r["argv"] for r in records)
    # A new node found while the engine's index is full flushes it.
    flushes = []
    node = _BeliefEngine.node
    def counted(engine, mask):
        size = len(engine.index)
        found = node(engine, mask)
        flushes.append(len(engine.index) < size)
        return found
    monkeypatch.setattr(_BeliefEngine, "node", counted)
    _replay(golden, capsys, monkeypatch, tmp_path)
    assert sum(flushes) > 20


def test_recorded_parse_answers_are_unchanged(capsys, monkeypatch, tmp_path):
    golden = _load("parse.json")
    errors = "".join(r["stderr"] for r in golden["records"])
    # Every refusal of the file format is on record.
    for reason in (
        "empty file", "no directive", "first directive", "unknown directive", "obs needs", "hidden needs",
        "already declared", "init takes", "init already given", "missing init",
        "fault needs", "trans takes", "undeclared event",
    ):
        assert reason in errors, reason
    assert sum(r["exit"] == 0 for r in golden["records"]) >= 16
    _replay(golden, capsys, monkeypatch, tmp_path)


def test_recorded_analysis_answers_are_unchanged(capsys, monkeypatch, tmp_path):
    golden = _load("analysis.json")
    records = golden["records"]
    assert {r["exit"] for r in records} == {0, 1}
    # JSON verdicts with a blocking object, and DOT pair graphs with quoted labels.
    assert any("--format" in r["argv"] and '"blocking"' in r["stdout"] for r in records)
    assert any("--dot" in r["argv"] and '\\"' in r["stdout"] for r in records)
    _replay(golden, capsys, monkeypatch, tmp_path)


def test_recorded_bench_scale_answers_are_unchanged(capsys, monkeypatch, tmp_path):
    golden = _load("bench.json")
    queries = [r for r in golden["records"] if r["argv"][0] == "query"]
    out = "".join(r["stdout"] for r in queries)
    assert {r["exit"] for r in queries} == {0, 1}
    # A refusal in row i, one by a lower row's hull, and one past dmin(initial).
    assert "blocking hull: 7 101" in out and "blocking hull: 0 inf" in out
    assert "exceeds the initial fault distance 20" in out
    assert any("cap exceeded" in r["stderr"] for r in golden["records"])
    _replay(golden, capsys, monkeypatch, tmp_path)
