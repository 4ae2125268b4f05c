"""Recorded CLI answers, replayed through cli.main.

Each file under tests/golden/ holds model texts and, per call, its argv,
stdin, exit code, stdout and stderr: belief.json the belief side
(`predict`, `compile`, with the engine node cap of the calls made under
one), parse.json the file format's refusals and accepted oddities
(`validate`, `distances`), and analysis.json the analysis commands
(`distances`, `twin --witnesses`, `twin --dot`, `predictability` and
`query --witness`, the last two also as JSON), and bench.json
`predictability`, `query --witness`, `distances`, a refused `compile` and
`predict` on a 4,000-name stream on the seed-1 inputs of the benchmark's
workloads.  tests/golden/regenerate.py rewrites them.

Two bench-scale answers are too big to record, so their sha256 digests
are pinned here instead: a 1,426-query grid on the doomed-800 input
(every verdict and blocking hull of the per-row lookup) and the 12.6 MB
`compile --json -` on the monitor-200 input (every belief's members,
interval and witnesses, and every edge).  Both are computed from the
model texts in bench.json.
"""

from __future__ import annotations

import io
import json
import sys
from hashlib import sha256
from pathlib import Path

import faultcast.belief
from faultcast import INF, analyze, format_extnat, is_ij_predictable, parse_model
from faultcast.belief import _BeliefEngine
from faultcast.cli import main

GRID_SHA256 = "5c3f071831c8ba746de61311285a16c5ac49c7f97777cb83bba55d3b5cb47397"
COMPILE_JSON_SHA256 = "c6602cd38bea7d38e249d0e1d4671760cb20f011619252f4a3f9e0ec6c7d0773"


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
    # Both inputs' distance rows and monitor-200's stream 0 are on record.
    rows = sorted(len(r["stdout"].splitlines()) for r in golden["records"] if r["argv"][0] == "distances")
    assert rows == [201, 801]
    predicted = [len(r["stdout"].splitlines()) for r in golden["records"] if r["argv"][0] == "predict"]
    assert predicted == [4000]
    _replay(golden, capsys, monkeypatch, tmp_path)


def _query_grid(text: str) -> str:
    """One analyze of the model, then every (i, j) with i in 0..22 and j in
    i..i+60 plus inf, one line per query: i, j, the verdict, and the
    blocking hull's bounds and pair."""
    model = parse_model(text)
    frontier = analyze(model).frontier
    lines = []
    for i in range(23):
        for j in [*range(i, i + 61), INF]:
            verdict = is_ij_predictable(frontier, i, j)
            line = f"{i} {format_extnat(j)} {str(verdict.predictable).lower()}"
            if verdict.blocking is not None:
                hull, (a, b) = verdict.blocking.interval, verdict.blocking.pair
                line += f" {hull.lo} {format_extnat(hull.hi)} {model.states[a]} {model.states[b]}"
            lines.append(line + "\n")
    return "".join(lines)


def test_bench_scale_grid_and_compile_digests_are_unchanged(capsys, monkeypatch, tmp_path):
    models = _load("bench.json")["models"]
    grid = _query_grid(models["doomed800.des"])
    assert sha256(grid.encode()).hexdigest() == GRID_SHA256
    monkeypatch.chdir(tmp_path)
    (tmp_path / "monitor200.des").write_text(models["monitor200.des"], encoding="utf-8", newline="")
    code = main(["compile", "monitor200.des", "--json", "-"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out.endswith("nodes 6290\nedges 31450\n")
    assert sha256(out.encode()).hexdigest() == COMPILE_JSON_SHA256
