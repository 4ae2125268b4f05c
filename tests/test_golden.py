"""Recorded CLI answers of the belief side, replayed through cli.main.

tests/golden/belief.json holds each call's argv, stdin, exit code, stdout
and stderr, and the engine node cap of the calls made under one;
tests/golden/regenerate.py rewrites it.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import faultcast.belief
from faultcast.belief import _BeliefEngine
from faultcast.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "belief.json").read_text())


def test_recorded_predict_and_compile_answers_are_unchanged(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN["models"].items():
        (tmp_path / name).write_text(text)
    records = GOLDEN["records"]
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
    default = faultcast.belief.DEFAULT_NODE_CAP
    for record in records:
        monkeypatch.setattr(faultcast.belief, "DEFAULT_NODE_CAP", record.get("node_cap", default))
        monkeypatch.setattr(sys, "stdin", io.StringIO(record["stdin"]))
        code = main(record["argv"])
        out, err = capsys.readouterr()
        got = {"exit": code, "stdout": out, "stderr": err}
        want = {key: record[key] for key in got}
        assert got == want, record["argv"]
    assert sum(flushes) > 20
