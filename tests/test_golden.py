"""Recorded CLI answers of the belief side, replayed through cli.main.

tests/golden/belief.json holds each call's argv, stdin, exit code, stdout
and stderr; tests/golden/regenerate.py rewrites it.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

from faultcast.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "belief.json").read_text())


def test_recorded_predict_and_compile_answers_are_unchanged(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for name, text in GOLDEN["models"].items():
        (tmp_path / name).write_text(text)
    records = GOLDEN["records"]
    errors = "".join(r["stderr"] for r in records)
    assert "unknown event name" in errors and "no run explains" in errors
    for record in records:
        monkeypatch.setattr(sys, "stdin", io.StringIO(record["stdin"]))
        code = main(record["argv"])
        out, err = capsys.readouterr()
        got = {"exit": code, "stdout": out, "stderr": err}
        want = {key: record[key] for key in got}
        assert got == want, record["argv"]
