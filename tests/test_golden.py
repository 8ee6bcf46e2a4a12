"""Byte-for-byte replay of recorded CLI runs.

`golden/manifest.json` lists each command (run from the `golden`
directory, whose graph files it names) with its exit code; `<name>.out`
holds its stdout as recorded. Any change to values, certificates or the
JSON encoding shows up here as a diff.
"""

import json
from pathlib import Path

import pytest

from lamanmv import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_output_matches_recording(case, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert cli.run(case["argv"]) == case["exit"]
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
