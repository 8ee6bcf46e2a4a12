"""Byte-for-byte replay of recorded CLI runs.

`golden/manifest.json` lists each command (run from the `golden`
directory, whose graph files it names) with its exit code; `<name>.out`
holds its stdout as recorded. Any change to values, certificates or the
JSON encoding shows up here as a diff.
"""

import json
import subprocess
import sys
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


# Runs in a fresh interpreter where numpy and scipy cannot be imported.
_REPLAY_WITHOUT_NUMPY = """
import contextlib, io, json, os, sys
sys.modules["numpy"] = sys.modules["scipy"] = None
src, golden = sys.argv[1:]
sys.path.insert(0, src)
from lamanmv import cli
os.chdir(golden)
for case in json.load(open("manifest.json", encoding="utf-8")):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(case["argv"])
    expected = open(case["name"] + ".out", encoding="utf-8").read()
    assert (code, out.getvalue()) == (case["exit"], expected), case["name"]
"""


def test_cli_replays_without_numpy_or_scipy():
    # The package imports only the standard library.
    src = str(Path(cli.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c", _REPLAY_WITHOUT_NUMPY, src, str(GOLDEN)], check=True
    )
