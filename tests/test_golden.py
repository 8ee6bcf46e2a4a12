"""Byte-for-byte replay of recorded CLI runs and of the catalog's values.

`golden/manifest.json` lists each command (run from the `golden`
directory, whose graph files it names) with its exit code; `<name>.out`
holds its stdout as recorded. Any change to values, certificates or the
JSON encoding shows up here as a diff.

`golden/catalog_n7.json` records every Laman graph with n <= 7, in
catalog order, with its class, degree products and substituted mixed
volume. `PYTHONPATH=src python tests/test_golden.py` rewrites it from the
current code.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import framework_for

from lamanmv import cli
from lamanmv.graphs import all_laman_graphs, canonical_form, classify
from lamanmv.mixedvol import mv_for_graph
from lamanmv.polysys import FORM_SUBSOE, bezout, build_soe, build_subsoe
from lamanmv.reporting import mv_result_dict

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
CATALOG = GOLDEN / "catalog_n7.json"


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


def catalog_entries():
    """One entry per catalog graph with n <= 7; lengths 1, 2, 3, ... in edge order."""
    entries = []
    for n in range(3, 8):
        for g in all_laman_graphs(n):
            fw = framework_for(g, start=1)
            entries.append({
                "n": n,
                "edges": [list(e) for e in g.sorted_edges()],
                "canonical": [list(e) for e in canonical_form(g)],
                "class": classify(g),
                "bezout_soe": bezout(build_soe(fw)),
                "bezout_subsoe": bezout(build_subsoe(fw)),
                "mv_subsoe": mv_result_dict(mv_for_graph(fw, FORM_SUBSOE, seed=0))["value"],
            })
    return entries


def _catalog_json(entries):
    return "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"


def test_catalog_table_matches_recording():
    recorded = CATALOG.read_text(encoding="utf-8")
    assert _catalog_json(catalog_entries()) == recorded
    # The paper's bound: never above the degree product.
    assert all(e["mv_subsoe"] <= e["bezout_subsoe"] for e in json.loads(recorded))


if __name__ == "__main__":
    CATALOG.write_text(_catalog_json(catalog_entries()), encoding="utf-8")
