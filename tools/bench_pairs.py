"""Alternating parent/change pairs of perfbench/run.py, summarized as BENCH_<label>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --label search \
        --workload subsoe-swap --seeds 41 42 43 --seconds 25 \
        --change-note "what the change does" --deep 8 9 --tier1

`--parent` and `--change` are two source checkouts, for example a copy of
the parent commit made with `git archive` or `git worktree add`. For each
workload and seed the two sides run `perfbench/run.py --seconds S
--trace 0` one after the other, each from its own checkout; which side
runs first alternates from pair to pair. The JSON object that run.py
prints last gives the gated metrics, `correct` and `failed`. The output
keeps the layout of BENCH_hull.json: per workload and metric the median
and quartiles of each side, the median change in percent and the number
of pairs where the change read lower.

`--deep N...` also times `mv --form subsoe` on the minimum-degree-3 graph
`random_henneberg_sequence(N, seed=4, step2_probability=0.9)` with its
default lengths, `DEEP_RUNS` times per side and size, the side that runs
first alternating from run to run. Each run records the search's node
count (`_Enumerator._descend` calls) and its pruning LPs
(`linprog.feasible` calls); each side records every run and the median
time. Times are process CPU seconds on this machine, not scaled to a
reference speed.

Each side also records the line count of each `src/lamanmv/*.py` and
the peak RSS of a fresh `PYTHONDONTWRITEBYTECODE=1` interpreter that
only imports `lamanmv.cli` (median of five, sides alternating). Without
bytecode files that peak is set by compiling the largest module, so it
tells a `peak_rss_mb` move that comes from a longer module apart from
the program's own memory. `--tier1` runs the Tier-1 suite once per side
and records its wall time, its summary line and its ten slowest tests.

    python3 tools/bench_pairs.py --in-process --parent ../parent --change . \
        --label kernel-pairs --workload oracle-lattice --seeds 1 --passes 10

`--in-process` instead imports both checkouts' `lamanmv` into this one
interpreter, as the packages `lamanmv_parent` and `lamanmv_change`, so
both sides run at the same core speed. Per workload and seed it writes
the inputs once (`perfbench/workloads.py` of this checkout, with the
parent's package), loads them into each side, runs one untimed warm-up
pass per side and then `--passes` timed whole passes per side, the side
that runs first alternating from pass to pass. Every result of every
pass is checked; each side's CPU seconds per pass and the ratio
change/parent of each pair of passes are recorded, with the source
counts and, on request, `--deep` and `--tier1` as above. The exit status
is 1 when any result is wrong or any call raised.
"""

import argparse
import gc
import importlib
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Runs per side of each deep graph: one run shows no spread.
DEEP_RUNS = 3

DEEP = """
import json, sys, time
sys.path.insert(0, "src")
N = int(sys.argv[1])
from lamanmv import graphs, linprog, mixedvol, reporting
counts = {"nodes": 0, "lps": 0}
descend, feasible = mixedvol._Enumerator._descend, linprog.feasible
def counted(self, *args):
    counts["nodes"] += 1
    return descend(self, *args)
def lp(*args):
    counts["lps"] += 1
    return feasible(*args)
mixedvol._Enumerator._descend, linprog.feasible = counted, lp
g = graphs.henneberg_apply(graphs.random_henneberg_sequence(N, seed=4, step2_probability=0.9))
text = "n %d\\n" % g.n + "".join("e %d %d\\n" % e for e in g.sorted_edges())
start = time.process_time()
res = mixedvol.mv_for_graph(reporting.parse_graph_file(text), "subsoe", seed=0)
print(json.dumps({"cpu_s": round(time.process_time() - start, 2), "value": int(res.value),
                  "cells": len(res.cells), **counts}))
"""


IMPORT_PEAK = """
import json, resource, sys
sys.path.insert(0, "src")
import lamanmv.cli
print(json.dumps({"mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=10"]


def run_json(cmd, cwd):
    """Run cmd in cwd and return the JSON object on the last line of its output."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def bench_pairs(dirs, workloads, seeds, seconds):
    """runs, end_to_end: the two BENCH_*.json sections, from one pair per workload and seed."""
    runs, end_to_end = {}, {}
    for workload in workloads:
        got = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                got[side].append(run_json(cmd, dirs[side]))
                print(workload, seed, side, got[side][-1]["metrics"], file=sys.stderr, flush=True)
        runs[workload] = {
            "pairs": len(seeds),
            "seeds": list(seeds),
            "correct_and_no_failures": all(r["correct"] and not r["failed"]
                                           for side in SIDES for r in got[side]),
        }
        metrics = {}
        for name in got["parent"][0]["metrics"]:
            values = {side: [r["metrics"][name]["value"] for r in got[side]] for side in SIDES}
            sides = {side: summary(values[side]) for side in SIDES}
            before, after = sides["parent"]["median"], sides["change"]["median"]
            metrics[name] = {
                **sides,
                "median_change_pct": round(100 * (after - before) / before, 1),
                "change_lower_in_pairs": sum(map(lambda c, p: c < p, values["change"], values["parent"])),
            }
        end_to_end[workload] = metrics
    return runs, end_to_end


def deep_graphs(dirs, sizes):
    """Per graph size and side, `DEEP_RUNS` deep-graph runs and their median CPU seconds."""
    out = {}
    for n in sizes:
        runs = {side: [] for side in SIDES}
        for i in range(DEEP_RUNS):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_json([sys.executable, "-c", DEEP, str(n)], dirs[side]))
                print(f"n={n}", side, runs[side][-1], file=sys.stderr, flush=True)
        out[f"n={n}"] = {
            side: {"cpu_s_median": statistics.median(r["cpu_s"] for r in runs[side]),
                   "runs": runs[side]}
            for side in SIDES
        }
    return out


def source_sides(dirs, repeats=5):
    """Per side: the line count of each src/lamanmv/*.py and the import-only peak RSS in MB."""
    peaks = {side: [] for side in SIDES}
    for i in range(repeats):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            peaks[side].append(run_json([sys.executable, "-c", IMPORT_PEAK], dirs[side])["mb"])
    out = {}
    for side in SIDES:
        lines = {path.name: len(path.read_text(encoding="utf-8").splitlines())
                 for path in sorted((dirs[side] / "src" / "lamanmv").glob("*.py"))}
        out[side] = {
            "import_peak_rss_mb": {"median": round(statistics.median(peaks[side]), 2),
                                   "runs": [round(x, 2) for x in peaks[side]]},
            "src_lines": {**lines, "total": sum(lines.values())},
        }
    return out


def tier1(dirs):
    """Per side, one Tier-1 run: wall seconds, pytest's summary line and its ten slowest tests."""
    out = {}
    for side in SIDES:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH="src")
        start = time.monotonic()
        run = subprocess.run(TIER1, cwd=dirs[side], env=env, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        out[side] = {
            "wall_s": round(time.monotonic() - start, 1),
            "summary": lines[-1].strip("= ") if lines else "",
            "slowest": [line.split(None, 2) for line in lines
                        if re.match(r"\d+\.\d+s (call|setup|teardown) ", line)],
        }
        print("tier1", side, out[side]["wall_s"], out[side]["summary"], file=sys.stderr, flush=True)
    return out


def load_package(name, checkout):
    """`checkout`'s src/lamanmv imported as the package `name`, with every module in it."""
    src = checkout / "src" / "lamanmv"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(src.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}")
    return package


def timed_pass(workload, instances, failures, label):
    """CPU seconds of one whole pass; each wrong result or raised error is appended to `failures`."""
    gc.collect()
    results = []
    start = time.process_time()
    for inst in instances:
        try:
            results.append(inst.call(workload.timeout))
        except Exception as exc:  # any program error is a counted failure
            results.append(exc)
    cpu = time.process_time() - start
    for inst, result in zip(instances, results):
        wrong = (f"{type(result).__name__}: {result}" if isinstance(result, Exception)
                 else inst.check(result))
        if wrong is not None:
            failures.append(f"{label} {inst.id}: {wrong}")
    return cpu


def in_process(dirs, names, seeds, passes):
    """Per workload and seed, alternating timed passes of both sides in this interpreter."""
    sys.path.insert(0, str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    packages = {side: load_package(f"lamanmv_{side}", dirs[side]) for side in SIDES}
    out, failures = {}, []
    for name in names:
        workload = workloads.WORKLOADS[name]
        per_seed, ratios = [], []
        for seed in seeds:
            with tempfile.TemporaryDirectory() as directory:
                workload.write_inputs(packages["parent"], seed, directory)
                instances = {side: workload.load(packages[side], directory) for side in SIDES}
                for side in SIDES:
                    timed_pass(workload, instances[side], failures, f"{name} {seed} {side} warm-up")
                cpu = {side: [] for side in SIDES}
                for i in range(passes):
                    for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                        label = f"{name} {seed} {side} pass {i}"
                        cpu[side].append(timed_pass(workload, instances[side], failures, label))
            pairs = [c / p for p, c in zip(cpu["parent"], cpu["change"])]
            ratios += pairs
            print(name, seed, "median change/parent", round(statistics.median(pairs), 4),
                  file=sys.stderr, flush=True)
            per_seed.append({
                "seed": seed,
                "instances": len(instances["parent"]),
                "cpu_s": {side: [round(x, 4) for x in cpu[side]] for side in SIDES},
                "ratios": [round(x, 4) for x in pairs],
            })
        out[name] = {
            "pairs": len(ratios),
            "median_ratio": round(statistics.median(ratios), 4),
            "change_lower_in_pairs": sum(r < 1 for r in ratios),
            "seeds": per_seed,
        }
    return out, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json here")
    ap.add_argument("--workload", action="append", required=True, dest="workloads")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--parent-commit", default="", help="recorded as parent_commit")
    ap.add_argument("--change-note", default="", help="recorded as change")
    ap.add_argument("--deep", nargs="*", type=int, default=[], metavar="N")
    ap.add_argument("--tier1", action="store_true", help="also time the Tier-1 suite once per side")
    ap.add_argument("--in-process", action="store_true",
                    help="alternate whole passes of both sides in this interpreter")
    ap.add_argument("--passes", type=int, default=10, help="timed passes per side and seed (--in-process)")
    args = ap.parse_args(argv)
    dirs = {side: getattr(args, side).resolve() for side in SIDES}
    result = {
        "label": args.label,
        "parent_commit": args.parent_commit,
        "change": args.change_note,
        "machine": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                   f"Python {platform.python_version()}, single process",
    }
    if args.in_process:
        pairs, failures = in_process(dirs, args.workloads, args.seeds, args.passes)
        result.update({
            "protocol": "both sides imported into one interpreter; per workload and seed one "
                        "untimed warm-up pass per side, then whole passes alternating which side "
                        "runs first; CPU seconds per pass, not scaled to a reference speed",
            "correct_and_no_failures": not failures,
            "failures": failures,
            "in_process": pairs,
        })
    else:
        runs, end_to_end = bench_pairs(dirs, args.workloads, args.seeds, args.seconds)
        failures = []
        result.update({
            "command": "PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {args.seconds:g} --trace 0",
            "protocol": "parent and change each run from its own checkout; one pair per seed, "
                        "alternating which side runs first",
            "runs": runs,
            "end_to_end": end_to_end,
        })
    result["source"] = source_sides(dirs)
    if args.deep:
        result["deep_graphs"] = deep_graphs(dirs, args.deep)
    if args.tier1:
        result["tier1"] = tier1(dirs)
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(path)
    for line in failures:
        print("FAILED", line, file=sys.stderr)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
