"""Repeat benchmark runs and record their spread as the baseline.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 [--workloads a,b] [--write]

Runs every workload once per seed, interleaving workloads so that CPU
speed drift reaches all of them alike, then one traced run per workload
on the first seed. Prints, per end-to-end metric, the median, the
quartiles and the spread (distance between the quartiles over the
median) against the bound in BENCHMARK.json. With --write the result,
the machine and the per-layer numbers go to perfbench/BASELINE.json.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC_LINE = re.compile(r"^(\S+)\s+(-?[0-9.]+) (\S+)$")


def run_once(workload, seed, seconds, trace):
    """Every metric the run printed, gated or not, by name."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {out.stdout}")
    metrics = {}
    for line in lines[:-1]:
        m = METRIC_LINE.match(line)
        if m:
            metrics[m.group(1)] = float(m.group(2))
    metrics.update({k: v["value"] for k, v in result["metrics"].items()})
    return metrics


def add_overhead(traced, plain):
    """Tracing overhead: the traced run's time minus the untraced run's."""
    traced["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    traced["trace.overhead_ref_s"] = traced["cpu_ref_s"] - plain["cpu_ref_s"]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine():
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    t0 = time.monotonic()
    for seed in seeds:
        for w in names:
            runs[w].append(run_once(w, seed, args.seconds, 0))
            print(f"{time.monotonic() - t0:7.0f}s {w} seed {seed}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in runs[w][-1].items()), flush=True)

    result = {"machine": machine(), "seeds": seeds, "runs_per_workload": args.runs,
              "run_seconds": args.seconds, "workloads": {}}
    for w in names:
        metrics = {k: summarize([r[k] for r in runs[w]]) for k in runs[w][0]}
        for k, s in metrics.items():
            bound = bounds.get(k)
            mark = ("not gated" if bound is None
                    else "ok" if k == "setup_s" or s["spread"] < bound / 3 else "WIDE")
            print(f"{w:<16} {k:<20} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
                  f"q3 {s['q3']:10.4f}  spread {s['spread']:.4f}  bound {bound}  {mark}")
        traced = run_once(w, seeds[0], args.seconds, 1)
        add_overhead(traced, runs[w][0])
        print(f"{w:<16} tracing overhead on seed {seeds[0]}: "
              f"{traced['trace.overhead_ref_s']:.4f} s at the reference speed, "
              f"{traced['trace.overhead_s']:.4f} s wall")
        result["workloads"][w] = {"end_to_end": metrics, "per_layer_traced_seed": seeds[0],
                                  "per_layer": traced}
    if args.write:
        path = HERE / "BASELINE.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
