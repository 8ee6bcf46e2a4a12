"""lamanmv benchmark: one workload per run, single process and thread.

    python3 perfbench/run.py --workload subsoe-swap --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The run generates its inputs from ``--seed``, measures whole
passes over the workload's instances for about ``--seconds`` seconds,
checks every result exactly and prints one metric a line, then a JSON
object as the last line of standard output. With ``--trace 0`` that
object carries the end-to-end metrics BENCHMARK.json gates (times at the
reference CPU speed, see speed.py); with ``--trace 1`` it carries
the per-layer metrics of a traced run, whose spans are also written to
``.perfbench_out/``. See perfbench/README.md for the metrics.
"""

import argparse
import contextlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
# Every instance ends, by the program's own deadline or by SIGALRM, before
# the run has used this much time, so a hang cannot stall the run.
RUN_BUDGET_S = 150.0
ALARM_GRACE_S = 5.0
MIN_SAMPLES = 20  # speed samples an instance needs to be scaled by its own
MODULES = ("cli", "embeddings", "graphs", "linprog", "mixedvol", "polysys",
           "polytopes", "reporting")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "instance_s.max": "s",
    "cpu_ref_s": "s",
    "instance_ref_s.max": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# All are printed; the JSON result carries the ones BENCHMARK.json gates.
GATED = ("cpu_ref_s", "setup_s", "peak_rss_mb")


class InstanceTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@contextlib.contextmanager
def _alarm(seconds):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_lamanmv():
    """The package from this checkout's src/, never an installed copy."""
    if not (SRC / "lamanmv" / "__init__.py").is_file():
        raise FileNotFoundError(f"no lamanmv sources under {SRC}")
    # One thread everywhere, set before numpy and scipy load their libraries.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    lm = importlib.import_module("lamanmv")
    if Path(lm.__file__).resolve().parent != SRC / "lamanmv":
        raise ImportError(f"lamanmv imported from {lm.__file__}, not {SRC}")
    for name in MODULES:
        importlib.import_module(f"lamanmv.{name}")
    return lm


def set_up(lm, workload, seed, directory):
    """Generate and write the inputs, then load them as instances."""
    directory.mkdir(parents=True, exist_ok=True)
    workload.write_inputs(lm, seed, directory)
    return workload.load(lm, directory)


def measure_setup(workload, seed):
    """Median set-up time of fresh processes, at the reference speed.

    Each sample runs from spawning the process to its instances being
    ready, less the probe's slices, scaled by the speed the child's probe
    measured while it set up.
    """
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            ready = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or len(line) != 3 or line[0] != "ready":
                raise RuntimeError("set-up process failed")
        factor, probe_s = float(line[1]), float(line[2])
        samples.append((ready - t0 - probe_s) * factor)
    return statistics.median(samples)


def _setup_only(workload, seed):
    """The child side of measure_setup: import, set up, report the speed."""
    with speed.SpeedProbe() as probe:
        lm = import_lamanmv()
        work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        try:
            set_up(lm, workload, seed, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"ready {probe.factor()!r} {probe.total!r}", flush=True)
    return 0


def run_instance(inst, timeout, tracer):
    """(wall s, CPU s, failure kind or None, detail) of one program call."""
    kind, detail = None, ""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with _alarm(timeout + ALARM_GRACE_S):
            if tracer is None:
                result = inst.call(timeout)
            else:
                tracer.instance = inst.id
                with tracer.root("instance"):
                    result = inst.call(timeout)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        wrong = inst.check(result)
        if wrong is not None:
            kind, detail = "wrong", wrong
    except InstanceTimeout:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        kind, detail = "timeout", f"no result within {timeout:.1f} s"
    except Exception as exc:  # any program error is a counted failure
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        kind, detail = "error", f"{type(exc).__name__}: {exc}"
    return wall, cpu, kind, detail


def run_pass(instances, workload, budget_end, tracer=None):
    """One pass; every time excludes the speed probe's own slices."""
    walls, cpus, failures = [], [], []
    with speed.SpeedProbe() as probe:
        t0, c0 = time.perf_counter(), time.process_time()
        for inst in instances:
            timeout = min(workload.timeout, budget_end - time.monotonic())
            if timeout <= 0:
                failures.append((inst.id, "timeout", "run budget used up"))
                continue
            before, first = probe.total, len(probe.samples)
            wall, cpu, kind, detail = run_instance(inst, timeout, tracer)
            walls.append(wall - (probe.total - before))
            cpus.append((cpu - (probe.total - before), first, len(probe.samples)))
            if kind is not None:
                failures.append((inst.id, kind, detail))
        wall = time.perf_counter() - t0 - probe.total
        cpu = time.process_time() - c0 - probe.total
    factor = probe.factor()

    def ref(cpu, first, last):
        # An instance long enough to carry its own speed samples uses them.
        return cpu * (probe.factor(first, last) if last - first >= MIN_SAMPLES else factor)

    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "instance_s.max": max(walls, default=0.0),
        "cpu_ref_s": cpu * factor,
        "instance_ref_s.max": max((ref(*c) for c in cpus), default=0.0),
        "attempted": len(instances),
        "failures": failures,
    }


def measure(lm, workload, instances, seconds, trace, seed):
    """Whole passes while the next one is expected to end within `seconds`."""
    start = time.monotonic()
    budget_end = start + RUN_BUDGET_S
    passes, layer = [], []
    while True:
        if trace:
            tracer = tracing.Tracer(lm)
            with tracer:
                p = run_pass(instances, workload, budget_end, tracer)
            layer.append(tracing.layer_metrics(tracer.spans))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{workload.name}-seed{seed}-pass{len(passes)}.jsonl.gz")
        else:
            p = run_pass(instances, workload, budget_end)
        passes.append(p)
        typical = statistics.median(q["wall_s"] for q in passes)
        if time.monotonic() - start + typical > seconds or time.monotonic() > budget_end:
            return passes, layer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready <speed factor> <probe s>' and exit "
                         "(used to time set-up)")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        return _setup_only(workload, args.seed)

    try:
        lm = import_lamanmv()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        instances = set_up(lm, workload, args.seed, work)
        setup_s = measure_setup(workload, args.seed)
        passes, layer = measure(lm, workload, instances, args.seconds, args.trace, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    end_to_end = {
        **{k: statistics.median(p[k] for p in passes)
           for k in ("wall_s", "cpu_s", "instance_s.max", "cpu_ref_s", "instance_ref_s.max")},
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}"
          f"{' (traced)' if args.trace else ''}  instances/pass {len(instances)}")
    for name, value in end_to_end.items():
        print(f"{name:<20} {value:12.4f} {END_TO_END_UNITS[name]}")
    print(f"{'fail_ratio':<20} {len(failures) / attempted:12.4f} ratio "
          f"({len(failures)} of {attempted})")
    for inst_id, kind, detail in failures:
        print(f"FAILED {inst_id}: {kind}: {detail}")

    if args.trace:
        # Tracing overhead: this traced wall_s minus an untraced run's wall_s.
        metrics = tracing.median_metrics(layer)
        metrics["trace.wall_s"] = end_to_end["wall_s"]
        for name, value in metrics.items():
            print(f"{name:<44} {value:14.6f} {tracing.unit(name)}")
        report = {k: {"value": v, "unit": tracing.unit(k)} for k, v in metrics.items()}
    else:
        report = {k: {"value": end_to_end[k], "unit": END_TO_END_UNITS[k]} for k in GATED}
    print(json.dumps({
        "correct": not any(kind == "wrong" for _, kind, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
