"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START  # noqa: E402

lm = run.import_lamanmv()


def _instance(id, call, check=lambda result: None):
    return workloads.Instance(id, call, check)


def _pass(instances, timeout=30.0, tracer=None):
    wl = workloads.Workload("test", timeout, None, None)
    return run.run_pass(instances, wl, time.monotonic() + 60, tracer)


def test_wrong_value_error_and_exit_code_count_as_failures(tmp_path):
    bad_graph = tmp_path / "bad.graph"
    bad_graph.write_text("n 3\ne 1 2\ne 2 3\ne 1 3 2\n", encoding="utf-8")  # mixed lengths
    p = _pass([
        _instance("ok", lambda t: 32, lambda r: None if r == 32 else "wrong"),
        _instance("wrong", lambda t: 31, lambda r: None if r == 32 else "wrong"),
        _instance("raises", lambda t: 1 / 0),
        _instance("exit1", lambda t: workloads._run_cli(lm, ["mv", str(bad_graph)]),
                  workloads._subsoe_check),
    ])
    kinds = {inst_id: kind for inst_id, kind, _ in p["failures"]}
    assert kinds == {"wrong": "wrong", "raises": "error", "exit1": "error"}
    assert p["attempted"] == 4


def test_exact_checks_reject_wrong_values():
    def mv(value, blocks, dets):
        return (0, json.dumps({
            "value": value,
            "blocks": [{"coordinates": [i], "value": v, "cells": n}
                       for i, (v, n) in enumerate(blocks)],
            "cells": [{"det": d} for d in dets],
        }), "")

    assert workloads._subsoe_check(mv(32, [("4", 2), ("8", 1)], ["-3", "1", "8"])) is None
    assert workloads._subsoe_check(mv(31, [("31", 1)], ["31"])) is not None
    assert workloads._subsoe_check(mv(32, [("4", 2), ("8", 1)], ["-3", "2", "8"])) is not None
    assert workloads._subsoe_check(mv(32, [("4", 1), ("8", 1)], ["4", "8", "1"])) is not None
    report = ('{"laman": true, "class": "HennebergI", "mv_subsoe": {"value": 16}, '
              '"mv_soe": {"value": 256}, "embedding_count": 8}')
    assert workloads._report_check(6)((0, report, "")) is not None
    assert workloads._report_check(6)((0, report.replace(": 8}", ": 16}"), "")) is None


def test_hang_is_a_timeout_failure(monkeypatch):
    monkeypatch.setattr(run, "ALARM_GRACE_S", 0.1)
    t0 = time.monotonic()
    p = _pass([_instance("hang", lambda t: time.sleep(30))], timeout=0.2)
    assert time.monotonic() - t0 < 5
    assert [kind for _, kind, _ in p["failures"]] == ["timeout"]


def test_speed_probe_samples_and_restores_the_timer():
    import signal
    with speed.SpeedProbe() as probe:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.5:
            sum(i * i for i in range(1000))
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert probe.total == pytest.approx(sum(probe.samples))
    assert probe.factor() > 0


def test_pass_times_exclude_probe_and_scale_to_reference_speed():
    p = _pass([_instance("spin", lambda t: sum(i * i for i in range(2_000_000)))])
    assert 0 < p["instance_s.max"] <= p["wall_s"]
    assert p["cpu_ref_s"] > 0 and p["instance_ref_s.max"] > 0


def _span(name, start, end, parent):
    return [name, start, end, parent, "i", None]


def test_self_time_on_synthetic_nested_trace():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),
        _span("a", 6.0, 7.0, 3),  # recursion: not counted twice in a.s
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert tracing._outermost(spans) == [True, True, True, True, False]


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "lamanmv" or name.startswith("lamanmv."))]


def _snapshot():
    return {(id(m), k): v for m in _namespaces() for k, v in vars(m).items()} | {
        ("RationalPolytope", k): v
        for k, v in vars(lm.polytopes.RationalPolytope).items()
    }


def test_traced_run_restores_library_and_covers_instance(tmp_path):
    graph = tmp_path / "h1.graph"
    g = lm.graphs.henneberg_apply(lm.graphs.random_henneberg_sequence(5, seed=3))
    graph.write_text(workloads._graph_text("test", g), encoding="utf-8")
    before = _snapshot()
    tracer = tracing.Tracer(lm)
    inst = _instance("r", lambda t: workloads._run_cli(
        lm, ["report", "--no-timings", "--timeout", "30", str(graph)]),
        workloads._report_check(5))
    with tracer:
        assert lm.cli.run is not before[(id(lm.cli), "run")]
        p = _pass([inst], tracer=tracer)
    assert p["failures"] == []
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    spans = tracer.spans
    names = {rec[NAME] for rec in spans}
    for expected in ("instance", "cli.run", "reporting.parse_graph_file",
                     "mixedvol.certify_general_bound", "mixedvol.enumerate_mixed_cells",
                     "polytopes.from_points", "linprog.feasible.polytopes",
                     "polysys.newton_polytopes", "embeddings.enumerate_h1"):
        assert expected in names
    (root,) = [i for i, rec in enumerate(spans) if rec[NAME] == "instance"]
    (cli,) = [rec for rec in spans if rec[PARENT] == root]
    assert cli[NAME] == "cli.run"
    metrics = tracing.layer_metrics(spans)
    assert metrics["trace.coverage"] > 0.99
    # The span tree under cli.run adds up to it: children plus self time.
    idx = spans.index(cli)
    children = sum(r[END] - r[START] for r in spans if r[PARENT] == idx)
    assert children + metrics["cli.run.self_s"] == pytest.approx(cli[END] - cli[START])


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer(lm):
            1 / 0
    after = _snapshot()
    assert all(after[k] is v for k, v in before.items())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    wl = workloads.WORKLOADS[name]

    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        wl.write_inputs(lm, seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first = files(7, "a")
    assert first and first == files(7, "b")
    assert first != files(8, "c")
