import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from lamanmv import cli, graphs, mixedvol, polysys
from lamanmv.embeddings import count_h1, tight_lengths
from lamanmv.errors import CapabilityError, InputError, InternalError
from lamanmv.graphs import h1_decomposition, henneberg_apply, k33_graph, random_henneberg_sequence
from lamanmv.reporting import (
    borcea_streinu_bound,
    build_report,
    default_lengths,
    h1_framework,
    parse_graph_file,
)

TRIANGLE = """
n 3
e 1 2 5
e 1 3 4
e 2 3 3
"""

K33 = "n 6\n" + "\n".join(f"e {a} {b}" for a in (1, 3, 5) for b in (2, 4, 6))

K4 = "n 4\n" + "\n".join(f"e {a} {b}" for a in range(1, 5) for b in range(a + 1, 5))


def test_every_name_the_benchmark_tracer_patches_resolves():
    # perfbench/tracing.py looks up each (module, attribute) of TARGETS in
    # the library by name, so a renamed or removed one fails the traced
    # benchmark runs; the file is read here, not changed.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner_name, attr, _, _ in tracing.TARGETS:
        module, *cls = owner_name.split(".")
        owner = importlib.import_module(f"lamanmv.{module}")
        for part in cls:
            owner = getattr(owner, part)
        assert attr in vars(owner) if cls else hasattr(owner, attr), (owner_name, attr)


def test_parse_triangle():
    fw = parse_graph_file(TRIANGLE)
    assert fw.graph.n == 3
    assert fw.lengths == {(1, 2): 5, (1, 3): 4, (2, 3): 3}


def test_parse_rational_and_decimal_lengths():
    fw = parse_graph_file("n 3\ne 1 2 7/2\ne 1 3 2.5\ne 2 3 4")
    assert fw.lengths[(1, 2)] == F(7, 2)
    assert fw.lengths[(1, 3)] == F(5, 2)


def test_parse_defaults_lengths_for_k33():
    fw = parse_graph_file(K33)
    assert fw.graph.edges == k33_graph().edges
    assert len(fw.lengths) == 9
    assert all(l > 0 for l in fw.lengths.values())


def test_parse_rejects_loop():
    with pytest.raises(InputError):
        parse_graph_file("n 3\ne 1 1 2")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(InputError):
        parse_graph_file("n 3\ne 1 2 1\ne 2 1 2\ne 1 3 1")


def test_parse_rejects_partial_lengths():
    with pytest.raises(InputError):
        parse_graph_file("n 3\ne 1 2 5\ne 1 3\ne 2 3 3")


def test_parse_reports_line_numbers():
    with pytest.raises(InputError) as err:
        parse_graph_file("n 3\ne 1 2 5\ne 1 oops 4")
    assert "line 3" in str(err.value)


def test_parse_rejects_huge_decimal_exponent():
    # Fraction would build 10**9999999 first; the exponent is refused at
    # once, like a numerator beyond the int-to-str digit limit.
    start = time.process_time()
    for length in ("1e9999999", "1E-9999999"):
        with pytest.raises(InputError, match="bad length"):
            parse_graph_file(f"n 3\ne 1 2 {length}\ne 1 3 1\ne 2 3 1")
    assert time.process_time() - start < 1
    assert parse_graph_file("n 3\ne 1 2 1e3\ne 1 3 1\ne 2 3 1").lengths[(1, 2)] == 1000


def test_parse_is_linear_in_the_edge_count():
    # 5,997 edges with lengths: a scan of the earlier edges per line took 1.45 s.
    g = henneberg_apply(random_henneberg_sequence(3000, seed=2))
    text = "n 3000\n" + "".join(f"e {a} {b} {a + b}/7\n" for a, b in sorted(g.edges))
    start = time.process_time()
    fw = parse_graph_file(text)
    assert time.process_time() - start < 0.5
    assert fw.lengths[(1, 2)] == F(3, 7) and len(fw.lengths) == 5997


@pytest.mark.parametrize("command", ["check", "report"])
def test_cli_huge_vertex_count_without_edges_is_quick(tmp_path, capsys, command):
    # The Laman check holds state only for the vertices that carry an edge;
    # `report` then refuses the comparison bound, which has too many digits.
    if command == "report" and not getattr(sys, "get_int_max_str_digits", int)():
        pytest.skip("this Python has no int-to-str limit")
    start = time.process_time()
    code = run_cli(tmp_path, "n 1000000\n", command, "--timeout", "0.1")
    assert time.process_time() - start < 1
    assert code == (cli.EXIT_OK if command == "check" else cli.EXIT_CAPABILITY)


def test_default_lengths_tight_for_h1():
    fw = parse_graph_file("n 3\ne 1 2\ne 1 3\ne 2 3")
    assert sorted(fw.lengths.values()) == [3, 4, 5]


def test_borcea_streinu_values():
    assert borcea_streinu_bound(3) == 2
    assert borcea_streinu_bound(6) == 70


def test_borcea_streinu_bound_refused_before_it_is_computed():
    # C(2 000 000 - 4, 999 998) alone takes about 40 s; its lower bound
    # 4^m / (2m + 1) already has too many digits, so it is never built.
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 10**5:
        pytest.skip("this Python has no or a very large int-to-str limit")
    start = time.process_time()
    with pytest.raises(CapabilityError, match="digits"):
        borcea_streinu_bound(10**6)
    assert time.process_time() - start < 1


def test_report_triangle_invariants():
    fw = parse_graph_file(TRIANGLE)
    rep = build_report(fw, seed=0)
    assert rep["laman"]
    assert rep["class"] == "HennebergI"
    assert rep["bezout_soe"] == 4 and rep["bezout_subsoe"] == 32
    assert rep["mv_soe"]["value"] == 4 and rep["mv_subsoe"]["value"] == 2
    assert rep["mv_soe"]["value"] <= rep["bezout_soe"]
    assert rep["mv_subsoe"]["value"] <= rep["bezout_subsoe"]
    assert rep["borcea_streinu_bound"] == 2
    assert rep["embedding_count"] == 2
    assert rep["witness_degenerate"] is True


def test_report_counts_embeddings_without_holding_them():
    # n = 14 has 2^12 embeddings: holding them as a list peaked at 5.1 MiB.
    seq = random_henneberg_sequence(14, seed=1)
    fw = tight_lengths(seq)
    tracemalloc.start()
    try:
        rep = build_report(fw, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["embedding_count"] == 2**12
    assert peak < 2 * 2**20


def test_report_counts_each_degree_product_once(monkeypatch):
    # One count per system, the distance system's inside its certificate.
    calls = []
    count = polysys.bezout

    def counting(system):
        calls.append(system.form)
        return count(system)

    monkeypatch.setattr(polysys, "bezout", counting)
    monkeypatch.setattr(mixedvol, "bezout", counting)
    rep = build_report(parse_graph_file(TRIANGLE), seed=0)
    assert sorted(calls) == sorted([polysys.FORM_SOE, polysys.FORM_SUBSOE])
    assert rep["bezout_soe"] == rep["mv_soe"]["value"] == 4


def test_report_non_laman_short_circuit():
    rep = build_report(parse_graph_file("n 4\ne 1 2 1\ne 2 3 1\ne 3 4 1"))
    assert not rep["laman"]
    assert rep["mv_soe"] is None


def run_cli(tmp_path, content, *argv):
    path = tmp_path / "g.graph"
    path.write_text(content)
    return cli.run([argv[0], *argv[1:], str(path)])


def test_cli_check(tmp_path, capsys):
    code = run_cli(tmp_path, TRIANGLE, "check")
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["laman"] is True


def test_cli_mv_subsoe_k33(tmp_path, capsys):
    code = run_cli(tmp_path, K33, "mv", "--form", "subsoe", "--seed", "7")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == 32
    assert out["method"] == "separation+enumeration"


def test_cli_certify_k33(tmp_path, capsys):
    code = run_cli(tmp_path, K33, "certify")
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == 256 and out["method"] == "certificate"
    assert len(out["cells"]) == 1


def test_cli_embed_tight(tmp_path, capsys):
    code = run_cli(tmp_path, TRIANGLE, "embed", "--tight")
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["embedding_count"] == 2


H1_N6 = """n 6
e 1 2
e 1 3
e 2 3
e 1 4
e 3 4
e 2 5
e 4 5
e 1 6
e 5 6
"""


def test_cli_embed_tight_six_vertices(tmp_path, capsys):
    code = run_cli(tmp_path, H1_N6, "embed", "--tight")
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["embedding_count"] == 16
    assert out["max_residual"] < 1e-9


def test_cli_oracle_triangle(tmp_path, capsys):
    code = run_cli(tmp_path, TRIANGLE, "oracle", "--form", "subsoe")
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["value"] == 2
    assert out["method"] == "inclusion_exclusion"


def test_cli_oracle_capability_exit(tmp_path, capsys):
    code = run_cli(tmp_path, K33, "oracle", "--form", "subsoe")
    assert code == 2


def test_cli_oracle_timeout_exit(tmp_path, capsys):
    # Blocks of dimension 3, so the oracle runs (about 0.1 s without a deadline).
    g = henneberg_apply(random_henneberg_sequence(8, seed=1))
    text = f"n {g.n}\n" + "\n".join(f"e {a} {b}" for a, b in sorted(g.edges))
    code = run_cli(tmp_path, text, "oracle", "--form", "subsoe", "--timeout", "0.001")
    err = capsys.readouterr().err
    assert code == 2
    assert "timed out" in err and "Traceback" not in err


def test_cli_input_error_exit(tmp_path, capsys):
    code = run_cli(tmp_path, "n 3\ne 1 1 2", "check")
    assert code == 1


def test_cli_unreadable_path_exit(tmp_path, capsys):
    # A missing file and a directory: exit 1 with the reason, no traceback.
    for path in (tmp_path / "missing.graph", tmp_path):
        assert cli.run(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and "Traceback" not in err


def test_cli_unknown_flag_exit(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text(TRIANGLE)
    assert cli.run(["check", "--bogus", str(path)]) == 1


def test_cli_parser_is_shared_between_runs(tmp_path, capsys):
    # A good call, a failing argv (exit 1), then other subcommands, on the
    # one parser `run` reuses and then each on a newly built parser: the
    # exit codes and both output streams agree.
    path = tmp_path / "g.graph"
    path.write_text(TRIANGLE)
    argvs = [
        ["check", str(path)],
        ["check", "--bogus", str(path)],
        ["orient", "--format", "text", str(path)],
        ["mv", "--seed", "2", str(path)],
    ]
    shared = [(cli.run(argv), *capsys.readouterr()) for argv in argvs]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append((cli.run(argv), *capsys.readouterr()))
    assert [code for code, _, _ in shared] == [0, 1, 0, 0]
    assert shared == fresh


def test_cli_report_byte_identical(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(TRIANGLE)
    assert cli.run(["report", "--no-timings", "--seed", "3", str(path)]) == 0
    first = capsys.readouterr().out
    assert cli.run(["report", "--no-timings", "--seed", "3", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert "timings" not in payload
    assert payload["mv_subsoe"]["value"] == 2


def test_cli_report_has_timings_by_default(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text(TRIANGLE)
    assert cli.run(["report", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "timings" in payload


def test_report_k33_end_to_end(tmp_path, capsys):
    path = tmp_path / "k33.graph"
    path.write_text(K33)
    assert cli.run(["report", "--seed", "0", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "HennebergII"
    assert payload["mv_soe"]["value"] == 256
    assert payload["mv_subsoe"]["value"] == 32
    assert payload["bezout_subsoe"] == 2 ** 14
    assert payload["borcea_streinu_bound"] == 70
    assert payload["witness_degenerate"] is True
    assert payload["embedding_count"] is None


def test_cli_timeout_exit(tmp_path, capsys):
    path = tmp_path / "k33.graph"
    path.write_text(K33)
    assert cli.run(["mv", "--form", "subsoe", "--timeout", "0.0", str(path)]) == 2


def test_cli_report_timeout_reaches_every_stage(tmp_path, capsys):
    # Counting 2^23 embeddings takes about 10 s; the deadline must stop
    # the report there as well as in the mixed-cell search.
    g = henneberg_apply(random_henneberg_sequence(25, seed=1))
    text = f"n {g.n}\n" + "\n".join(f"e {a} {b}" for a, b in sorted(g.edges))
    start = time.monotonic()
    code = run_cli(tmp_path, text, "report", "--timeout", "3", "--no-timings")
    assert code == cli.EXIT_CAPABILITY
    assert time.monotonic() - start < 6
    err = capsys.readouterr().err
    assert "timed out" in err and "Traceback" not in err


def test_cli_report_timeout_reaches_the_certificate(tmp_path, capsys):
    # At n = 400 the certificate, checked before each of its 800 supports,
    # ends well within the deadline; the report then stops in the
    # embedding enumeration, just past the 2 s deadline.
    g = henneberg_apply(random_henneberg_sequence(400, seed=5))
    text = f"n {g.n}\n" + "\n".join(f"e {a} {b}" for a, b in sorted(g.edges))
    start = time.monotonic()
    code = run_cli(tmp_path, text, "report", "--timeout", "2")
    assert code == cli.EXIT_CAPABILITY
    assert time.monotonic() - start < 5
    err = capsys.readouterr().err
    assert "timed out" in err and "Traceback" not in err


def test_cli_peel_needs_no_backtracking_on_pendant_vertices(tmp_path):
    # K33 plus 24 degree-2 vertices, without lengths. The degree-2 peel
    # strips the pendants and stops at K33, which has no degree-2 vertex.
    # A backtracking peel retried the pendants' removal orders, work
    # exponential in their number, already while parsing the file.
    k33 = sorted(k33_graph().edges)
    pendants = [(x, 7 + i) for i in range(24) for x in k33[i % 9]]
    path = tmp_path / "pendants.graph"
    path.write_text("n 30\n" + "".join(f"e {a} {b}\n" for a, b in k33 + pendants))
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv in (["check"], ["henneberg"], ["report", "--no-timings", "--timeout", "5"]):
        proc = subprocess.run(
            [sys.executable, "-m", "lamanmv.cli", *argv, str(path)],
            capture_output=True, text=True, timeout=20, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        if argv == ["check"]:
            assert payload["laman"] is True
        else:
            assert payload["class"] == "HennebergII"


def test_cli_decides_each_graph_fact_once(monkeypatch, capsys):
    counts = dict.fromkeys(("_pebble_game", "_peel_search"), 0)
    for name in counts:
        def counted(*args, name=name, original=getattr(graphs, name)):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(graphs, name, counted)
    golden = Path(__file__).resolve().parent / "golden"
    # The Laman verdict and the orientation's game; one peel.
    assert cli.run(["report", "--no-timings", str(golden / "h6.graph")]) == 0
    assert counts == {"_pebble_game": 2, "_peel_search": 1}
    # The Laman verdict; one peel, whose sequence also gives the class. On
    # K33 the peel tests its joins on the verdict's pebbles.
    for name in ("h6.graph", "k33.graph"):
        counts.update(_pebble_game=0, _peel_search=0)
        assert cli.run(["henneberg", str(golden / name)]) == 0
        assert counts == {"_pebble_game": 1, "_peel_search": 1}


def test_cli_embed_walks_a_deep_degree2_chain(tmp_path, capsys):
    # Vertex v sits at distance v-2 from vertex 1 and 1 from vertex v-1: all
    # 1,100 vertices on one line, every intersection tangent, one embedding.
    lines = ["n 1100", "e 1 2 2", "e 1 3 1", "e 2 3 1"]
    lines += [f"e {a} {v} {l}" for v in range(4, 1101) for a, l in ((1, v - 2), (v - 1, 1))]
    text = "\n".join(lines) + "\n"
    assert run_cli(tmp_path, text, "embed", "--format", "text") == 0
    assert capsys.readouterr().out.startswith("embeddings: 1 ")
    fw = parse_graph_file(text)
    dec = h1_decomposition(fw.graph)
    assert count_h1(h1_framework(fw, dec), dec.sequence) == 1


def test_cli_system_text(tmp_path, capsys):
    code = run_cli(tmp_path, TRIANGLE, "system", "--form", "soe", "--format", "text")
    out = capsys.readouterr().out
    assert code == 0
    assert "degree product: 4" in out


def test_cli_henneberg_and_orient(tmp_path, capsys):
    assert run_cli(tmp_path, K33, "henneberg") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "HennebergII"
    assert any(s["kind"] == "II" for s in payload["steps"])
    assert run_cli(tmp_path, K33, "orient") == 0
    payload = json.loads(capsys.readouterr().out)
    heads = [d["head"] for d in payload["directed"]]
    assert len(heads) == 8


@pytest.mark.parametrize("command", ["mv", "system", "orient"])
def test_cli_edgeless_graph_is_input_error(tmp_path, capsys, command):
    assert run_cli(tmp_path, "n 3\n", command) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_single_edge_graph(tmp_path, capsys):
    # Laman with no free vertex: the pinning alone fixes it, so 4^0 = 1.
    def payload(*argv):
        assert run_cli(tmp_path, "n 2\ne 1 2\n", *argv) == cli.EXIT_OK
        return json.loads(capsys.readouterr().out)

    assert payload("orient") == {"base": [1, 2], "directed": []}
    assert payload("system", "--form", "soe")["bezout"] == 1
    assert payload("mv", "--form", "soe")["value"] == 1
    assert payload("certify")["value"] == 1
    report = payload("report", "--no-timings")
    assert report["mv_soe"]["value"] == report["mv_subsoe"]["value"] == 1
    assert report["witness_degenerate"] is False
    # Every construction sequence starts at the triangle, so the single
    # edge has none and no Henneberg class.
    assert report["class"] is None
    assert run_cli(tmp_path, "n 2\ne 1 2\n", "henneberg") == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "start at the triangle" in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_report_bound_beyond_digit_limit_is_capability(tmp_path, capsys, fmt):
    # C(2n-4, n-2) has 4,300 digits at n = 7,147 and 4,301 from n = 7,148
    # on, past Python's default int-to-str limit, so neither format could
    # print it.
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("this Python has no or a non-default int-to-str limit")
    assert run_cli(tmp_path, "n 7147\ne 1 2\n", "report", "--format", fmt) == cli.EXIT_OK
    capsys.readouterr()
    for n in (7148, 7150):
        code = run_cli(tmp_path, f"n {n}\ne 1 2\n", "report", "--format", fmt)
        assert code == cli.EXIT_CAPABILITY
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "4300 digits" in err and "Traceback" not in err


def test_cli_mv_rejects_non_laman(tmp_path, capsys):
    assert run_cli(tmp_path, K4, "mv") == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: graph is not Laman\n"


# K4 on {2, 3, 4, 5} plus the edge (1, 2): 2n - 3 edges, but not Laman.
NOT_LAMAN = "n 5\ne 1 2\n" + "\n".join(f"e {a} {b}" for a in range(2, 6) for b in range(a + 1, 6))


@pytest.mark.parametrize("argv", [
    ["mv"], ["certify"], ["system", "--form", "soe"], ["system", "--form", "subsoe"],
    ["oracle", "--form", "subsoe"],
], ids=" ".join)
def test_cli_system_commands_refuse_non_laman(tmp_path, capsys, argv):
    assert run_cli(tmp_path, NOT_LAMAN, *argv) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: graph is not Laman\n")


@pytest.mark.parametrize("argv", [["certify"], ["mv", "--form", "soe"], ["system", "--form", "soe"]],
                         ids=" ".join)
def test_cli_distance_system_refuses_a_huge_non_laman_graph_at_once(tmp_path, capsys, argv):
    # The distance system was built per vertex before its Laman check:
    # 10^20 vertices ran out of memory.
    start = time.process_time()
    assert run_cli(tmp_path, "n 99999999999999999999\ne 1 2\n", *argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: graph is not Laman\n"
    assert time.process_time() - start < 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_system_coefficient_beyond_digit_limit_is_capability(tmp_path, capsys, fmt):
    # A length of 10^-4300 parses, but its square's denominator has 8,601 digits.
    if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
        pytest.skip("this Python has no or a non-default int-to-str limit")
    text = "n 3\ne 1 2 1e-4300\ne 1 3 1\ne 2 3 1\n"
    assert run_cli(tmp_path, text, "system", "--format", fmt) == cli.EXIT_CAPABILITY
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "digit limit" in captured.err


def _graph_file_text(g):
    return f"n {g.n}\n" + "".join(f"e {a} {b}\n" for a, b in g.sorted_edges())


@pytest.mark.parametrize("form, n", [("soe", 424), ("subsoe", 359)])
def test_cli_system_refuses_a_listing_just_above_the_cap(tmp_path, capsys, form, n):
    # A distance system holds 2n (14n - 20) dense entries, a substituted
    # one 3n (13n - 12): n is the first size above the cap for its form.
    build = polysys.BUILDERS[form]

    def graph_text(n):
        return _graph_file_text(henneberg_apply(random_henneberg_sequence(n, seed=5, step2_probability=0.3)))

    def entries(text):
        system = build(parse_graph_file(text))
        return system.nvars * sum(len(p.terms) for p in system.polys)

    text = graph_text(n)
    assert entries(graph_text(n - 1)) <= cli.LISTING_CAP < entries(text)
    start = time.process_time()
    for fmt in ("json", "text"):
        assert run_cli(tmp_path, text, "system", "--form", form, "--format", fmt) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: the listing holds ")
    assert time.process_time() - start < 2


def test_cli_certify_refuses_a_cell_listing_above_the_cap(tmp_path, capsys, monkeypatch):
    # The cell lists 2 nvars points of nvars = 2n entries each, 8 n^2 in
    # all, which passes the cap from n = 791 on (without the cap, n = 2,000
    # printed 544 MB of JSON). The refusal comes before the certificate.
    assert 8 * 790**2 <= cli.LISTING_CAP < 8 * 791**2
    calls = []
    monkeypatch.setattr(mixedvol, "certify_general_bound", lambda *args, **kw: calls.append(args))
    text = _graph_file_text(henneberg_apply(random_henneberg_sequence(800, seed=5, step2_probability=0.3)))
    start = time.process_time()
    for fmt in ("json", "text"):
        assert run_cli(tmp_path, text, "certify", "--format", fmt) == cli.EXIT_CAPABILITY
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the listing holds {8 * 800**2} exponents, above the cap of {cli.LISTING_CAP}\n"
    assert calls == []
    assert time.process_time() - start < 2


def test_cli_mv_times_out_in_the_matching_of_a_large_graph(tmp_path, capsys):
    # Its substituted supports' matching follows augmenting paths deeper
    # than the recursion limit and takes about 3 s, so it must check the
    # deadline itself.
    g = henneberg_apply(random_henneberg_sequence(5000, seed=5, step2_probability=0.3))
    start = time.monotonic()
    assert run_cli(tmp_path, _graph_file_text(g), "mv", "--form", "subsoe", "--timeout", "1") == 2
    assert capsys.readouterr().err == "error: coordinate blocks timed out\n"
    assert time.monotonic() - start < 3


def test_cli_internal_error_exit(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("self-check failed")

    monkeypatch.setattr(mixedvol, "mv_for_graph", broken)
    assert run_cli(tmp_path, TRIANGLE, "mv") == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err == "internal error: self-check failed\n"


def test_cli_report_degree_product_violation_is_internal(tmp_path, capsys, monkeypatch):
    # Only a bug can push a mixed volume above the degree product.
    monkeypatch.setattr(polysys, "bezout", lambda system: 0)
    assert run_cli(tmp_path, TRIANGLE, "report") == cli.EXIT_INTERNAL
    assert "exceeds degree product" in capsys.readouterr().err
