"""The three benchmark workloads: inputs, program calls and exact checks.

Each workload writes its inputs into a directory from the benchmark
seed alone (``write_inputs``) and loads them back as instances
(``load``). The program sees only those files and the polytopes read
from them; the lifting seed it is given is fixed at 0, because the
lifting changes the work a great deal (K33 took 17 s at lifting seed 0
and 42 s at seed 1) and both sides of a comparison must do the same
work.

An instance's ``call`` is the timed program call; ``check`` returns
None when the result is exactly right, else a description of the
wrong value.
"""

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

LIFTING_SEED = "0"


@dataclass
class Instance:
    id: str
    call: Callable  # (timeout_s) -> result
    check: Callable  # (result) -> None or error text


@dataclass(frozen=True)
class Workload:
    name: str
    timeout: float  # per-instance deadline handed to the program, seconds
    write_inputs: Callable  # (lamanmv, seed, directory) -> None
    load: Callable  # (lamanmv, directory) -> [Instance]


def _rng(workload, seed):
    return random.Random(f"{workload}/{seed}")


def _graph_text(comment, g, lengths=None):
    lines = [f"# {comment}", f"n {g.n}"]
    for a, b in sorted(g.edges):
        suffix = f" {lengths[(a, b)]}" if lengths else ""
        lines.append(f"e {a} {b}{suffix}")
    return "\n".join(lines) + "\n"


def _run_cli(lm, argv):
    """cli.run with captured output; looked up at call time so tracing sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lm.cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_payload(result):
    rc, out, err = result
    if rc != 0:
        raise RuntimeError(f"exit code {rc}: {err.strip()[:200]}")
    return json.loads(out)


# -- subsoe-swap --------------------------------------------------------------
# The two six-vertex graphs that need an edge swap; almost all the time is
# the deep mixed-cell search (a 12-dim block for K33, a 9-dim one for the
# prism). The seed draws the edge lengths, which leave the Newton polytopes
# unchanged.


def _subsoe_write(lm, seed, directory):
    rng = _rng("subsoe-swap", seed)
    for name, g in (("k33", lm.graphs.k33_graph()), ("prism", lm.graphs.desargues_graph())):
        lengths = {e: Fraction(rng.randint(1, 999), rng.randint(1, 99)) for e in sorted(g.edges)}
        text = _graph_text(f"{name}, lengths from benchmark seed {seed}", g, lengths)
        (Path(directory) / f"{name}.graph").write_text(text, encoding="utf-8")


def _subsoe_check(result):
    payload = _cli_payload(result)
    if payload["value"] != 32:
        return f"mixed volume {payload['value']} != 32"
    # The cell listing is the blocks' cells in block order; each block's
    # determinants sum to its value, and the block values multiply to 32.
    cells = iter(payload["cells"])
    product = Fraction(1)
    for block in payload["blocks"]:
        dets = sum(abs(Fraction(next(cells)["det"])) for _ in range(block["cells"]))
        if dets != Fraction(block["value"]):
            return f"block {block['coordinates']}: determinants sum to {dets}, not {block['value']}"
        product *= dets
    if product != 32 or next(cells, None) is not None:
        return f"block values multiply to {product}, not 32, or cells left over"
    return None


def _subsoe_load(lm, directory):
    out = []
    for name in ("k33", "prism"):
        path = str(Path(directory) / f"{name}.graph")

        def call(timeout, path=path):
            return _run_cli(lm, ["mv", "--form", "subsoe", "--seed", LIFTING_SEED,
                                 "--timeout", f"{timeout:.3f}", path])

        out.append(Instance(name, call, _subsoe_check))
    return out


# -- oracle-lattice -------------------------------------------------------------
# Random lattice triples in dimension 3, built with the recipe of the test
# suite's random_fullmixed_instance; mixed_volume must equal the
# inclusion-exclusion oracle. Stands in for the test suite's dominant cost
# (exact volumes and vertex reduction) and barely touches the search.
#
# An instance's cost grows about as the square of the number of distinct
# points of P+Q+R (its "size" below), so one instance can cost 40 times
# another. A pass therefore holds instances up to a fixed total size
# (instances that would overshoot it are skipped), and no instance is
# larger than 50 such points squared, so that no single draw decides the
# pass time or its slowest instance. Per instance this keeps 0.1-1.5 s,
# the range the test suite's property loop spends.

ORACLE_DIM = 3
ORACLE_MAX_SIZE = 50 ** 2
ORACLE_WORK = 45_000
ORACLE_WORK_SLACK = 150  # a pass is full when less than this is left


def _random_lattice_polytope(lm, rng, dim, max_points=6, coord_range=2):
    while True:
        pts = {
            tuple(rng.randint(0, coord_range) for _ in range(dim))
            for _ in range(rng.randint(2, max_points))
        }
        if len(pts) >= 2:
            return lm.polytopes.RationalPolytope.from_points(sorted(pts))


def _oracle_size(vertex_sets):
    """Squared count of distinct sums of one vertex from each polytope."""
    sums = {(0,) * ORACLE_DIM}
    for verts in vertex_sets:
        sums = {tuple(a + b for a, b in zip(s, v)) for s in sums for v in verts}
    return len(sums) ** 2


def _oracle_write(lm, seed, directory):
    rng = _rng("oracle-lattice", seed)
    instances = []
    total = 0
    while total < ORACLE_WORK - ORACLE_WORK_SLACK:
        inner = random.Random(rng.getrandbits(64))
        polys = [_random_lattice_polytope(lm, inner, ORACLE_DIM) for _ in range(ORACLE_DIM)]
        verts = [[[int(x) for x in v] for v in p.vertices] for p in polys]
        size = _oracle_size(verts)
        if size > ORACLE_MAX_SIZE or total + size > ORACLE_WORK:
            continue
        total += size
        instances.append({"id": f"t{len(instances):02d}", "size": size, "polytopes": verts})
    text = json.dumps(instances, sort_keys=True) + "\n"
    (Path(directory) / "instances.json").write_text(text, encoding="utf-8")


def _oracle_load(lm, directory):
    data = json.loads((Path(directory) / "instances.json").read_text(encoding="utf-8"))
    rp = lm.polytopes.RationalPolytope
    out = []
    for item in data:
        vertex_sets = [
            tuple(tuple(Fraction(x) for x in v) for v in verts) for verts in item["polytopes"]
        ]

        def call(timeout, vertex_sets=vertex_sets):
            # Fresh polytope objects each time: a polytope memoizes its edges.
            polys = [rp(ORACLE_DIM, verts) for verts in vertex_sets]
            deadline = time.monotonic() + timeout
            mv = lm.mixedvol.mixed_volume(polys, seed=int(LIFTING_SEED), deadline=deadline)
            return mv.value, lm.mixedvol.mv_inclusion_exclusion(polys)

        def check(result):
            value, oracle = result
            if value != oracle:
                return f"enumeration {value} != inclusion-exclusion {oracle}"
            return None

        out.append(Instance(item["id"], call, check))
    return out


# -- report-h1 -----------------------------------------------------------------
# Degree-2-constructible graphs with n = 6..12 under default (tight)
# lengths: many 3-dim blocks with a tiny search each, so per-block set-up,
# graphs, polysys, the certificate and embeddings show.

# Weighted toward the largest graphs: a report on n = 12 takes 1.7-3.3 s
# depending on the graph, and the slowest instance of a pass is the
# slowest of its four n = 12 graphs, which varies less between seeds.
REPORT_SIZES = (6, 7, 8, 9, 10, 10, 11, 11, 12, 12, 12, 12)


def _report_files(directory):
    return [(n, Path(directory) / f"h1-{i:02d}-n{n:02d}.graph")
            for i, n in enumerate(REPORT_SIZES)]


def _report_write(lm, seed, directory):
    rng = _rng("report-h1", seed)
    for n, path in _report_files(directory):
        seq = lm.graphs.random_henneberg_sequence(n, seed=rng.getrandbits(32))
        g = lm.graphs.henneberg_apply(seq)
        text = _graph_text(f"degree-2-constructible, n={n}, benchmark seed {seed}", g)
        path.write_text(text, encoding="utf-8")


def _report_check(n):
    def check(result):
        p = _cli_payload(result)
        expected = {
            "laman": True,
            "class": "HennebergI",
            "mv_subsoe": 2 ** (n - 2),
            "mv_soe": 4 ** (n - 2),
            "embedding_count": 2 ** (n - 2),
        }
        got = {
            "laman": p["laman"],
            "class": p["class"],
            "mv_subsoe": p["mv_subsoe"]["value"] if p["mv_subsoe"] else None,
            "mv_soe": p["mv_soe"]["value"] if p["mv_soe"] else None,
            "embedding_count": p["embedding_count"],
        }
        bad = {k: (got[k], v) for k, v in expected.items() if got[k] != v}
        return f"got/expected {bad}" if bad else None

    return check


def _report_load(lm, directory):
    out = []
    for n, path in _report_files(directory):

        def call(timeout, path=str(path)):
            return _run_cli(lm, ["report", "--no-timings", "--seed", LIFTING_SEED,
                                 "--timeout", f"{timeout:.3f}", path])

        out.append(Instance(path.stem, call, _report_check(n)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("subsoe-swap", 60.0, _subsoe_write, _subsoe_load),
        Workload("oracle-lattice", 20.0, _oracle_write, _oracle_load),
        Workload("report-h1", 20.0, _report_write, _report_load),
    )
}
