"""Command line interface.

Subcommands: check, henneberg, orient, system, mv, certify, oracle,
embed, report. Graphs come from the line-oriented file format handled
by reporting.parse_graph_file. Each subcommand has one handler that
returns its JSON payload and a text renderer (payload -> str); `run`
prints one of the two and maps errors to exit codes: 0 success, 1 input
error, 2 capability or retry exhaustion, 3 internal error (a failed
self-check, which means a bug).
"""

import argparse
import functools
import sys
import time

from . import embeddings, mixedvol, polysys, reporting
from .errors import CapabilityError, InputError, InternalError
from .graphs import (
    StepI,
    check_laman,
    classify,
    default_base,
    edge_key,
    h1_decomposition,
    henneberg_decompose,
    orient_two_in,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAPABILITY = 2
EXIT_INTERNAL = 3

# `system` lists every exponent of every term densely, one entry per
# variable, and `certify` lists its cell as 2 nvars dense points of nvars
# entries each; above this many entries either refuses with exit 2 before
# it builds the listing. The JSON listing peaks at about 92 bytes per
# entry (478 MB at 5.0 million), and the cap admits `system` up to
# n = 423 for the distance system and n = 358 for the substituted one,
# and `certify` up to n = 790.
LISTING_CAP = 5_000_000


def seconds(text):
    """The type of --timeout: a float other than NaN, which no clock reading is ever past."""
    value = float(text)
    if value != value:
        raise ValueError(text)
    return value


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every `run`."""
    p = argparse.ArgumentParser(
        prog="lamanmv",
        description="Exact mixed-volume bounds for planar framework embeddings",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, form=False):
        sp.add_argument("file", help="graph file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--timeout", type=seconds, default=None, help="seconds")
        if form:
            sp.add_argument("--form", choices=tuple(polysys.BUILDERS), default=polysys.FORM_SUBSOE)

    common(sub.add_parser("check", help="Laman property with witness"))
    common(sub.add_parser("henneberg", help="construction sequence and class"))
    orient = sub.add_parser("orient", help="two-incoming-edges orientation")
    common(orient)
    orient.add_argument("--base", default=None, help="base edge as i,j")
    common(sub.add_parser("system", help="print the polynomial system"), form=True)
    common(sub.add_parser("mv", help="mixed volume with cell certificates"), form=True)
    common(sub.add_parser("certify", help="closed-form distance-system bound"))
    common(sub.add_parser("oracle", help="inclusion-exclusion cross-check"), form=True)
    embed = sub.add_parser("embed", help="enumerate embeddings")
    common(embed)
    embed.add_argument("--tight", action="store_true", help="use the tight length recipe")
    report = sub.add_parser("report", help="full JSON report")
    common(report)
    report.add_argument("--tight", action="store_true")
    report.add_argument("--no-timings", action="store_true", help="byte-stable output")
    return p


def _load(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    return reporting.parse_graph_file(text)


def _deadline(args):
    return None if args.timeout is None else time.monotonic() + args.timeout


def _poly_text(poly, variables):
    parts = []
    # The terms are in dense exponent order, so a stable sort by degree
    # orders them by (-degree, dense exponents).
    for monomial, coeff in sorted(poly.terms, key=lambda t: -sum(e for _, e in t[0])):
        mono = "*".join(
            f"{variables[v]}^{e}" if e > 1 else variables[v] for v, e in monomial
        )
        c = str(coeff)
        if mono:
            piece = mono if coeff == 1 else (f"-{mono}" if coeff == -1 else f"{c}*{mono}")
        else:
            piece = c
        parts.append(piece)
    out = " + ".join(parts).replace("+ -", "- ")
    return out or "0"


def _refuse_listing(entries):
    if entries > LISTING_CAP:
        raise CapabilityError(f"the listing holds {entries} exponents, above the cap of {LISTING_CAP}")


def _with_cells(res):
    payload = reporting.mv_result_dict(res)
    payload["cells"] = reporting.cells_dict(res)
    return payload


def _check(args, fw):
    lam = check_laman(fw.graph)
    payload = {"n": fw.graph.n, "laman": lam["laman"], "witness": lam["witness"]}
    return payload, lambda p: "laman" if p["laman"] else f"not laman (witness {p['witness']})"


def _henneberg(args, fw):
    dec = henneberg_decompose(fw.graph)
    steps = []
    for i, s in enumerate(dec.sequence.steps):
        if isinstance(s, StepI):
            steps.append({"kind": "I", "vertex": i + 4, "anchors": [s.a, s.b]})
        else:
            steps.append({"kind": "II", "vertex": i + 4, "anchors": [s.a, s.b, s.c],
                          "removed": list(s.removed)})
    payload = {
        "class": classify(fw.graph),
        "steps": steps,
        "relabeling": {str(k): v for k, v in sorted(dec.relabeling.items())},
    }

    def text(p):
        return "\n".join(
            [f"class: {p['class']}"]
            + [f"  step {s['kind']} -> vertex {s['vertex']} anchors {s['anchors']}"
               + (f" removed {s['removed']}" if s["kind"] == "II" else "")
               for s in p["steps"]]
        )

    return payload, text


def _orient(args, fw):
    if args.base:
        try:
            i, j = (int(x) for x in args.base.split(","))
        except ValueError:
            raise InputError("--base expects i,j")
        base = edge_key(i, j)
    else:
        base = default_base(fw.graph)
    orientation = orient_two_in(fw.graph, base)
    payload = {
        "base": list(orientation.base),
        "directed": [
            {"edge": list(e), "head": h} for e, h in sorted(orientation.heads.items())
        ],
    }

    def text(p):
        lines = [f"base: {tuple(p['base'])}"]
        for d in p["directed"]:
            e = d["edge"]
            tail = e[0] if e[1] == d["head"] else e[1]
            lines.append(f"  {tail} -> {d['head']}")
        return "\n".join(lines)

    return payload, text


def _system(args, fw):
    system = polysys.BUILDERS[args.form](fw)
    _refuse_listing(system.nvars * sum(len(p.terms) for p in system.polys))
    dense = functools.partial(polysys.dense_exponents, system.nvars)
    try:
        polynomials = [
            {"terms": [{"exponents": list(dense(m)), "coefficient": str(c)} for m, c in p.terms]}
            for p in system.polys
        ]
    except ValueError:  # str() of a squared length past the int-to-str digit limit
        raise CapabilityError("a coefficient exceeds Python's int-to-str digit limit")
    payload = {
        "form": system.form,
        "variables": list(system.variables),
        "polynomials": polynomials,
        "bezout": polysys.bezout(system),
    }

    def text(p):
        return "\n".join(
            [f"variables: {' '.join(p['variables'])}"]
            + ["  " + _poly_text(poly, system.variables) + " = 0" for poly in system.polys]
            + [f"degree product: {p['bezout']}"]
        )

    return payload, text


def _mv(args, fw):
    res = mixedvol.mv_for_graph(fw, args.form, seed=args.seed, deadline=_deadline(args))
    return _with_cells(res), lambda p: (
        f"mixed volume: {p['value']} ({p['method']}, seed {p['seed']})"
    )


def _certify(args, fw):
    soe = polysys.build_soe(fw)
    _refuse_listing(2 * soe.nvars**2)
    res = mixedvol.certify_general_bound(soe, deadline=_deadline(args))
    return _with_cells(res), lambda p: f"mixed volume: {p['value']} (certificate)"


def _oracle(args, fw):
    res = mixedvol.mv_for_graph(
        fw, args.form, seed=args.seed, oracle=True, deadline=_deadline(args)
    )
    payload = reporting.mv_result_dict(res)
    return payload, lambda p: f"mixed volume (inclusion-exclusion): {p['value']}"


def _embed(args, fw):
    dec = h1_decomposition(fw.graph)
    if dec is None:
        raise InputError("embedding enumeration needs a degree-2-constructible graph")
    h1 = reporting.h1_framework(fw, dec, args.tight)
    embs = list(embeddings.enumerate_h1(h1, dec.sequence, _deadline(args)))
    payload = {
        "embedding_count": len(embs),
        "max_residual": max((e.residual for e in embs), default=0.0),
        "relabeling": {str(k): v for k, v in sorted(dec.relabeling.items())},
        "embeddings": [
            {
                "choices": list(e.choices),
                "tangent": e.tangent,
                "points": {str(v): [x, y] for v, (x, y) in sorted(e.points.items())},
            }
            for e in embs
        ],
    }
    return payload, lambda p: (
        f"embeddings: {p['embedding_count']} (max residual {p['max_residual']:.2e})"
    )


def _report(args, fw):
    payload = reporting.build_report(fw, args.seed, args.tight, _deadline(args))
    if args.no_timings:
        del payload["timings"]

    def text(p):
        keys = ("laman", "class", "bezout_soe", "bezout_subsoe",
                "borcea_streinu_bound", "embedding_count", "witness_degenerate")
        lines = [f"{key}: {p[key]}" for key in keys]
        for key in ("mv_soe", "mv_subsoe"):
            if p[key]:
                lines.append(f"{key}: {p[key]['value']} ({p[key]['method']})")
        return "\n".join(lines)

    return payload, text


_HANDLERS = {
    "check": _check,
    "henneberg": _henneberg,
    "orient": _orient,
    "system": _system,
    "mv": _mv,
    "certify": _certify,
    "oracle": _oracle,
    "embed": _embed,
    "report": _report,
}


def run(argv):
    """Entry point used by tests; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        payload, text = _HANDLERS[args.command](args, _load(args.file))
        print(reporting.to_json(payload) if args.format == "json" else text(payload))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
