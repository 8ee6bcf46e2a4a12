"""Graph files, report assembly and JSON encoding.

File format: line oriented, `#` comments, `n <count>` then one
`e <i> <j> [length]` per edge. Lengths are rationals ("5", "7/2") or
decimals ("2.5", parsed exactly). Either every edge carries a length or
none does; in the latter case lengths default to the tight construction
recipe for degree-2-constructible graphs and to 1, 2, 3, ... in sorted
edge order otherwise.

A report's `embedding_count` comes from `embeddings.count_h1`, which
counts the embeddings without building them; `lamanmv embed` streams
the same walk out of `embeddings.enumerate_h1`. Both walk the framework
that `h1_framework` picks. Each graph decides its Laman verdict and
degree-2 decomposition once, however many stages read them.
"""

import json
import math
import sys
import time
from fractions import Fraction

from . import embeddings, mixedvol, polysys
from .errors import CapabilityError, InputError, InternalError, check_deadline
from .graphs import Framework, Graph, check_laman, classify, edge_key, h1_decomposition


def parse_graph_file(text):
    """Framework from the line-oriented graph format."""
    n = None
    edges = {}  # edge key -> length, None when the line gives none
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate vertex count")
            if len(parts) != 2:
                raise InputError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex count {parts[1]!r}")
        elif parts[0] == "e":
            if len(parts) not in (3, 4):
                raise InputError(f"line {lineno}: expected 'e <i> <j> [length]'")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: bad vertex labels")
            if i == j:
                raise InputError(f"line {lineno}: loop edge ({i},{j})")
            key = edge_key(i, j)
            if key in edges:
                raise InputError(f"line {lineno}: duplicate edge {key}")
            length = None
            if len(parts) == 4:
                try:
                    # Fraction builds 10**exponent: refuse it past the int-to-str limit.
                    _, e, exponent = parts[3].lower().partition("e")
                    if e and 0 < _int_str_digits() < abs(int(exponent)):
                        raise ValueError(exponent)
                    length = Fraction(parts[3])
                except (ValueError, ZeroDivisionError):
                    raise InputError(f"line {lineno}: bad length {parts[3]!r}")
                if length <= 0:
                    raise InputError(f"line {lineno}: non-positive length")
            edges[key] = length
        else:
            raise InputError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise InputError("missing 'n <count>' line")
    graph = Graph.make(n, edges)
    missing = [e for e, length in edges.items() if length is None]
    if not missing:
        return Framework.make(graph, edges)
    if len(missing) != len(edges):
        raise InputError(f"edge {missing[0]} has no length but others do")
    return Framework.make(graph, default_lengths(graph))


def _int_str_digits():
    """Python's int-to-str digit limit, 0 where there is none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def default_lengths(graph):
    """Deterministic lengths: tight recipe when possible, else 1,2,3,..."""
    dec = h1_decomposition(graph) if check_laman(graph)["laman"] else None
    if dec is not None:
        tight = embeddings.tight_lengths(dec.sequence)
        return {
            edge_key(dec.relabeling[a], dec.relabeling[b]): l
            for (a, b), l in tight.lengths.items()
        }
    return {e: Fraction(i + 1) for i, e in enumerate(sorted(graph.edges))}


def h1_framework(framework, dec, tight=False):
    """The framework that a degree-2-only decomposition's sequence walks.

    The tight recipe's lengths with `tight`, else the framework's own,
    relabelled to the sequence's vertex labels.
    """
    if tight:
        return embeddings.tight_lengths(dec.sequence)
    return framework.relabel({orig: rep for rep, orig in dec.relabeling.items()})


def borcea_streinu_bound(n):
    """Binomial comparison bound on the embedding count.

    CapabilityError when it has more digits than the int-to-str limit
    lets either output format print.
    """
    m, limit = n - 2, _int_str_digits()
    # C(2m, m), the largest of the 2m + 1 terms summing to 4^m = 2^(2m), lies
    # in [4^m / (2m + 1), 2^(2m)): below 2m = 3 limit it has fewer digits than
    # the limit, and where the lower end reaches 10^limit (2^(2m) exceeds x
    # once 2m >= x.bit_length()) it is refused without being computed.
    checked = 0 < limit and 3 * limit <= 2 * m
    if checked and 2 * m >= ((2 * m + 1) * 10**limit).bit_length():
        bound = None
    else:
        bound = math.comb(2 * m, m)
    if bound is None or checked and bound >= 10**limit:
        raise CapabilityError(f"comparison bound C({2 * m}, {m}) exceeds {limit} digits")
    return bound


def mv_result_dict(res):
    """JSON-ready summary of an MVResult (value must be integral)."""
    value = res.value
    as_int = int(value) if value == int(value) else None
    out = {
        "value": as_int if as_int is not None else str(value),
        "method": res.method,
        "seed": res.lifting_seed,
        "cell_count": len(res.cells),
    }
    if res.blocks:
        out["blocks"] = [
            {
                "polytopes": list(b.polytope_indices),
                "coordinates": list(b.coordinates),
                "value": str(b.value),
                "cells": len(b.cells),
            }
            for b in res.blocks
        ]
    return out


def cells_dict(res):
    """Full cell certificate listing for JSON output."""
    return [
        {
            "edges": [[[str(x) for x in a], [str(x) for x in b]] for a, b in r.cell],
            "det": str(r.det),
            "strict": r.strict,
        }
        for r in res.cells
    ]


def build_report(framework, seed=0, tight=False, deadline=None):
    """The report that `lamanmv report` prints, as a dict of its JSON keys.

    For a non-Laman graph the values filled from the Laman stages stay
    null and the timings empty.
    """
    g = framework.graph
    t0 = time.monotonic()
    lam = check_laman(g)
    timings = {"laman_check": time.monotonic() - t0}
    report = {
        "graph": {"n": g.n, "edges": [list(e) for e in g.sorted_edges()]},
        "laman": lam["laman"],
        "laman_witness": lam["witness"],
        "borcea_streinu_bound": borcea_streinu_bound(g.n) if g.n >= 2 else None,
        "seed": seed,
        "timings": {},
        # Filled below for a Laman graph only.
        **dict.fromkeys(("class", "bezout_soe", "bezout_subsoe", "mv_soe", "mv_subsoe",
                         "embedding_count", "witness_degenerate")),
    }
    if not lam["laman"]:
        return report
    check_deadline(deadline, "report")
    t0 = time.monotonic()
    dec = h1_decomposition(g)
    report["class"] = classify(g)
    timings["classify"] = time.monotonic() - t0

    soe = polysys.build_soe(framework)
    subsoe = polysys.build_subsoe(framework)
    report["bezout_subsoe"] = polysys.bezout(subsoe)

    t0 = time.monotonic()
    # The certificate's value equals the degree product exactly, or it raises.
    cert = mixedvol.certify_general_bound(soe, deadline)
    report["bezout_soe"] = int(cert.value)
    report["mv_soe"] = mv_result_dict(cert)
    timings["mv_soe_certificate"] = time.monotonic() - t0

    t0 = time.monotonic()
    sub = mixedvol._mv_for_system(subsoe, seed=seed, deadline=deadline)
    if sub.value > report["bezout_subsoe"]:
        raise InternalError("mv exceeds degree product for the substituted system")
    report["mv_subsoe"] = mv_result_dict(sub)
    timings["mv_subsoe"] = time.monotonic() - t0

    check_deadline(deadline, "report")
    t0 = time.monotonic()
    report["witness_degenerate"] = polysys.witness_check(soe)
    timings["witness_check"] = time.monotonic() - t0

    if dec is not None:
        t0 = time.monotonic()
        fw = h1_framework(framework, dec, tight)
        report["embedding_count"] = embeddings.count_h1(fw, dec.sequence, deadline)
        if tight and report["embedding_count"] != 2 ** (g.n - 2):
            raise InputError("tight lengths failed to realize the full count")
        timings["embeddings"] = time.monotonic() - t0
    report["timings"] = {k: round(v, 6) for k, v in timings.items()}
    return report


def to_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)
