"""Exhaustive references for the Laman and Henneberg machinery in `lamanmv.graphs`.

`laman_oracle` checks the Laman counts on every vertex subset;
`graphs.check_laman` plays a pebble game instead and must give the same
verdict.
`peel_search` is the backtracking reverse construction with a memo of
failed edge sets; it tests each join with a fresh pebble game on the
relabelled remainder. `graphs._peel_search` peels greedily on one carried
pebble state and must return the same records, because Laman's theorem
says the first candidate never fails. With `only_step1` it decides
whether a graph is degree-2-built. `canonical_form` tries every
relabelling that keeps each degree class in place; `graphs.canonical_form`
refines colours instead and must split graphs into the same isomorphism
classes.
`brute_force_catalog` tries every set of 2n-3 edges;
`graphs.all_laman_graphs` grows the catalog by Henneberg steps and must
give the same classes. `random_henneberg_sequence` rebuilds the graph
from the whole sequence after every step; `graphs.random_henneberg_sequence`
updates one edge list and must draw the same sequences.
"""

import itertools
import random

from lamanmv.errors import CapabilityError
from lamanmv.graphs import (
    Graph,
    HennebergSequence,
    StepI,
    StepII,
    check_laman,
    edge_key,
    henneberg_apply,
    triangle,
)


ORACLE_VERTEX_CAP = 12


def laman_oracle(g):
    """Exhaustive subset check of the Laman counts (n <= 12)."""
    if g.n > ORACLE_VERTEX_CAP:
        raise CapabilityError(f"subset oracle capped at {ORACLE_VERTEX_CAP} vertices")
    if g.n < 2 or len(g.edges) != 2 * g.n - 3:
        return False
    vertices = range(1, g.n + 1)
    for k in range(2, g.n + 1):
        for subset in itertools.combinations(vertices, k):
            sub = set(subset)
            spanned = sum(1 for a, b in g.edges if a in sub and b in sub)
            if spanned > 2 * k - 3:
                return False
    return True


def _degree_map(edges, vertices):
    deg = {v: 0 for v in vertices}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def _edges_laman(edges, vertices):
    mapping = {v: i + 1 for i, v in enumerate(sorted(vertices))}
    g = Graph.make(len(vertices), [(mapping[a], mapping[b]) for a, b in edges])
    return check_laman(g)["laman"]


def peel_search(edges, vertices, only_step1, _failed=None):
    """Backtracking reverse construction down to a triangle.

    Returns a list of peel records (kind, vertex, anchors, inserted) in
    peel order, or None.
    """
    if _failed is None:
        _failed = set()
    key = frozenset(edges)
    if key in _failed:
        return None
    if len(vertices) == 3:
        return []
    deg = _degree_map(edges, vertices)
    degrees = (2,) if only_step1 else (2, 3)
    candidates = [v for v in vertices if deg[v] in degrees]
    for v in sorted(candidates, key=lambda v: (deg[v], v)):
        nbrs = sorted(a if b == v else b for a, b in edges if v in (a, b))
        stripped = {e for e in edges if v not in e}
        rest = vertices - {v}
        if deg[v] == 2:
            sub = peel_search(stripped, rest, only_step1, _failed)
            if sub is not None:
                return [("I", v, tuple(nbrs), None)] + sub
        else:
            for x, y in itertools.combinations(nbrs, 2):
                ins = edge_key(x, y)
                if ins in stripped:
                    continue
                cand = stripped | {ins}
                if not _edges_laman(cand, rest):
                    continue
                sub = peel_search(cand, rest, only_step1, _failed)
                if sub is not None:
                    return [("II", v, tuple(nbrs), ins)] + sub
    _failed.add(key)
    return None


def canonical_form(g):
    """Minimum edge tuple over degree-preserving relabelings."""
    degs = _degree_map(g.edges, range(1, g.n + 1))
    classes = {}
    for v, d in degs.items():
        classes.setdefault(d, []).append(v)
    blocks = []
    start = 1
    for _, vs in sorted(classes.items()):
        vs = sorted(vs)
        blocks.append((vs, list(range(start, start + len(vs)))))
        start += len(vs)
    best = None
    for perms in itertools.product(*(itertools.permutations(vs) for vs, _ in blocks)):
        mapping = {}
        for (_, targets), perm in zip(blocks, perms):
            for v, t in zip(perm, targets):
                mapping[v] = t
        form = tuple(sorted(edge_key(mapping[a], mapping[b]) for a, b in g.edges))
        if best is None or form < best:
            best = form
    return best


def brute_force_catalog(n):
    """Reference canonical forms of all Laman graphs on n vertices, from every edge subset."""
    if n < 2:
        return set()
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    forms = set()
    for subset in itertools.combinations(pairs, 2 * n - 3):
        g = Graph.make(n, subset)
        if check_laman(g)["laman"]:
            forms.add(canonical_form(g))
    return forms


def random_henneberg_sequence(n, seed, step2_probability=0.0):
    """Seeded random construction sequence, replayed from the triangle at every step."""
    rng = random.Random(seed)
    steps = []
    g = triangle()
    for new in range(4, n + 1):
        existing = list(range(1, new))
        if new >= 5 and rng.random() < step2_probability:
            r, s = rng.choice(sorted(g.edges))
            c = rng.choice([v for v in existing if v not in (r, s)])
            steps.append(StepII(r, s, c, removed=(r, s)))
        else:
            steps.append(StepI(*rng.sample(existing, 2)))
        g = henneberg_apply(HennebergSequence(tuple(steps)))
    return HennebergSequence(tuple(steps))
