import random
from fractions import Fraction
from operator import add

import pytest

from lamanmv.graphs import (
    Framework,
    Graph,
    henneberg_apply,
    random_henneberg_sequence,
)
from lamanmv.polytopes import RationalPolytope


def framework_for(graph, start=2):
    """Deterministic positive lengths (start, start+1, ...) in edge order."""
    return Framework.make(
        graph, {e: Fraction(i + start) for i, e in enumerate(sorted(graph.edges))}
    )


def translate(p, shift):
    """p + shift, vertex by vertex."""
    return RationalPolytope(p.ambient_dim, tuple(tuple(map(add, v, shift)) for v in p.vertices))


def scale(p, factor):
    """factor * p, vertex by vertex."""
    return RationalPolytope(p.ambient_dim, tuple(tuple(factor * x for x in v) for v in p.vertices))


def random_lattice_polytope(rng, dim, max_points=6, coord_range=2):
    """Small random lattice polytope with at least two distinct vertices."""
    while True:
        pts = {
            tuple(rng.randint(0, coord_range) for _ in range(dim))
            for _ in range(rng.randint(2, max_points))
        }
        if len(pts) >= 2:
            return RationalPolytope.from_points(sorted(pts))


def random_fullmixed_instance(seed, dim):
    """dim polytopes in Q^dim, jointly full-dimensional most of the time."""
    rng = random.Random(seed)
    return [random_lattice_polytope(rng, dim) for _ in range(dim)]


@pytest.fixture(scope="session")
def henneberg1_graphs():
    """Three distinct labeled degree-2-built graphs per size 4..6."""
    seq3 = random_henneberg_sequence(3, seed=0)
    out = {3: [(seq3, henneberg_apply(seq3))]}
    for n in (4, 5, 6):
        graphs = []
        seen = set()
        seed = 0
        while len(graphs) < 3:
            seq = random_henneberg_sequence(n, seed=seed)
            g = henneberg_apply(seq)
            if g.edges not in seen:
                seen.add(g.edges)
                graphs.append((seq, g))
            seed += 1
        out[n] = graphs
    return out
