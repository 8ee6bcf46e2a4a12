"""Randomized invariant suites, kept small for quick iteration;
the acceptance module runs the full-size versions."""

import itertools
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from conftest import (
    framework_for,
    random_fullmixed_instance,
    random_lattice_polytope,
    scale,
    translate,
)
from reference_henneberg import laman_oracle
from lamanmv.graphs import (
    Graph,
    all_laman_graphs,
    canonical_form,
    check_laman,
    henneberg_apply,
    henneberg_decompose,
    random_henneberg_sequence,
)
from lamanmv.mixedvol import (
    mixed_volume,
    mv_for_graph,
    mv_inclusion_exclusion,
)
from lamanmv.polysys import FORM_SOE, FORM_SUBSOE, bezout, build_soe, build_subsoe
from lamanmv.polytopes import minkowski_sum, volume_exact


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return Graph.make(n, edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_pebble_game_matches_subset_oracle(g):
    assert check_laman(g)["laman"] == laman_oracle(g)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_form_ignores_labels(data):
    # The catalog is built in the test body, outside the timed draws.
    catalog = all_laman_graphs(data.draw(st.integers(2, 9)))
    g = catalog[data.draw(st.integers(0, len(catalog) - 1))]
    order = data.draw(st.permutations(range(1, g.n + 1)))
    h = g.relabel({old: new for new, old in enumerate(order, start=1)})
    assert canonical_form(h) == canonical_form(g)


def test_pebble_game_matches_oracle_on_catalog():
    for n in range(3, 7):
        for g in all_laman_graphs(n):
            assert check_laman(g)["laman"] and laman_oracle(g)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=3))
def test_volume_translation_and_dilation(seed, dim):
    rng = random.Random(seed)
    p = random_lattice_polytope(rng, dim, max_points=6, coord_range=3)
    v = volume_exact(p)
    shift = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(dim))
    assert volume_exact(translate(p, shift)) == v
    lam = F(rng.randint(1, 4), rng.randint(1, 4))
    assert volume_exact(scale(p, lam)) == lam**dim * v


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_minkowski_area_identity(seed):
    rng = random.Random(seed)
    p = random_lattice_polytope(rng, 2, max_points=5, coord_range=3)
    q = random_lattice_polytope(rng, 2, max_points=5, coord_range=3)
    lhs = volume_exact(minkowski_sum(p, q)) - volume_exact(p) - volume_exact(q)
    assert lhs == mixed_volume([p, q], seed=0).value


def test_decompose_roundtrip_with_mixed_steps():
    for seed in range(4):
        seq = random_henneberg_sequence(7, seed=seed, step2_probability=0.5)
        g = henneberg_apply(seq)
        dec = henneberg_decompose(g)
        assert canonical_form(henneberg_apply(dec.sequence)) == canonical_form(g)


def test_enumeration_matches_oracle_small():
    for seed in (11, 12, 13, 14):
        dim = 2 + seed % 2
        polys = random_fullmixed_instance(seed, dim)
        assert mixed_volume(polys, seed=0).value == mv_inclusion_exclusion(polys)


def test_lifting_independence_on_graph_system():
    g = henneberg_apply(random_henneberg_sequence(5, seed=21))
    fw = framework_for(g)
    values = {mv_for_graph(fw, FORM_SUBSOE, seed=s).value for s in (0, 1, 2)}
    assert len(values) == 1


def test_mv_bounded_by_degree_product():
    for n, seed, p2 in ((4, 0, 0.0), (5, 1, 0.4), (6, 2, 0.5)):
        g = henneberg_apply(random_henneberg_sequence(n, seed=seed, step2_probability=p2))
        fw = framework_for(g)
        assert mv_for_graph(fw, FORM_SOE, seed=0).value <= bezout(build_soe(fw))
        assert mv_for_graph(fw, FORM_SUBSOE, seed=0).value <= bezout(build_subsoe(fw))
