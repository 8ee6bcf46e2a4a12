import random
from fractions import Fraction as F

import pytest

from conftest import framework_for, random_fullmixed_instance
from reference_enumerator import reference_enumerate_mixed_cells
from lamanmv.errors import CapabilityError, InputError, NonGenericLiftingError
from lamanmv.graphs import (
    desargues_graph,
    henneberg_apply,
    k33_graph,
    random_henneberg_sequence,
    triangle,
)
from lamanmv.mixedvol import (
    METHOD_CERTIFICATE,
    METHOD_ENUMERATION,
    METHOD_SEPARATION,
    YES_STRICT,
    Lifting,
    certify_general_bound,
    enumerate_mixed_cells,
    full_subdivision_2d,
    is_mixed_cell,
    mixed_volume,
    mv_for_graph,
    mv_inclusion_exclusion,
    random_lifting,
    separation_split,
)
from lamanmv.polysys import FORM_SOE, FORM_SUBSOE, build_subsoe, newton_polytopes
from lamanmv.polytopes import EdgeCell, RationalPolytope, edge_matrix_det

RP = RationalPolytope.from_points


def unit_segments(k):
    zero = tuple([F(0)] * k)
    return [
        RP([zero, tuple(F(1) if c == j else F(0) for c in range(k))])
        for j in range(k)
    ]


def example_pair():
    P = RP([(0, 0), (3, 0), (0, 2), (3, 2)])
    Q = RP([(1, 0), (0, F(3, 2)), (3, 3)])
    return P, Q


def step_triple():
    T = RP([(2, 0, 0), (0, 2, 0), (0, 0, 1)])
    S = RP([(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)])
    return T, S


def test_random_lifting_deterministic():
    polys = unit_segments(3)
    assert random_lifting(polys, 7) == random_lifting(polys, 7)
    assert random_lifting(polys, 0) != random_lifting(polys, 1)
    for vec in random_lifting(polys, 0).vectors:
        for entry in vec:
            assert entry.denominator <= 10**6 and abs(entry.numerator) <= 10**7


def test_unit_segments_single_cell():
    for k in (2, 3, 4):
        polys = unit_segments(k)
        cells = enumerate_mixed_cells(polys, random_lifting(polys, 0))
        assert len(cells) == 1
        assert abs(cells[0].det) == 1


def test_example_pair_cells_sum_to_fifteen():
    P, Q = example_pair()
    res = mixed_volume([P, Q], seed=0)
    assert res.value == 15
    assert res.method == METHOD_ENUMERATION
    assert sum(abs(r.det) for r in res.cells) == 15


def test_step_triple_mixed_volume_is_two():
    T, S = step_triple()
    res = mixed_volume([T, S], multiplicities=[1, 2], seed=0)
    assert res.value == 2
    assert mv_inclusion_exclusion([T, S, S]) == 2


def test_enumerated_cells_reverify():
    P, Q = example_pair()
    lifting = random_lifting([P, Q], 3)
    cells = enumerate_mixed_cells([P, Q], lifting)
    for rec in cells:
        assert rec.strict
        assert is_mixed_cell(rec.cell, [P, Q], lifting) == YES_STRICT
        assert edge_matrix_det(rec.cell) == rec.det


def test_parallel_edges_rejected_by_criterion():
    segs = [RP([(0, 0), (1, 0)]), RP([(0, 0), (2, 0)])]
    lifting = random_lifting(segs, 0)
    cell = EdgeCell((segs[0].edges()[0], segs[1].edges()[0]))
    assert is_mixed_cell(cell, segs, lifting) == "no"


def test_certificate_cell_verifies_under_constructed_lifting():
    for n in (3, 4):
        g = henneberg_apply(random_henneberg_sequence(n, seed=n))
        res = certify_general_bound(g)
        assert res.method == METHOD_CERTIFICATE
        assert res.value == 4 ** (n - 2)
        assert len(res.cells) == 1
        assert abs(res.cells[0].det) == 4 ** (n - 2)


def test_non_generic_lifting_raises():
    # Two identical squares with identical liftings tie everywhere.
    sq = RP([(0, 0), (1, 0), (0, 1), (1, 1)])
    zero_lift = Lifting(vectors=((F(0), F(0)), (F(0), F(0))))
    with pytest.raises(NonGenericLiftingError):
        enumerate_mixed_cells([sq, sq], zero_lift)


def test_mixed_volume_reseeds_past_bad_lifting():
    sq = RP([(0, 0), (1, 0), (0, 1), (1, 1)])
    res = mixed_volume([sq, sq], seed=0)
    assert res.value == 2  # 2! * area


def test_separation_splits_pinning_segments():
    fw = framework_for(triangle(), start=3)
    polys = newton_polytopes(build_subsoe(fw))
    blocks = separation_split(polys)
    dims = sorted(len(b.coordinates) for b in blocks)
    assert dims == [1, 1, 1, 1, 1, 1, 3]
    # The one 3-dim block carries the doubling factor.
    core = [b for b in blocks if len(b.coordinates) == 3][0]
    assert len(core.projected) == 3


def test_separation_henneberg1_structure(henneberg1_graphs):
    for n in (4, 5, 6):
        seq, g = henneberg1_graphs[n][0]
        polys = newton_polytopes(build_subsoe(framework_for(g)))
        blocks = separation_split(polys)
        three_blocks = [b for b in blocks if len(b.coordinates) == 3]
        assert len(three_blocks) == n - 2
        assert all(len(b.coordinates) == 1 for b in blocks if len(b.coordinates) != 3)


def test_separation_k33_has_single_large_block():
    polys = newton_polytopes(build_subsoe(framework_for(k33_graph())))
    blocks = separation_split(polys)
    large = [b for b in blocks if len(b.coordinates) > 1]
    assert len(large) == 1
    assert len(large[0].coordinates) == 12


def test_separation_soundness_small():
    # product over blocks equals direct enumeration without separation
    for n in (3, 4):
        g = henneberg_apply(random_henneberg_sequence(n, seed=n + 10))
        fw = framework_for(g)
        split_res = mv_for_graph(fw, FORM_SUBSOE, seed=0)
        from lamanmv.mixedvol import _base_framework

        polys = newton_polytopes(build_subsoe(_base_framework(fw)))
        direct = mixed_volume(polys, seed=0)
        assert split_res.value == direct.value == 2 ** (n - 2)


def test_oracle_equals_enumeration_on_random_instances():
    hits = 0
    seed = 0
    while hits < 8:
        seed += 1
        dim = 2 + (seed % 3)
        polys = random_fullmixed_instance(seed, dim)
        oracle = mv_inclusion_exclusion(polys)
        res = mixed_volume(polys, seed=0)
        assert res.value == oracle
        hits += 1


def test_oracle_cap():
    with pytest.raises(CapabilityError):
        mv_inclusion_exclusion(unit_segments(7))


def test_oracle_k_copies_is_factorial_volume():
    T = RP([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
    from lamanmv.polytopes import volume_exact

    assert mv_inclusion_exclusion([T, T, T]) == 6 * volume_exact(T)
    res = mixed_volume([T], multiplicities=[3], seed=0)
    assert res.value == 6 * volume_exact(T)


def test_axis_segments_determinant():
    segs = [
        RP([(0, 0, 0), (2, 0, 0)]),
        RP([(0, 0, 0), (0, 3, 0)]),
        RP([(0, 0, 0), (1, 1, 1)]),
    ]
    res = mixed_volume(segs, seed=0)
    assert res.value == 6


def test_mv_symmetry():
    polys = random_fullmixed_instance(101, 3)
    base = mixed_volume(polys, seed=0).value
    rng = random.Random(0)
    for _ in range(3):
        perm = polys[:]
        rng.shuffle(perm)
        assert mixed_volume(perm, seed=0).value == base


def test_mv_multilinearity():
    from lamanmv.polytopes import minkowski_sum

    rng = random.Random(3)
    for dim in (2, 3):
        for trial in range(3):
            polys = random_fullmixed_instance(200 + trial + 10 * dim, dim)
            extra = random_fullmixed_instance(300 + trial + 10 * dim, dim)[0]
            merged = polys[:]
            merged[0] = minkowski_sum(polys[0], extra)
            lhs = mixed_volume(merged, seed=1).value
            rhs = (
                mixed_volume(polys, seed=1).value
                + mixed_volume([extra] + polys[1:], seed=1).value
            )
            assert lhs == rhs


def test_lifting_independence_simple():
    P, Q = example_pair()
    vals = {mixed_volume([P, Q], seed=s).value for s in (0, 1, 2)}
    assert vals == {15}


def test_full_subdivision_example_covers_sum():
    P, Q = example_pair()
    lifting = random_lifting([P, Q], 0)
    cells = full_subdivision_2d([P, Q], lifting)
    assert sum(a for _, a in cells) == 24
    mixed_area = sum(
        a for faces, a in cells if all(len(f) == 2 for f in faces)
    )
    assert mixed_area == 15


def test_mv_for_graph_k33_and_desargues_subsoe():
    res = mv_for_graph(framework_for(k33_graph()), FORM_SUBSOE, seed=0)
    assert res.value == 32
    assert res.method == METHOD_SEPARATION
    res = mv_for_graph(framework_for(desargues_graph()), FORM_SUBSOE, seed=0)
    assert res.value == 32


def test_mv_for_graph_desargues_soe_enumerated():
    res = mv_for_graph(framework_for(desargues_graph()), FORM_SOE, seed=0)
    assert res.value == 256


def test_mv_for_graph_oracle_small():
    res = mv_for_graph(framework_for(triangle(), start=3), FORM_SUBSOE, oracle=True)
    assert res.value == 2
    assert res.method == "inclusion_exclusion"


def test_mv_for_graph_oracle_capability():
    with pytest.raises(CapabilityError):
        mv_for_graph(framework_for(k33_graph()), FORM_SUBSOE, oracle=True)


def _search_outcome(enumerate_fn, polys, lifting):
    try:
        return "cells", enumerate_fn(polys, lifting)
    except NonGenericLiftingError as exc:
        return "ties", exc.cells


def _random_search_instance(rng):
    """Rational vertices and liftings, repeats, and ties from small liftings."""
    dim = rng.randint(2, 5)
    polys, vectors = [], []
    for _ in range(dim):
        if polys and rng.random() < 0.25:
            j = rng.randrange(len(polys))
            polys.append(polys[j])
            if rng.random() < 0.5:
                vectors.append(vectors[j])
            else:
                vectors.append(tuple(F(rng.randint(0, 3)) for _ in range(dim)))
            continue
        pts = set()
        while len(pts) < rng.randint(2, 4 if dim > 3 else 5):
            pts.add(tuple(F(rng.randint(0, 3), rng.choice((1, 1, 2, 3))) for _ in range(dim)))
        polys.append(RP(sorted(pts)))
        hi = rng.choice((0, 2, 50, 10**4))
        vectors.append(tuple(F(rng.randint(0, hi), rng.choice((1, 2, 7))) for _ in range(dim)))
    return polys, Lifting(tuple(vectors))


def test_search_matches_reference_enumerator():
    rng = random.Random(20)
    kinds = {"cells": 0, "ties": 0}
    for _ in range(300):
        polys, lifting = _random_search_instance(rng)
        got = _search_outcome(enumerate_mixed_cells, polys, lifting)
        assert got == _search_outcome(reference_enumerate_mixed_cells, polys, lifting)
        kinds[got[0]] += bool(got[1])
    assert kinds["cells"] >= 100 and kinds["ties"] >= 30


def test_tie_fixed_above_the_leaf_rejects_the_cell():
    # The triangles share the zero lifting, so two of their edges fix
    # alpha_x = alpha_y = 0 at depth 1 of 3 with the third triangle vertex
    # at zero margin. That row is then fully determined and leaves the
    # search; the segment to (0, 0, 1) fixes alpha_z at the leaf, where
    # only the carried tie flag still knows the cell is not generic.
    tri = RP([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    simplex = RP([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    zero = (F(0), F(0), F(0))
    polys = [tri, tri, simplex]
    lifting = Lifting((zero, zero, (F(3), F(7), F(11))))
    kind, ties = _search_outcome(enumerate_mixed_cells, polys, lifting)
    assert kind == "ties" and ties
    assert all(rec.cell.edges[2] == ((0, 0, 0), (0, 0, 1)) for rec in ties)
    assert (kind, ties) == _search_outcome(reference_enumerate_mixed_cells, polys, lifting)


def test_threads_give_identical_result():
    P, Q = example_pair()
    one = mixed_volume([P, Q], seed=0, threads=1)
    two = mixed_volume([P, Q], seed=0, threads=4)
    assert one.value == two.value
    assert [r.cell.edges for r in one.cells] == [r.cell.edges for r in two.cells]


def test_deadline_enforced():
    import time

    fw = framework_for(k33_graph())
    with pytest.raises(CapabilityError):
        mv_for_graph(fw, FORM_SUBSOE, seed=0, deadline=time.monotonic() - 1)


def test_mismatched_multiplicities_rejected():
    P, Q = example_pair()
    with pytest.raises(InputError):
        mixed_volume([P, Q], multiplicities=[1], seed=0)
    with pytest.raises(InputError):
        mixed_volume([P, Q], multiplicities=[2, 2], seed=0)
