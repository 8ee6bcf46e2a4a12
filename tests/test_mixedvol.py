import functools
import hashlib
import itertools
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction as F
from operator import mul, sub

import pytest
import reference_simplex as simplex
from hypothesis import event, given, settings, strategies as st

from conftest import framework_for, random_fullmixed_instance
from reference_enumerator import lifting_value, reference_enumerate_mixed_cells
from reference_linalg import mat_det, mat_solve
from reference_polysys import dense, perfect_matching as reference_perfect_matching, sparse
from reference_subdivision import full_subdivision_2d
from lamanmv import linprog, mixedvol, polysys, reporting, separation
from lamanmv.errors import CapabilityError, InputError, InternalError, NonGenericLiftingError
from lamanmv.graphs import (
    Framework,
    Graph,
    StepII,
    all_laman_graphs,
    desargues_graph,
    henneberg_apply,
    k33_graph,
    random_henneberg_sequence,
    relabel_with_base,
    triangle,
)
from lamanmv.mixedvol import (
    METHOD_CERTIFICATE,
    METHOD_ENUMERATION,
    METHOD_SEPARATION,
    NO,
    YES_STRICT,
    YES_TIE,
    MixedCellRecord,
    _touching,
    certify_general_bound,
    enumerate_mixed_cells,
    is_mixed_cell,
    mixed_volume,
    mv_for_graph,
    mv_inclusion_exclusion,
    random_lifting,
    separation_split,
)
from lamanmv.linprog import feasible
from lamanmv.polysys import (
    FORM_SOE,
    FORM_SUBSOE,
    PolySystem,
    Polynomial,
    block_bezout,
    build_soe,
    build_subsoe,
    newton_polytopes,
    supports,
    witness_check,
)
from lamanmv.polytopes import (
    RationalPolytope,
    edge_matrix_det,
    is_edge,
    minkowski_sum,
    volume_exact,
)

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
    for vec in random_lifting(polys, 0):
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
    cell = (segs[0].edges()[0], segs[1].edges()[0])
    assert is_mixed_cell(cell, segs, lifting) == "no"


def test_certificate_cell_verifies_under_constructed_lifting():
    for n in (3, 4):
        g = henneberg_apply(random_henneberg_sequence(n, seed=n))
        res = certify_general_bound(build_soe(framework_for(g)))
        assert res.method == METHOD_CERTIFICATE
        assert res.value == 4 ** (n - 2)
        assert len(res.cells) == 1
        assert abs(res.cells[0].det) == 4 ** (n - 2)


def certificate_lifting(k):
    """The certificate's lifting: mu_j is 1 in coordinate j and 2k elsewhere."""
    return [tuple(1 if c == j else 2 * k for c in range(k)) for j in range(k)]


def raw_supports(system):
    return [RationalPolytope(system.nvars, tuple(dense(system.nvars, m) for m in p.support()))
            for p in system.polys]


def test_certificate_and_witness_on_the_frameworks_own_lengths():
    # Both take the distance system with the framework's own lengths: every
    # constant term stays nonzero, as lengths are positive and the pinning
    # moves c1 off l12 (all lengths 1 makes l12 = c1 and forces that move).
    rng = random.Random(14)
    graphs = [g for n in range(2, 7) for g in all_laman_graphs(n)]
    for g in graphs:
        g = g.relabel(dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n))))
        unit = Framework.make(g, {e: 1 for e in g.edges})
        own = Framework.make(g, {e: F(rng.randint(1, 40), rng.randint(1, 6)) for e in g.edges})
        expected = certify_general_bound(build_soe(unit))
        assert expected.value == 4 ** (g.n - 2)
        soe = build_soe(own)
        assert certify_general_bound(soe).cells == expected.cells
        # The generic criterion and elimination agree with the closed form.
        (rec,) = expected.cells
        lifting = certificate_lifting(soe.nvars)
        assert is_mixed_cell(rec.cell, raw_supports(soe), lifting) == YES_STRICT
        assert edge_matrix_det(rec.cell) == rec.det
        for fw in (unit, own):
            assert witness_check(build_soe(fw)) == (g.n >= 3)
    # Both read the distance system's layout, so they refuse any other form.
    with pytest.raises(InputError):
        certify_general_bound(build_subsoe(own))
    with pytest.raises(InputError):
        witness_check(build_subsoe(own))


def test_certificate_rejects_an_on_axis_point_and_a_missing_constant():
    soe = build_soe(framework_for(henneberg_apply(random_henneberg_sequence(5, seed=3))))
    (rec,) = certify_general_bound(soe).cells
    k = soe.nvars

    def mutant(j, change):
        terms = dict(soe.polys[j].terms)
        change(terms)
        polys = list(soe.polys)
        polys[j] = Polynomial.make(k, terms)
        return PolySystem(soe.variables, tuple(polys), form=FORM_SOE)

    # x_3 beside x_3^2 in the first quadratic: a second point on axis 4.
    on_axis = mutant(4, lambda t: t.update({((4, 1),): 3}))
    with pytest.raises(InternalError, match="rejected"):
        certify_general_bound(on_axis)
    assert is_mixed_cell(rec.cell, raw_supports(on_axis), certificate_lifting(k)) == YES_TIE
    # A quadratic without its constant term lacks the cell's point 0.
    with pytest.raises(InternalError, match="missing"):
        certify_general_bound(mutant(5, lambda t: t.pop(())))


def test_certificate_compares_its_degree_product_exactly(monkeypatch):
    # The certificate counts the degree product itself; a count one off is rejected.
    soe = build_soe(framework_for(henneberg_apply(random_henneberg_sequence(5, seed=3))))
    count = polysys.bezout(soe)
    assert certify_general_bound(soe).value == count
    monkeypatch.setattr(mixedvol, "bezout", lambda system: count - 1)
    with pytest.raises(InternalError, match="exceeds degree product"):
        certify_general_bound(soe)
    monkeypatch.setattr(mixedvol, "bezout", lambda system: count + 1)
    with pytest.raises(InternalError, match="mismatch"):
        certify_general_bound(soe)


def test_certificate_scales_to_four_hundred_vertices():
    # One pass over 800 supports; the generic cell check and determinant,
    # two dense eliminations of order 800, took tens of seconds.
    soe = build_soe(framework_for(henneberg_apply(random_henneberg_sequence(400, seed=5))))
    start = time.process_time()
    res = certify_general_bound(soe)
    assert time.process_time() - start < 1
    assert res.value == 4 ** 398


def test_non_generic_lifting_raises():
    # Two identical squares with identical liftings tie everywhere.
    sq = RP([(0, 0), (1, 0), (0, 1), (1, 1)])
    zero_lift = ((F(0), F(0)), (F(0), F(0)))
    with pytest.raises(NonGenericLiftingError):
        enumerate_mixed_cells([sq, sq], zero_lift)


def test_mixed_volume_reseeds_past_bad_lifting(monkeypatch):
    # The all-zero lifting ties every cell of the unit square's
    # subdivision. Given to seed 0, the value comes from seed 1; given to
    # every seed, the error carries the last attempt's tie cells.
    sq = RP([(0, 0), (1, 0), (0, 1), (1, 1)])
    lifting = mixedvol.random_lifting
    zero = ((0, 0), (0, 0))
    monkeypatch.setattr(mixedvol, "random_lifting", lambda polys, seed: lifting(polys, seed) if seed else zero)
    res = mixed_volume([sq, sq], seed=0)
    assert (res.value, res.lifting_seed) == (2, 1)  # 2! * area
    monkeypatch.setattr(mixedvol, "random_lifting", lambda polys, seed: zero)
    with pytest.raises(NonGenericLiftingError, match="no generic lifting found in 32 attempts") as err:
        mixed_volume([sq, sq], seed=0)
    assert len(err.value.cells) == 8


def test_separation_splits_pinning_segments():
    fw = framework_for(triangle(), start=3)
    blocks = separation_split(supports(build_subsoe(fw)))
    dims = sorted(len(b.coordinates) for b in blocks)
    assert dims == [1, 1, 1, 1, 1, 1, 3]
    # The one 3-dim block carries the doubling factor.
    core = [b for b in blocks if len(b.coordinates) == 3][0]
    assert len(core.projected) == 3


def test_separation_henneberg1_structure(henneberg1_graphs):
    for n in (4, 5, 6):
        seq, g = henneberg1_graphs[n][0]
        blocks = separation_split(supports(build_subsoe(framework_for(g))))
        three_blocks = [b for b in blocks if len(b.coordinates) == 3]
        assert len(three_blocks) == n - 2
        assert all(len(b.coordinates) == 1 for b in blocks if len(b.coordinates) != 3)


def test_separation_k33_has_single_large_block():
    blocks = separation_split(supports(build_subsoe(framework_for(k33_graph()))))
    large = [b for b in blocks if len(b.coordinates) > 1]
    assert len(large) == 1
    assert len(large[0].coordinates) == 12


def _condensation_sinks_first(comps, adj):
    """Reference block order: Kahn rounds over the condensation DAG,
    each round's sinks in Tarjan emission order."""
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    remaining = {ci: set() for ci in range(len(comps))}
    for i, succ in adj.items():
        remaining[comp_of[i]].update(comp_of[j] for j in succ if comp_of[j] != comp_of[i])
    order = []
    while remaining:
        sinks = sorted(ci for ci, ds in remaining.items() if not ds)
        assert sinks, "condensation must be acyclic"
        for ci in sinks:
            order.append(tuple(comps[ci]))
            del remaining[ci]
        for ds in remaining.values():
            ds.difference_update(sinks)
    return order


def test_block_order_matches_condensation_rule():
    # Random supports, each holding a coordinate of a random permutation so
    # that a perfect matching exists; "reordered" counts block orders that
    # differ from Tarjan's emission order.
    rng = random.Random(12)
    shapes = Counter()
    for _ in range(1000):
        k = rng.randint(1, 12)
        density = rng.random() * 0.35
        perm = rng.sample(range(k), k)
        supports = [{perm[i]} | {c for c in range(k) if rng.random() < density} for i in range(k)]
        polys = [[(), tuple((c, 1) for c in sorted(s))] for s in supports]
        match = separation._perfect_matching([sorted(s) for s in supports], k)
        owner = {c: i for i, c in enumerate(match)}
        adj = {i: {owner[c] for c in supports[i]} - {i} for i in range(k)}
        comps = separation._sccs(adj, k)
        blocks = [b.polytope_indices for b in separation_split(polys)]
        assert blocks == _condensation_sinks_first(comps, adj)
        shapes["many blocks" if len(blocks) >= 4 else "few blocks"] += 1
        shapes["reordered"] += blocks != [tuple(c) for c in comps]
    assert min(shapes.values()) >= 100, shapes


def test_matching_follows_an_augmenting_path_past_the_recursion_limit():
    # Polytope i < k - 1 uses coordinates i, i + 1 and takes i; the last
    # uses coordinate 0 alone, so its augmenting path shifts every other
    # polytope one coordinate up, k steps deep.
    k = 3 * sys.getrecursionlimit()
    uses = [[i, i + 1] for i in range(k - 1)] + [[0]]
    assert separation._perfect_matching(uses, k) == [*range(1, k), 0]
    with pytest.raises(CapabilityError, match="coordinate blocks"):
        separation._perfect_matching(uses, k, deadline=time.monotonic() - 1)


@st.composite
def _relations(draw):
    """A polytope/coordinate relation, each polytope's coordinates in a drawn order."""
    k = draw(st.integers(1, 9))
    coords = st.lists(st.integers(0, k - 1), unique=True, max_size=k)
    return draw(st.lists(coords, min_size=k, max_size=k)), k


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_relations())
def test_matching_agrees_with_the_recursive_one(relation):
    uses, k = relation
    match = separation._perfect_matching(uses, k)
    event("matched" if match else "no perfect matching")
    assert match == reference_perfect_matching(uses, k)


def test_separation_soundness_small():
    # product over blocks equals direct enumeration without separation
    for n in (3, 4):
        g = henneberg_apply(random_henneberg_sequence(n, seed=n + 10))
        fw = framework_for(g)
        split_res = mv_for_graph(fw, FORM_SUBSOE, seed=0)
        polys = newton_polytopes(build_subsoe(fw))
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


def test_full_subdivision_refuses_a_malformed_lifting():
    # One 2-entry lifting vector per polytope: too few vectors used to end
    # in zip's ValueError, and 1-entry vectors were cut short without a word.
    tri, quad = RP([(0, 0), (2, 0), (0, 1)]), RP([(0, 0), (1, 0), (1, 1), (0, 2)])
    lifting = random_lifting([tri, quad], 3)
    assert full_subdivision_2d([tri, quad], lifting)
    for bad in (lifting[:1], tuple(mu[:1] for mu in lifting)):
        with pytest.raises(InputError):
            full_subdivision_2d([tri, quad], bad)


def _touching_margin_lp(polys, lifting, faces):
    """The margin as an LP: maximize t <= 1 over alpha and t subject to
    the face equalities and <alpha, f0 - u> - t >= <mu, f0 - u> for the
    vertices u off the faces; None when infeasible or negative."""
    rows = []
    for j, face in enumerate(faces):
        f0 = face[0]
        for v in face[1:]:
            coeff = [f0[0] - v[0], f0[1] - v[1], F(0)]
            rows.append((coeff, simplex.EQ, lifting_value(lifting, j, tuple(coeff[:2]))))
        for u in polys[j].vertices:
            if u not in face:
                coeff = [f0[0] - u[0], f0[1] - u[1], F(-1)]
                rows.append((coeff, simplex.GE, lifting_value(lifting, j, tuple(coeff[:2]))))
    rows.append(([F(0), F(0), F(1)], simplex.LE, 1))
    out = simplex.solve(simplex.LinearProgram.make([0, 0, 1], rows))
    if out.status != simplex.OPTIMAL or out.value < 0:
        return None
    return out.value


def test_touching_margin_matches_lp_reference():
    # Random polygons, segments and points with small integer liftings, so
    # zero margins, negative margins and parallel edges all occur; every
    # face combination of full_subdivision_2d is compared with the sign of
    # the LP's margin. Where the equalities leave alpha free the faces
    # span no area, and the exact test answers NO without an LP.
    rng = random.Random(95)
    seen = Counter()
    for _ in range(60):
        polys = [
            RP([(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 5))])
            for _ in range(rng.randint(2, 3))
        ]
        lifting = tuple(
            (F(rng.randint(0, 3)), F(rng.randint(0, 3), rng.choice((1, 2)))) for _ in polys
        )
        face_sets = [
            [(0, (v,)) for v in p.vertices] + [(1, e) for e in p.edges()]
            + ([(2, p.vertices)] if p.dim() == 2 else [])
            for p in polys
        ]
        for combo in itertools.product(*face_sets):
            if sum(d for d, _ in combo) != 2:
                continue
            faces = [f for _, f in combo]
            got = _touching(polys, lifting, faces)
            margin = _touching_margin_lp(polys, lifting, faces)
            if got == NO and margin is not None:
                piece = functools.reduce(minkowski_sum, [RP(f) for f in faces])
                assert volume_exact(piece) == 0, (faces, lifting)
                seen["no area"] += 1
            else:
                expected = NO if margin is None else YES_TIE if margin == 0 else YES_STRICT
                assert got == expected, (faces, lifting)
                seen[{NO: "none", YES_TIE: "zero", YES_STRICT: "positive"}[got]] += 1
    assert min(seen[k] for k in ("no area", "none", "zero", "positive")) >= 10, seen


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


def test_mv_for_graph_refuses_an_unknown_form():
    with pytest.raises(InputError, match=r"^unknown system form 'x'$"):
        mv_for_graph(framework_for(triangle()), "x")
    with pytest.raises(InputError, match=r"^unknown system form \['soe'\]$"):
        mv_for_graph(framework_for(triangle()), ["soe"])


def _degree2_graph(n, seed=0):
    return henneberg_apply(random_henneberg_sequence(n, seed=seed))


def _graphs_with_repeated_blocks():
    """The catalog up to n = 7, and for n = 6..12 one degree-2-built graph
    and one built with a degree-3 step. The latter is the first seed whose
    blocks have at most 9 coordinates: a larger block takes seconds."""
    out = [g for n in range(3, 8) for g in all_laman_graphs(n)]
    for n in range(6, 13):
        out.append(_degree2_graph(n, seed=n))
        for seed in itertools.count():
            seq = random_henneberg_sequence(n, seed=seed, step2_probability=0.2)
            if not any(isinstance(step, StepII) for step in seq.steps):
                continue
            g = henneberg_apply(seq)
            blocks = separation_split(supports(build_subsoe(framework_for(g))))
            if max(len(b.coordinates) for b in blocks) <= 9:
                out.append(g)
                break
    return out


def test_each_block_result_matches_a_fresh_solve():
    # mv_for_graph solves identical blocks once; every block must still get
    # what a search (or the oracle) on its own polytopes gives.
    repeated = 0
    for g in _graphs_with_repeated_blocks():
        fw = framework_for(g)
        blocks = separation_split(supports(build_subsoe(fw)))
        res = mv_for_graph(fw, FORM_SUBSOE, seed=0)
        assert [b.coordinates for b in res.blocks] == [b.coordinates for b in blocks]
        for got, blk in zip(res.blocks, blocks):
            fresh = mixed_volume(blk.projected, seed=0)
            assert (got.value, got.cells, got.seed_used) == (
                fresh.value, fresh.cells, fresh.lifting_seed)
        assert res.cells == tuple(c for b in res.blocks for c in b.cells)
        repeated += len(blocks) - len({tuple(p.vertices for p in b.projected) for b in blocks})
        if max(len(b.coordinates) for b in blocks) <= 6:
            oracle = mv_for_graph(fw, FORM_SUBSOE, oracle=True)
            assert [b.value for b in oracle.blocks] == [
                mv_inclusion_exclusion(blk.projected) for blk in blocks]
    assert repeated > 500


@pytest.mark.parametrize("graph, blocks, searches", [
    (lambda: _degree2_graph(12), 16, 2),
    (k33_graph, 7, 2),
    (desargues_graph, 8, 3),
], ids=["degree2_n12", "k33", "prism"])
def test_each_distinct_block_is_searched_once(monkeypatch, graph, blocks, searches):
    # A degree-2-built graph's blocks are six copies of one segment and
    # n - 2 copies of one 3-dim triple.
    calls = []
    search = mixedvol.enumerate_mixed_cells

    def count(polys, lifting, deadline=None, bound=None):
        calls.append(polys)
        return search(polys, lifting, deadline, bound)

    monkeypatch.setattr(mixedvol, "enumerate_mixed_cells", count)
    res = mv_for_graph(framework_for(graph()), FORM_SUBSOE, seed=0)
    assert (len(res.blocks), len(calls)) == (blocks, searches)


def test_blocks_alike_in_part_are_solved_apart():
    # Six polynomials in x0..x5, given by their exponents (coefficients 1):
    # blocks {0} and {1} share a dimension, blocks {2, 3} and {4, 5} also
    # their first polytope, and each needs its own solve.
    supports = [
        [(0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)],
        [(0, 0, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0)],
        [(0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)],
        [(0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)],
        [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)],
        [(0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 2, 0), (0, 0, 0, 0, 0, 2)],
    ]
    system = PolySystem(tuple(f"x{i}" for i in range(6)),
                        tuple(Polynomial.make(6, dict.fromkeys(map(sparse, e), 1)) for e in supports))
    expected = {(0,): 1, (1,): 2, (2, 3): 1, (4, 5): 2}
    for oracle in (False, True):
        res = mixedvol._mv_for_system(system, seed=0, oracle=oracle)
        assert {b.polytope_indices: b.value for b in res.blocks} == expected
        assert res.value == 4


@pytest.mark.parametrize("oracle, solver", [
    (False, "mixed_volume"),
    (True, "mv_inclusion_exclusion"),
], ids=["enumeration", "oracle"])
def test_deadline_checked_before_each_block(monkeypatch, oracle, solver):
    # The first block's solve outlasts the deadline and the next five
    # blocks repeat it, so no solver runs there to check the deadline: the
    # block loop must stop before the second block.
    system = build_subsoe(framework_for(_degree2_graph(6)))
    deadline = time.monotonic() + 0.5
    calls = []
    solve = getattr(mixedvol, solver)

    def slow(*args, **kwargs):
        calls.append(args[0])
        out = solve(*args, **kwargs)
        time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
        return out

    monkeypatch.setattr(mixedvol, solver, slow)
    with pytest.raises(CapabilityError):
        mixedvol._mv_for_system(system, seed=0, oracle=oracle, deadline=deadline)
    assert len(calls) == 1


def test_hulls_check_deadline_before_each_polytope(monkeypatch):
    # Simplex hulls compute no facets, so `from_points` alone would never
    # see the deadline: the Newton polytopes check it before each hull.
    built = []
    from_points = RationalPolytope.from_points

    def counting(*args, **kwargs):
        built.append(args[0])
        return from_points(*args, **kwargs)

    monkeypatch.setattr(RationalPolytope, "from_points", staticmethod(counting))
    fw = framework_for(k33_graph())
    for form in (FORM_SOE, FORM_SUBSOE):
        with pytest.raises(CapabilityError):
            mv_for_graph(fw, form, seed=0, deadline=time.monotonic() - 1)
    assert built == []


def _count_hulls(monkeypatch):
    """The point sets handed to `RationalPolytope.from_points` from now on."""
    built = []
    from_points = RationalPolytope.from_points

    def counting(*args, **kwargs):
        built.append(args[0])
        return from_points(*args, **kwargs)

    monkeypatch.setattr(RationalPolytope, "from_points", staticmethod(counting))
    return built


def test_separation_checks_deadline_before_each_projection(monkeypatch):
    polys = supports(build_subsoe(framework_for(k33_graph())))
    built = _count_hulls(monkeypatch)
    with pytest.raises(CapabilityError):
        separation_split(polys, deadline=time.monotonic() - 1)
    assert built == []
    assert len(separation_split(polys)) > 1 and built


def test_report_hulls_each_distinct_block_once(monkeypatch):
    # A degree-2-built graph's substituted system splits into n + 4 blocks
    # of only two kinds, so a report builds three hulls whatever n is: one
    # segment, the edge equations' 3-dim projection and the circle's.
    hulls = {}
    for n in (8, 12):
        fw = framework_for(_degree2_graph(n))
        built = _count_hulls(monkeypatch)
        assert reporting.build_report(fw)["mv_subsoe"]["value"] == 2 ** (n - 2)
        hulls[n] = len(built)
        blocks = separation_split(supports(build_subsoe(fw)))
        assert len(built) - hulls[n] == len({id(p) for b in blocks for p in b.projected})
    assert hulls[8] == hulls[12] == 3, hulls


def test_split_hulls_raw_supports_and_refuses_malformed_ones():
    for g in (g for n in range(3, 7) for g in all_laman_graphs(n)):
        for build in (build_soe, build_subsoe):
            raw = separation_split(supports(build(framework_for(g))))
            assert all(p._cache.get("hull") for b in raw for p in b.projected)
    # Both polynomials live on x0 alone: no perfect matching, one block,
    # and the non-vertex point (1, 0) of the first support is reduced away.
    system = PolySystem(("x0", "x1"), (
        Polynomial.make(2, {(): 1, ((0, 1),): 1, ((0, 2),): 1}),
        Polynomial.make(2, {(): 1, ((0, 1),): 1}),
    ))
    (block,) = separation_split(supports(system))
    assert (block.polytope_indices, block.coordinates) == ((0, 1), (0, 1))
    assert [p.vertices for p in block.projected] == [((0, 0), (2, 0)), ((0, 0), (1, 0))]
    with pytest.raises(InputError):
        separation_split(supports(system)[:1] + [[]])
    # Sparse supports name no dimension: a coordinate off the polytope
    # count and a system with more variables than polynomials are refused.
    for polys in ([[((1, 1),)]], [[((-1, 1),)]]):
        with pytest.raises(InputError, match="one polytope per dimension"):
            separation_split(polys)
    with pytest.raises(InputError, match="one polytope per dimension"):
        mixedvol._mv_for_system(PolySystem(system.variables, system.polys[:1]))


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
    return polys, tuple(vectors)


def _primitive(coeffs, rhs):
    """The half-space <coeffs, x> >= rhs as (coprime int direction, bound)."""
    den = math.lcm(*(x.denominator for x in coeffs))
    ints = [int(x * den) for x in coeffs]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints), rhs * den / g


def _check_one_row_per_direction(enum, chosen, path, active):
    """The carried rows are the tightest reduced off-edge row of each direction.

    Every off-edge row of the chosen edges is reduced here over Fractions
    against each pivot of the path, in the coordinates of its depth, and
    loses that pivot's column, so it compares on the k - depth free
    columns. Returns how many rows a tighter parallel row made redundant.
    """
    free = enum.k - len(path)
    tightest, total = {}, 0
    for i, idx in chosen:
        a, b = enum.edge_ids[i][idx]
        pts = mixedvol._lifted(enum.polys[i].vertices, enum.lifting[i])[0]
        for u, pt in enumerate(pts):
            if u in (a, b):
                continue
            r = [F(x - y) for x, y in zip(pts[a], pt)]
            for c, p, _ in path:
                f = r[c] / p[c]
                r = [x - f * y for x, y in zip(r, p)]
                assert r.pop(c) == 0
            if any(r[:free]):
                total += 1
                key, bound = _primitive(r[:free], r[free])
                tightest[key] = max(bound, tightest.get(key, bound))
    assert {key: F(r[free], g) for key, (g, r) in active.items()} == tightest
    assert all(list(r[:free]) == [g * x for x in key] for key, (g, r) in active.items())
    assert all(len(r) == free + 1 for _, r in active.values())
    return total - len(tightest)


def _count_pair_prunes(monkeypatch, counts):
    """Count LPs, infeasible LPs and exact Farkas checks; pair prunes are the checks no LP made."""
    real_verify, real_feasible = linprog.verify_farkas, linprog.feasible

    def verify(rows, nvars, y):
        counts["verified"] += 1
        return real_verify(rows, nvars, y)

    def lp(rows, nvars):
        out = real_feasible(rows, nvars)
        counts["lps"] += 1
        counts["infeasible"] += out.status == linprog.INFEASIBLE
        return out

    monkeypatch.setattr(linprog, "verify_farkas", verify)
    monkeypatch.setattr(linprog, "feasible", lp)


def test_search_matches_reference_enumerator(monkeypatch):
    # Each node of the search is also checked to carry one row per
    # direction, the tightest; both the dedupe and the pair prune must
    # occur, so the comparison exercises them.
    counts = Counter()
    real_branch = mixedvol._Enumerator._branch

    def branch(self, chosen, path, active):
        if chosen:
            counts["dedupe"] += _check_one_row_per_direction(self, chosen, path, active)
        return real_branch(self, chosen, path, active)

    monkeypatch.setattr(mixedvol._Enumerator, "_branch", branch)
    _count_pair_prunes(monkeypatch, counts)
    rng = random.Random(20)
    kinds = {"cells": 0, "ties": 0}
    for _ in range(300):
        polys, lifting = _random_search_instance(rng)
        got = _search_outcome(enumerate_mixed_cells, polys, lifting)
        assert got == _search_outcome(reference_enumerate_mixed_cells, polys, lifting)
        verdict = YES_STRICT if got[0] == "cells" else YES_TIE
        assert all(is_mixed_cell(rec.cell, polys, lifting) == verdict for rec in got[1])
        kinds[got[0]] += bool(got[1])
    assert kinds["cells"] >= 100 and kinds["ties"] >= 30
    pair_prunes = counts["verified"] - counts["infeasible"]
    assert counts["dedupe"] > 0 and pair_prunes > 0, counts


def _direction(row):
    """A row of ints or Fractions up to a positive factor: primitive ints, or zeros."""
    ints = [x * math.lcm(*(F(y).denominator for y in row)) for x in row]
    g = math.gcd(*map(int, ints)) or 1
    return tuple(int(x) // g for x in ints)


def test_shared_tables_match_a_fresh_reduction(monkeypatch):
    # The child for edge (a, b) reads row a of its node's table: for each
    # other point u in increasing order, (u, s, row) with s * row point a
    # minus point u, its node's parent's reduced by the node's one pivot,
    # each pair stored once and shared with row u under the opposite
    # sign. Each s * row must match, up to a positive factor, the lifted
    # point difference reduced over Fractions against each compact pivot
    # of the node's path, that pivot's column then deleted: on random
    # draws, repeats and ties included, and on the deep substituted
    # blocks of K33 and the prism, at every depth.
    checked = Counter()
    real_descend = mixedvol._Enumerator._descend

    def descend(self, chosen, a, b, table, path, active):
        poly = chosen[-1][0]
        pts = mixedvol._lifted(self.polys[poly].vertices, self.lifting[poly])[0]
        assert [u for u, _, _ in table[a]] == [u for u in range(len(pts)) if u != a]
        for u, s, row in table[a]:
            assert s == (1 if a < u else -1)
            assert next((t, r) for w, t, r in table[u] if w == a) == (-s, row)
            assert next(r for w, _, r in table[u] if w == a) is row
            r = [F(x - y) for x, y in zip(pts[a], pts[u])]
            for c, p, _ in path:
                f = r[c] / p[c]
                r = [x - f * y for x, y in zip(r, p)]
                del r[c]
            assert len(row) == len(r) == self.k - len(path) + 1
            assert _direction([s * x for x in row]) == _direction(r), (chosen, a, u)
        checked[len(path)] += 1
        return real_descend(self, chosen, a, b, table, path, active)

    monkeypatch.setattr(mixedvol._Enumerator, "_descend", descend)
    rng = random.Random(29)
    for _ in range(100):
        _search_outcome(enumerate_mixed_cells, *_random_search_instance(rng))
    assert set(checked) == set(range(5)), checked
    for graph, dim in ((k33_graph, 12), (desargues_graph, 9)):
        checked.clear()
        mixed_volume(_subsoe_block(graph(), dim).projected, seed=0)
        assert set(checked) == set(range(dim)), checked


@st.composite
def _child_of_a_node(draw):
    """A node's carried rows as the search holds them and a child's pivot row.

    The pivot row v (coeffs..., rhs) is zero before its pivot column col
    and positive there. The carried rows, direction -> (g, row), are
    random or parallel to v's coefficients, so that many of them are
    fully determined once v eliminates them.
    """
    k = draw(st.integers(1, 4))
    col = draw(st.integers(0, k - 1))
    ints = st.integers(-4, 4)
    v = [0] * col + [draw(st.integers(1, 4))] + draw(st.lists(ints, min_size=k - col, max_size=k - col))
    active = {}
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            c = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
            coeffs = [c * x for x in v[:k]]
        else:
            coeffs = draw(st.lists(ints, min_size=k, max_size=k))
        if g := math.gcd(*coeffs):
            active[tuple(x // g for x in coeffs)] = g, [*coeffs, draw(ints)]
    return v, col, active


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_child_of_a_node())
def test_child_dies_exactly_on_a_violated_determined_row(child):
    # A child with no fresh rows: it must end without a descendant and
    # without a cell exactly when eliminating some carried row by its
    # pivot row leaves zero coefficients and a positive rhs. A zero rhs
    # does not end it: the leaf check reports that margin.
    v, col, active = child
    k = len(v) - 1
    determined = []
    for _, r in active.values():
        e = [v[col] * x - r[col] * y for x, y in zip(r, v)]
        if not any(e[:k]):
            determined.append(e[k])
    enum = object.__new__(mixedvol._Enumerator)
    enum.deadline = None
    reached = []
    enum._finish = lambda chosen: reached.append(chosen)
    enum._branch = lambda chosen, path, rows: reached.append(chosen)
    enum._prunable = lambda rows, n: False
    enum._descend((), 0, 1, [[(1, 1, v)], [(0, -1, v)]], (), active)
    dies = any(b > 0 for b in determined)
    event(f"dies: {dies}, zero margin: {not dies and 0 in determined}")
    assert reached == ([] if dies else [()])


def _subsoe_block(graph, dim):
    """The block of that dimension of the graph's substituted system."""
    system = build_subsoe(framework_for(graph))
    return next(b for b in separation_split(supports(system)) if len(b.coordinates) == dim)


def _n7_graph():
    """The n=7 graph of minimum degree 3; its substituted system has a 12-dim block."""
    return henneberg_apply(random_henneberg_sequence(7, seed=4, step2_probability=0.9))


def _count_ray_points(monkeypatch, counts):
    """Count the nodes that `_ray_point` keeps without an LP."""
    real_ray = mixedvol._ray_point

    def ray(rows, d, k):
        point = real_ray(rows, d, k)
        counts["rays"] += point is not None
        return point

    monkeypatch.setattr(mixedvol, "_ray_point", ray)


@pytest.mark.parametrize("graph, dim, lps, infeasible, pairs, rays, digest", [
    (k33_graph, 12, 129, 50, 470, 559,
     "6fe7d9e71e27ef49a095fe8c7f4455162d0a3ab8d0e750916d9cb6c32dbda4df"),
    (desargues_graph, 9, 137, 44, 417, 397,
     "556c2b5c9d8e2874b777f35e72601cb2dda70888da84765427675db38df5e670"),
], ids=["k33", "prism"])
def test_search_lps_are_pinned(monkeypatch, graph, dim, lps, infeasible, pairs, rays, digest):
    # Every pruning LP of the deep substituted blocks of K33 and the prism
    # at lifting seed 0, as the search hands it to linprog.feasible, the
    # number of nodes pruned on an opposite pair of rows without an LP
    # and the number kept on a ray point without an LP: a change to the
    # search's elimination or to the ray's verdict shows up in these.
    block = _subsoe_block(graph(), dim)
    recorded, counts = [], Counter()
    _count_pair_prunes(monkeypatch, counts)
    _count_ray_points(monkeypatch, counts)
    real_feasible = linprog.feasible

    def record(rows, nvars):
        recorded.append((tuple(map(tuple, rows)), nvars))
        return real_feasible(rows, nvars)

    monkeypatch.setattr(linprog, "feasible", record)
    res = mixed_volume(block.projected, seed=0)
    monkeypatch.undo()
    assert res.lifting_seed == 0 and len(res.cells) == 4
    assert (counts["lps"], counts["infeasible"]) == (lps, infeasible)
    assert counts["verified"] - counts["infeasible"] == pairs
    assert counts["rays"] == rays
    assert hashlib.sha256(repr(recorded).encode()).hexdigest() == digest


def _row_systems():
    """Small int systems as the search holds them: direction -> (g, row), rows (coeffs..., rhs)."""
    def build(k, raw):
        rows = {}
        for *coeffs, rhs in raw:
            g = math.gcd(*coeffs)
            if g:
                rows[tuple(x // g for x in coeffs)] = g, (*coeffs, rhs)
        return k, rows

    return st.integers(1, 4).flatmap(lambda k: st.builds(
        build, st.just(k),
        st.lists(st.lists(st.integers(-4, 4), min_size=k + 1, max_size=k + 1), max_size=8),
    ))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_row_systems())
def test_ray_point_satisfies_every_row(system):
    # The ray only ever answers "feasible": its point must satisfy every
    # row exactly, and the LP must agree.
    k, rows = system
    violated = [key for key, (_, r) in rows.items() if r[k] > 0]
    point = mixedvol._ray_point(rows, [sum(c) for c in zip(*violated, [0] * k)], k)
    event(f"violated rows: {bool(violated)}, ray point: {point is not None}")
    if point is not None:
        x, q = point
        assert q > 0 and len(x) == k
        assert all(sum(map(mul, r, x)) >= r[k] * q for _, r in rows.values())
        assert feasible([r for _, r in rows.values()], k).status == linprog.FEASIBLE


def test_ray_point_finds_and_refuses():
    # x >= 1 and y >= 1 meet on the ray through (1, 1); adding x + y <= 1
    # leaves no point anywhere, and x + y <= 2 only t = 1 on that ray.
    rows = {(1, 0): (1, (1, 0, 1)), (0, 1): (1, (0, 1, 1))}
    d = [1, 1]
    assert mixedvol._ray_point(rows, d, 2) == ([1, 1], 1)
    assert mixedvol._ray_point({**rows, (-1, -1): (1, (-1, -1, -1))}, d, 2) is None
    assert mixedvol._ray_point({**rows, (-1, -1): (1, (-1, -1, -2))}, d, 2) == ([1, 1], 1)
    # With x >= y + 3 as well the system is still feasible, at (4, 1),
    # but not on the ray through (2, 0), the sum of the three directions:
    # that node goes to the LP.
    rows[(1, -1)] = 1, (1, -1, 3)
    assert mixedvol._ray_point(rows, [2, 0], 2) is None
    assert feasible([r for _, r in rows.values()], 2).status == linprog.FEASIBLE


DEEP_BLOCKS = [(k33_graph, 12, 32), (desargues_graph, 9, 16), (_n7_graph, 12, 32)]


@pytest.mark.parametrize("graph, dim, value", DEEP_BLOCKS, ids=["k33", "prism", "n7"])
def test_ray_loses_no_prune(monkeypatch, graph, dim, value):
    # With every violated node sent to the LP instead, each of lifting
    # seeds 0-2 visits the same nodes, prunes the same ones and finds the
    # same cells.
    block = _subsoe_block(graph(), dim)
    counts = Counter()
    real_descend, real_prunable = mixedvol._Enumerator._descend, mixedvol._Enumerator._prunable

    def descend(self, *args):
        counts[label, "nodes"] += 1
        return real_descend(self, *args)

    def prunable(self, pivots, rows):
        pruned = real_prunable(self, pivots, rows)
        counts[label, "pruned"] += pruned
        return pruned

    monkeypatch.setattr(mixedvol._Enumerator, "_descend", descend)
    monkeypatch.setattr(mixedvol._Enumerator, "_prunable", prunable)
    cells = {}
    for label in ("ray", "lp"):
        if label == "lp":
            monkeypatch.setattr(mixedvol, "_ray_point", lambda rows, d, k: None)
        cells[label] = [mixed_volume(block.projected, seed=seed).cells for seed in range(3)]
    assert cells["ray"] == cells["lp"]
    assert all(sum(abs(r.det) for r in c) == value for c in cells["ray"])
    for what in ("nodes", "pruned"):
        assert counts["ray", what] == counts["lp", what] > 0, counts


@pytest.mark.parametrize("graph, dim, value", DEEP_BLOCKS, ids=["k33", "prism", "n7"])
def test_deep_block_agrees_across_lifting_seeds(graph, dim, value):
    # The inclusion-exclusion oracle stops at dimension 6, so the deep
    # substituted blocks are checked against other liftings: each seed
    # gives its own cells and must give the same value.
    block = _subsoe_block(graph(), dim)
    cell_sets = set()
    for seed in range(3):
        res = mixed_volume(block.projected, seed=seed)
        assert res.lifting_seed == seed and res.value == value
        cell_sets.add(tuple(r.cell for r in res.cells))
    assert len(cell_sets) > 1


def _laman_pinnings(max_n):
    """Every Laman graph with 3 <= n <= max_n up to isomorphism, once pinned at each edge.

    Each comes relabelled so that its pinned edge is (1, 2).
    """
    for n in range(3, max_n + 1):
        for g in all_laman_graphs(n):
            for base in sorted(g.edges):
                yield relabel_with_base(g, base)[0]


def _two_in_orientations(g):
    """Orientations of the edges but (1, 2) giving vertices 3..n two in-edges each, by brute force."""
    edges = sorted(g.edges - {(1, 2)})
    want = Counter(dict.fromkeys(range(3, g.n + 1), 2))
    return sum(Counter(e[head] for e, head in zip(edges, heads)) == want
               for heads in itertools.product((0, 1), repeat=len(edges)))


def _block_bounds(system):
    """The multihomogeneous Bezout count of each coordinate block, in block order."""
    return [block_bezout(system, blk.coordinates, [p.vertices for p in blk.projected])
            for blk in separation_split(supports(system))]


def test_block_bounds_count_two_in_orientations():
    # Bartzos, Emiris & Schicho (2020): over the per-vertex partition the
    # substituted system's Bezout number is 2^(n-2) times the number of
    # two-in orientations, here the product over its coordinate blocks.
    graphs = list(_laman_pinnings(6))
    assert len(graphs) == 146
    for g in graphs:
        bounds = _block_bounds(build_subsoe(framework_for(g)))
        assert math.prod(bounds) == 2 ** (g.n - 2) * _two_in_orientations(g), sorted(g.edges)


def _unbounded(monkeypatch):
    """Make `_mv_for_system` drop the bound it passes; returns the bounds it passed."""
    passed = []
    solve = mixedvol.mixed_volume

    def without_bound(polys, seed, deadline, bound):
        passed.append(bound)
        return solve(polys, seed=seed, deadline=deadline)

    monkeypatch.setattr(mixedvol, "mixed_volume", without_bound)
    return passed


def test_bounded_search_returns_the_full_search(monkeypatch):
    # At every pinning with n <= 6, in both forms, the stop changes
    # neither the value nor the cells nor the lifting seed, and every
    # searched block's value stays within its bound.
    graphs = list(_laman_pinnings(6))
    bounded = {}
    for form, g in itertools.product((FORM_SOE, FORM_SUBSOE), graphs):
        bounded[form, g] = mv_for_graph(framework_for(g), form, seed=0)
    passed = _unbounded(monkeypatch)
    for (form, g), res in bounded.items():
        start = len(passed)
        full = mv_for_graph(framework_for(g), form, seed=0)
        assert (res.value, res.cells, res.blocks) == (full.value, full.cells, full.blocks)
        distinct = {tuple(b.cells): b.value for b in full.blocks}
        assert len(passed) - start == len(distinct)
        assert all(v <= bound for v, bound in zip(distinct.values(), passed[start:]))


def _count_nodes(monkeypatch):
    """`_descend` calls per search from now on: a new search appends a 0."""
    nodes = []
    descend = mixedvol._Enumerator._descend
    init = mixedvol._Enumerator.__init__

    def starting(self, *args, **kwargs):
        nodes.append(0)
        init(self, *args, **kwargs)

    def counting(self, *args):
        nodes[-1] += 1
        return descend(self, *args)

    monkeypatch.setattr(mixedvol._Enumerator, "__init__", starting)
    monkeypatch.setattr(mixedvol._Enumerator, "_descend", counting)
    return nodes


@pytest.mark.parametrize("graph, dim, value, nodes", [
    (k33_graph, 12, 32, [3475, 4109]),
    (desargues_graph, 9, 16, [2065, 3265]),
], ids=["k33", "prism"])
def test_bounded_search_stops_at_the_last_cell(monkeypatch, graph, dim, value, nodes):
    # At lifting seed 0 the deep block's cells reach its Bezout count
    # before the search ends: stopped there, it visits fewer nodes.
    system = build_subsoe(framework_for(graph()))
    block = next(b for b in separation_split(supports(system)) if len(b.coordinates) == dim)
    bound = block_bezout(system, block.coordinates, [p.vertices for p in block.projected])
    assert bound == value
    counted = _count_nodes(monkeypatch)
    results = [mixed_volume(block.projected, seed=0, bound=b) for b in (bound, None)]
    assert counted == nodes
    assert results[0] == results[1] and results[0].value == value


def test_a_count_below_the_cells_raises(monkeypatch):
    # K33's 12-dim block has cells of |det| sum 32; a count of 31 is a bug.
    count = polysys.block_bezout

    def one_below(system, coords, point_sets, deadline=None):
        return count(system, coords, point_sets, deadline) - (len(coords) == 12)

    monkeypatch.setattr(polysys, "block_bezout", one_below)
    with pytest.raises(InternalError, match="exceed the Bezout bound"):
        mv_for_graph(framework_for(k33_graph()), FORM_SUBSOE, seed=0)


def test_a_bound_above_the_mixed_volume_runs_the_whole_search(monkeypatch):
    # Two unit triangles: count 2 with the parts {x}, {y}, mixed area 1.
    tri = RP([(0, 0), (1, 0), (0, 1)])
    counted = _count_nodes(monkeypatch)
    results = [mixed_volume([tri, tri], seed=0, bound=b) for b in (2, None)]
    assert results[0] == results[1] and results[0].value == 1
    assert counted[0] == counted[1] > 0


def test_gap_case_bound_is_above_its_mixed_volume():
    # Pinned at its gap edge, this degree-2-built n = 7 graph has one
    # 15-dim block whose count, 192, its mixed volume 176 never meets
    # (CI runs the whole search), so no stop can cut it short.
    g = Graph.make(7, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (3, 7), (4, 6), (4, 7),
                       (5, 6), (5, 7), (6, 7)])
    system = build_subsoe(framework_for(g))
    bounds = {len(b.coordinates): bound
              for b, bound in zip(separation_split(supports(system)), _block_bounds(system))}
    assert bounds == {1: 1, 15: 192}
    assert 2 ** 5 * _two_in_orientations(g) == 192


def _sheared(polys, seed):
    """The polytopes under a seeded unimodular map, then coordinates and polytopes shuffled.

    The map is unit upper triangular with two +-1 entries above the
    diagonal in each row that has room for them.
    """
    rng = random.Random(seed)
    k = len(polys)
    rows = []
    for i in range(k):
        row = [int(c == i) for c in range(k)]
        for c in rng.sample(range(i + 1, k), min(2, k - 1 - i)):
            row[c] = rng.choice((-1, 1))
        rows.append(row)
    perm = rng.sample(range(k), k)

    def image(v):
        w = [sum(map(mul, row, v)) for row in rows]
        return tuple(w[c] for c in perm)

    out = [RP([image(v) for v in p.vertices]) for p in polys]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("graph, dim, value", DEEP_BLOCKS, ids=["k33", "prism", "n7"])
def test_deep_block_value_survives_a_unimodular_map(graph, dim, value):
    # The mixed volume is invariant under unimodular maps and symmetric in
    # its polytopes; the sheared block leaves the orthant, so no bound
    # applies and the whole search runs on a new cell set.
    block = _subsoe_block(graph(), dim)
    res = mixed_volume(_sheared(block.projected, seed=dim), seed=0)
    assert res.value == value
    assert res.cells != mixed_volume(block.projected, seed=0).cells


def _swap_xy(system):
    """The substituted system with every x_i and y_i exchanged."""
    n = system.nvars // 3
    swap = [c ^ 1 if c < 2 * n else c for c in range(system.nvars)]
    polys = tuple(Polynomial.make(p.nvars, {tuple(sorted((swap[v], e) for v, e in m)): coeff
                                            for m, coeff in p.terms})
                  for p in system.polys)
    return PolySystem(system.variables, polys, form=system.form)


@pytest.mark.parametrize("graph", [k33_graph, desargues_graph], ids=["k33", "prism"])
def test_swapping_x_and_y_keeps_value_and_cell_counts(graph):
    system = build_subsoe(framework_for(graph()))
    swapped = _swap_xy(system)
    assert swapped != system
    res = mixedvol._mv_for_system(system, seed=0)
    out = mixedvol._mv_for_system(swapped, seed=0)
    assert out.value == res.value == 32
    assert ({b.polytope_indices: len(b.cells) for b in out.blocks}
            == {b.polytope_indices: len(b.cells) for b in res.blocks})


def test_tie_fixed_above_the_leaf_rejects_the_cell():
    # The triangles share the zero lifting, so two of their edges fix
    # alpha_x = alpha_y = 0 at depth 1 of 3 with the third triangle vertex
    # at zero margin. That row is then fully determined and leaves the
    # search; the segment to (0, 0, 1) fixes alpha_z at the leaf, where
    # the leaf check, which recomputes every margin, finds the tie.
    tri = RP([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    simplex = RP([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    zero = (F(0), F(0), F(0))
    polys = [tri, tri, simplex]
    lifting = (zero, zero, (F(3), F(7), F(11)))
    kind, ties = _search_outcome(enumerate_mixed_cells, polys, lifting)
    assert kind == "ties" and ties
    assert all(rec.cell[2] == ((0, 0, 0), (0, 0, 1)) for rec in ties)
    assert (kind, ties) == _search_outcome(reference_enumerate_mixed_cells, polys, lifting)


def test_leaf_takes_its_one_verdict_from_the_cell_criterion():
    # Every pair of edges of two unit triangles, as a leaf: a singular
    # edge matrix or a vertex below the functional (NO) raises, a tie is
    # recorded as one and a strict cell is kept, as `is_mixed_cell` says.
    tri = RP([(0, 0), (1, 0), (0, 1)])
    seen = Counter()
    for lifting in (((F(0), F(0)), (F(0), F(0))), random_lifting([tri, tri], 0)):
        enum = mixedvol._Enumerator([tri, tri], lifting)
        for i, j in itertools.product(range(3), repeat=2):
            cell = (tri.edges()[i], tri.edges()[j])
            verdict = is_mixed_cell(cell, [tri, tri], lifting)
            seen[verdict] += 1
            if verdict == NO:
                with pytest.raises(InternalError, match="direct criterion"):
                    enum._finish(((0, i), (1, j)))
                continue
            enum._finish(((0, i), (1, j)))
            kept = enum.cells if verdict == YES_STRICT else enum.ties
            assert kept[-1] == MixedCellRecord(cell, edge_matrix_det(cell), verdict == YES_STRICT)
    assert min(seen[v] for v in (NO, YES_TIE, YES_STRICT)) > 0, seen


def _fraction_leaf_check(cell, polys, lifting):
    """The leaf criterion with alpha from Fraction Gaussian elimination."""
    dirs = [tuple(map(sub, a, b)) for a, b in cell]
    alpha = mat_solve(dirs, [lifting_value(lifting, j, d) for j, d in enumerate(dirs)])
    if alpha is None:
        return NO
    verdict = YES_STRICT
    for j, poly in enumerate(polys):
        a, b = cell[j]
        for u in poly.vertices:
            if u not in (a, b):
                slack = lifting_value(lifting, j, u) - lifting_value(lifting, j, a) - sum(
                    x * (p - q) for x, p, q in zip(alpha, u, a)
                )
                if slack < 0:
                    return NO
                if slack == 0:
                    verdict = YES_TIE
    return verdict


def test_integer_det_and_leaf_check_match_fraction_reference():
    rng = random.Random(5)

    def rational():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    dets = []
    for trial in range(300):
        k = rng.randint(1, 5)
        dirs = [[rational() for _ in range(k)] for _ in range(k)]
        if trial % 3 == 0 and k > 1:  # a combination of the other rows: singular
            coeffs = [rational() for _ in dirs[:-1]]
            dirs[-1] = [sum(f * r[c] for f, r in zip(coeffs, dirs)) for c in range(k)]
        zero = (F(0),) * k
        cell = tuple((tuple(d), zero) for d in dirs)
        det = edge_matrix_det(cell)
        assert det == mat_det([list(col) for col in zip(*dirs)])
        dets.append(det)
    assert dets.count(0) >= 60 and len(set(dets)) > 100

    # Integer liftings, then liftings with mixed denominators, whose
    # lifted points carry scales E > 1 that differ between polytopes.
    for rational_lifting in (False, True):
        verdicts = []
        for trial in range(400):
            k = rng.randint(2, 4)
            polys = [
                RP({tuple(F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(k))
                    for _ in range(rng.randint(2, 5))})
                for _ in range(k)
            ]
            polys = [p if p.nvertices > 1 else RP([(F(0),) * k, (F(1),) * k]) for p in polys]
            edges = [rng.choice(p.edges()) for p in polys]
            if trial % 4 == 0:  # one edge twice: a singular edge matrix
                polys[1], edges[1] = polys[0], edges[0]
            lifting = tuple(
                tuple(F(rng.randint(0, 2), rng.randint(1, 3) if rational_lifting else 1)
                      for _ in range(k))
                for _ in polys
            )
            cell = tuple(edges)
            verdict = is_mixed_cell(cell, polys, lifting)
            assert verdict == _fraction_leaf_check(cell, polys, lifting)
            verdicts.append(verdict)
        assert min(verdicts.count(v) for v in (NO, YES_TIE, YES_STRICT)) >= 10


def test_strict_cell_on_raw_supports_chooses_edges():
    """A strict cell over raw supports makes each chosen pair the unique
    minimizer of mu_j - alpha over its support, hence an edge of its hull;
    this is what lets certify_general_bound skip the hulls."""
    strict = 0
    for dim, npoints, seeds in ((2, 6, range(10)), (3, 4, range(6)), (4, 3, range(6))):
        for seed in seeds:
            rng = random.Random(f"raw-support/{dim}/{seed}")
            supports = []
            for _ in range(dim):
                pts = set()
                while len(pts) < 2:
                    pts = {tuple(F(rng.randint(0, 2)) for _ in range(dim)) for _ in range(npoints)}
                supports.append(sorted(pts))
            raw = [RationalPolytope(dim, tuple(s)) for s in supports]
            hulls = [RP(s) for s in supports]
            lifting = random_lifting(raw, seed)
            for pairs in itertools.product(*(itertools.combinations(s, 2) for s in supports)):
                if is_mixed_cell(pairs, raw, lifting) == YES_STRICT:
                    strict += 1
                    assert all(is_edge(h, a, b) for h, (a, b) in zip(hulls, pairs))
    assert strict >= 40


def test_square_diagonal_is_never_a_strict_cell():
    # A linear functional minimized at both ends of a diagonal is minimized
    # at one of the other two corners too, so the answer is a tie or no.
    square = tuple((F(x), F(y)) for x in (0, 1) for y in (0, 1))
    raw = [RationalPolytope(2, square), RationalPolytope(2, square)]
    diagonals = [(square[0], square[3]), (square[1], square[2])]
    seen = Counter()
    for seed in range(20):
        lifting = random_lifting(raw, seed)
        for diagonal in diagonals:
            for other in itertools.combinations(square, 2):
                for edges in ((diagonal, other), (other, diagonal)):
                    status = is_mixed_cell(edges, raw, lifting)
                    assert status != YES_STRICT
                    seen[status] += 1
    assert seen[NO] > 0


def test_deadline_enforced(monkeypatch):
    fw = framework_for(k33_graph())
    with pytest.raises(CapabilityError):
        mv_for_graph(fw, FORM_SUBSOE, seed=0, deadline=time.monotonic() - 1)
    fw = framework_for(henneberg_apply(random_henneberg_sequence(4, seed=4)))
    with pytest.raises(CapabilityError):
        certify_general_bound(build_soe(fw), deadline=time.monotonic() - 1)
    # The caller builds the system and the certificate checks the deadline
    # before each support, so a build that outlasts the deadline stops the
    # certificate before it reads a support.
    deadline = time.monotonic() + 0.1
    soe = build_soe(fw)
    time.sleep(0.2)

    def support(*args):
        raise AssertionError("support read past the deadline")

    monkeypatch.setattr(Polynomial, "support", support)
    with pytest.raises(CapabilityError):
        certify_general_bound(soe, deadline=deadline)
    monkeypatch.undo()
    assert certify_general_bound(soe, deadline=time.monotonic() + 60).value == 16


def test_mismatched_multiplicities_rejected():
    P, Q = example_pair()
    with pytest.raises(InputError):
        mixed_volume([P, Q], multiplicities=[1], seed=0)
    with pytest.raises(InputError):
        mixed_volume([P, Q], multiplicities=[2, 2], seed=0)


def test_malformed_inputs_raise_input_error():
    T, S = step_triple()
    polys = [T, S, S]
    lifting = random_lifting(polys, 0)
    calls = [
        lambda: mixed_volume([]),
        lambda: enumerate_mixed_cells([], ()),
        lambda: is_mixed_cell((), [], ()),
        lambda: mv_inclusion_exclusion([]),
        lambda: enumerate_mixed_cells(polys, lifting[:2]),
        lambda: enumerate_mixed_cells(polys, (*lifting[:2], lifting[2][:2])),
        lambda: enumerate_mixed_cells([T, S, RP([(0, 0), (1, 0)])], lifting),
        lambda: is_mixed_cell(enumerate_mixed_cells(polys, lifting)[0].cell, polys, lifting[:2]),
    ]
    for call in calls:
        with pytest.raises(InputError):
            call()
