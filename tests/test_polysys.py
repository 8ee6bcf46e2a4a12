import hashlib
import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import reference_polysys
from conftest import framework_for
from reference_polysys import GR_I, GR_ONE, dense, sparse, witness_by_evaluation
from lamanmv import cli, polysys
from lamanmv.errors import CapabilityError, InputError
from lamanmv.graphs import (
    Framework,
    Graph,
    all_laman_graphs,
    default_base,
    desargues_graph,
    henneberg_apply,
    k33_graph,
    random_henneberg_sequence,
    relabel_with_base,
    triangle,
)
from lamanmv.polysys import (
    FORM_SOE,
    FORM_SUBSOE,
    Polynomial,
    PolySystem,
    bezout,
    block_bezout,
    build_soe,
    build_subsoe,
    multihomogeneous_bezout,
    newton_polytopes,
    supports,
    variable_parts,
    witness_check,
)
from lamanmv.mixedvol import separation_split


def triangle_framework():
    return Framework.make(triangle(), {(1, 2): 3, (1, 3): 4, (2, 3): 5})


def test_soe_shape_and_pinning():
    soe = build_soe(triangle_framework())
    assert soe.form == FORM_SOE
    assert len(soe.polys) == 6
    assert soe.variables == ("x1", "y1", "x2", "y2", "x3", "y3")
    # h1 = x1 - c1, h2 = y1 - 2, h3 = x2 - (l12 - c1), h4 = y2 - 3, with c1 = 1
    assert [p.coefficient(()) for p in soe.polys[:4]] == [-1, -2, -(3 - 1), -3]


def test_soe_edge_polynomial_expansion():
    soe = build_soe(triangle_framework())
    h5 = soe.polys[4]
    # (x1-x3)^2 + (y1-y3)^2 - 16 in the in-edge ordering
    assert h5.coefficient(((0, 2),)) == 1  # x1^2
    assert h5.coefficient(((4, 2),)) == 1  # x3^2
    assert h5.coefficient(((0, 1), (4, 1))) == -2  # x1 x3
    assert h5.coefficient(()) == -16


def test_soe_counts_on_any_laman_graph():
    seq = random_henneberg_sequence(6, seed=2, step2_probability=0.5)
    fw = framework_for(henneberg_apply(seq))
    soe = build_soe(fw)
    n = fw.graph.n
    assert len(soe.polys) == 2 * n
    assert sum(1 for p in soe.polys if p.total_degree() == 2) == 2 * n - 4


def test_soe_desargues_degrees():
    soe = build_soe(framework_for(desargues_graph()))
    assert tuple(p.total_degree() for p in soe.polys) == (1,) * 4 + (2,) * 8


@st.composite
def relabelled_frameworks(draw):
    """A catalog graph under a random relabelling, with random positive
    lengths. Half the draws put a non-edge at labels 1 and 2, so the
    builders must choose another edge to pin."""
    g = draw(st.sampled_from(all_laman_graphs(draw(st.integers(4, 6)))))
    order = draw(st.permutations(range(1, g.n + 1)))
    if draw(st.booleans()):
        non_edges = sorted(set(itertools.combinations(range(1, g.n + 1), 2)) - g.edges)
        a, b = draw(st.sampled_from(non_edges))
        order = [a, b] + [v for v in order if v not in (a, b)]
    h = g.relabel({old: new for new, old in enumerate(order, start=1)})
    length = st.fractions(min_value=F(1, 4), max_value=6, max_denominator=4)
    return Framework.make(h, {e: draw(length) for e in sorted(h.edges)})


@settings(max_examples=80, deadline=None)
@given(relabelled_frameworks())
def test_builders_pin_the_default_base_edge(fw):
    _, mapping = relabel_with_base(fw.graph, default_base(fw.graph))
    pinned = fw.relabel(mapping)
    assert build_soe(fw) == build_soe(pinned)
    assert build_subsoe(fw) == build_subsoe(pinned)


BUILDER_DIGEST = "87331218a6a480ada409101d91ad211eedd06a75881d2eb247100665973d8cc9"


def test_builders_match_the_recorded_digest():
    # Every catalog graph with n <= 7, a graph without the edge (1,2) and
    # one with l12 = 1, which pins vertex 1 at x = 2: both systems' variables,
    # forms and terms must hash to what the builders gave when recorded.
    fws = [framework_for(g) for n in range(2, 8) for g in all_laman_graphs(n)]
    off_base = Graph.make(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert default_base(off_base) != (1, 2)
    fws += [framework_for(off_base), framework_for(k33_graph(), start=1)]
    digest = hashlib.sha256()
    for fw in fws:
        for build in (build_soe, build_subsoe):
            s = build(fw)
            digest.update(repr((s.variables, s.form, [p.terms for p in s.polys])).encode())
    assert digest.hexdigest() == BUILDER_DIGEST


def test_subsoe_shape():
    sub = build_subsoe(triangle_framework())
    assert sub.form == FORM_SUBSOE
    assert len(sub.polys) == 9
    assert len(sub.variables) == 9


def test_subsoe_edge_polynomial_support():
    sub = build_subsoe(triangle_framework())
    edge13 = sub.polys[4]
    support = set(edge13.support())
    # s1 + s3 - 2 x1 x3 - 2 y1 y3 - l^2
    assert ((6, 1),) in support  # s1
    assert ((8, 1),) in support  # s3
    assert ((0, 1), (4, 1)) in support  # x1 x3
    assert ((1, 1), (5, 1)) in support  # y1 y3
    assert () in support  # constant
    assert len(support) == 5


def test_subsoe_circle_polynomial_no_constant():
    sub = build_subsoe(triangle_framework())
    circle3 = sub.polys[-1]
    support = set(circle3.support())
    assert support == {((8, 1),), ((4, 2),), ((5, 2),)}  # s3, x3^2, y3^2


def test_zero_in_every_newton_polytope_except_circles():
    fw = framework_for(k33_graph())
    n = fw.graph.n
    soe = build_soe(fw)
    for p in soe.polys:
        assert () in p.support()
    sub = build_subsoe(fw)
    for i, p in enumerate(sub.polys):
        has_zero = () in p.support()
        is_circle = i >= len(sub.polys) - n
        assert has_zero != is_circle


def test_ordering_invariant_for_certificate():
    for seed in (0, 1):
        seq = random_henneberg_sequence(6, seed=seed, step2_probability=0.5)
        fw = framework_for(henneberg_apply(seq))
        soe = build_soe(fw)
        n = fw.graph.n
        for i in range(3, n + 1):
            for col in (2 * i - 2, 2 * i - 1):  # 0-based x_i, y_i
                assert soe.polys[col].coefficient(((col, 2),)) != 0


def test_newton_polytopes_vertex_reduction():
    soe = build_soe(triangle_framework())
    nps = newton_polytopes(soe)
    assert [p.nvertices for p in nps] == [2, 2, 2, 2, 5, 5]


def test_face_system_minimality():
    # The reference face, read off dense exponents, keeps exactly the
    # sparse monomials of least weight.
    soe = build_soe(triangle_framework())
    rng = random.Random(5)
    for _ in range(10):
        w = tuple(F(rng.randint(-3, 3)) for _ in range(6))
        if all(x == 0 for x in w):
            continue
        for orig in soe.polys:
            vals = {m: sum(w[v] * e for v, e in m) for m in orig.support()}
            lo = min(vals.values())
            kept = {sparse(e) for e, _ in reference_polysys.face(orig, w)}
            for e, v in vals.items():
                assert (v == lo) == (e in kept)


def test_face_system_pinned_examples():
    soe = build_soe(triangle_framework())
    # All-positive direction: the constant term is the unique minimizer.
    for p in soe.polys:
        assert [e for e, _ in reference_polysys.face(p, (1, 1, 1, 1, 1, 1))] == [(0,) * 6]
    # Direction e1 on h1 = x1 - c1 keeps the constant alone.
    assert reference_polysys.face(soe.polys[0], (1, 0, 0, 0, 0, 0)) == [((0,) * 6, -1)]


def test_circle_newton_polytope_is_triangle():
    sub = build_subsoe(triangle_framework())
    nps = newton_polytopes(sub)
    for circle_np in nps[-3:]:
        assert circle_np.nvertices == 3


def test_degeneracy_face_system_shape():
    # Along the witness direction, pinning equations survive whole and
    # edge equations lose the constant: each face is its polynomial's
    # terms of top degree in the free coordinates, which is what
    # `witness_check` reads.
    for fw in (triangle_framework(), framework_for(k33_graph())):
        soe = build_soe(fw)
        w = reference_polysys.witness_direction(fw.graph.n)
        faces = [reference_polysys.face(p, w) for p in soe.polys]
        for i in range(4):
            assert faces[i] == reference_polysys.dense_terms(soe.polys[i])
        for p, face in zip(soe.polys, faces):
            top = max(sum(e for v, e in m if v >= 4) for m in p.support())
            assert face == sorted((dense(soe.nvars, m), c) for m, c in p.terms
                                  if sum(e for v, e in m if v >= 4) == top)
            if p not in soe.polys[:4]:
                assert (0,) * soe.nvars not in [e for e, _ in face]


def test_evaluate_exact():
    p = Polynomial.make(2, {((0, 2),): 1, ((1, 2),): 1})
    assert reference_polysys.evaluate(p, (GR_ONE, GR_I)).is_zero()
    assert not reference_polysys.evaluate(p, (GR_ONE, GR_ONE)).is_zero()
    diff = Polynomial.make(2, {((0, 2),): 0})
    assert reference_polysys.evaluate(diff, (GR_ONE, GR_I)).is_zero()


def test_make_rejects_non_integer_exponents():
    for e in (0.5, "1", None, F(1, 2)):
        with pytest.raises(InputError):
            Polynomial.make(1, {((0, e),): 1})
    with pytest.raises(InputError):
        Polynomial.make(1, {((0, -1),): 1})
    # y^2 before x^2, as (0, 2) before (2, 0).
    assert Polynomial.make(2, {((0, 2),): 1, ((1, 2),): 2}).terms == ((((1, 2),), 2), (((0, 2),), 1))


@st.composite
def _dense_polynomials(draw):
    """A variable count and distinct dense exponent tuples with nonzero coefficients."""
    nvars = draw(st.integers(1, 5))
    expos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), unique=True, min_size=1, max_size=8))
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    return nvars, {e: draw(coeff) for e in expos}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_dense_polynomials())
def test_make_lists_terms_in_dense_exponent_order(case):
    nvars, coeffs = case
    p = Polynomial.make(nvars, {sparse(e): c for e, c in coeffs.items()})
    assert [(dense(nvars, m), c) for m, c in p.terms] == sorted(coeffs.items())


def test_make_rejects_malformed_monomials():
    bad = [
        ((1, 1), (0, 1)),  # unsorted variables
        ((0, 1), (0, 2)),  # a repeated variable
        ((3, 1),), ((-1, 1),), ((True, 1),), ((1.0, 1),),  # variables off range(3)
        ((0, 0),), ((0, -1),), ((0, True),), ((0, 1.0),), ((0, F(2)),),  # exponents
        ((0,),), ((0, 1, 1),), (0,), "x", frozenset({(0, 1)}),  # not tuples of pairs
    ]
    for monomial in bad:
        with pytest.raises(InputError):
            Polynomial.make(3, {monomial: 1})
        with pytest.raises(InputError):  # checked even when the term drops out
            Polynomial.make(3, {monomial: 0})


def test_every_built_term_holds_at_most_two_variables():
    graphs = [g for n in range(2, 7) for g in all_laman_graphs(n)]
    graphs.append(henneberg_apply(random_henneberg_sequence(200, seed=5, step2_probability=0.3)))
    for g in graphs:
        for build in (build_soe, build_subsoe):
            assert max(len(m) for p in build(framework_for(g)).polys for m, _ in p.terms) <= 2


def test_make_keeps_integral_coefficients_as_ints():
    p = Polynomial.make(3, {((0, 1),): F(4, 2), ((1, 1),): F(3, 2), ((2, 1),): -7, (): 2.0})
    assert [(c, type(c)) for _, c in p.terms] == [(2, int), (-7, int), (F(3, 2), F), (2, int)]
    assert p.coefficient(((1, 1),)) == F(3, 2)
    assert type(p.coefficient(((0, 1), (1, 1), (2, 1)))) is int
    # Integral lengths give int coefficients throughout both systems.
    fw = framework_for(k33_graph(), start=1)
    for system in (build_soe(fw), build_subsoe(fw)):
        assert all(type(c) is int for p in system.polys for _, c in p.terms)
    half = Framework.make(fw.graph, {e: l / 2 for e, l in fw.lengths.items()})
    assert any(type(c) is F for p in build_soe(half).polys for _, c in p.terms)


def test_witness_check_triangle_and_k33():
    assert witness_check(build_soe(triangle_framework()))
    assert witness_check(build_soe(framework_for(k33_graph())))


def test_witness_original_system_nonzero():
    # The faces vanish at the witness point, the whole system does not.
    soe = build_soe(triangle_framework())
    pt = reference_polysys.witness_point(soe)
    assert any(not reference_polysys.evaluate(p, pt).is_zero() for p in soe.polys)


def test_witness_closed_form_agrees_with_evaluation_on_the_catalog():
    # Every Laman graph with n <= 8 up to isomorphism, at sorted-index
    # lengths: the closed form against the face system evaluated over
    # Gaussian rationals.
    for n in range(2, 9):
        for g in all_laman_graphs(n):
            soe = build_soe(framework_for(g))
            assert witness_check(soe) == witness_by_evaluation(soe) == (n >= 3), sorted(g.edges)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.data())
def test_witness_closed_form_agrees_with_evaluation_at_drawn_lengths(n, data):
    g = data.draw(st.sampled_from(all_laman_graphs(n)))
    length = st.fractions(min_value=F(1, 8), max_value=40, max_denominator=8)
    soe = build_soe(Framework.make(g, {e: data.draw(length) for e in sorted(g.edges)}))
    assert witness_check(soe) == witness_by_evaluation(soe)


def _with_poly(soe, j, coeffs):
    """`soe` with its polynomial j replaced, still read as a distance system."""
    polys = list(soe.polys)
    polys[j] = Polynomial.make(soe.nvars, coeffs)
    return PolySystem(soe.variables, tuple(polys), form=FORM_SOE)


def test_witness_fails_once_a_top_free_degree_coefficient_changes():
    soe = build_soe(framework_for(k33_graph()))
    for j in range(4, soe.nvars):
        terms = dict(soe.polys[j].terms)
        top = max(sum(e for v, e in m if v >= 4) for m in terms)
        for m in terms:
            changed = dict(terms)
            changed[m] += 1
            mutant = _with_poly(soe, j, changed)
            in_face = sum(e for v, e in m if v >= 4) == top
            # Only the face's coefficients matter: the constant is free.
            assert witness_check(mutant) == witness_by_evaluation(mutant) == (not in_face), (j, m)


def test_witness_on_hand_built_faces():
    # The built systems' faces hold even powers of the free y's and no
    # pinned coordinate above the first power. A cubic face puts i and
    # i^3 = -i against each other; a squared y1 = 2 weighs 4.
    soe = build_soe(triangle_framework())  # x3, y3 at 4, 5
    for c, vanishes in ((4, True), (2, False)):
        mutant = _with_poly(soe, 4, {((1, 2), (4, 2)): 1, ((5, 2),): c, (): 2})  # y1^2 x3^2 + c y3^2
        assert witness_check(mutant) == witness_by_evaluation(mutant) == vanishes
    cubic = {((5, 3),): 1, ((4, 2), (5, 1)): 1, ((5, 1),): 7, (): 2}  # face y3^3 + x3^2 y3
    for sign, vanishes in ((1, True), (-1, False)):
        mutant = _with_poly(soe, 4, {**cubic, ((4, 2), (5, 1)): sign})
        assert witness_check(mutant) == witness_by_evaluation(mutant) == vanishes
    mutant = _with_poly(soe, 4, {((4, 1), (5, 1)): 1, (): 2})  # face x3 y3, i at the point
    assert not witness_check(mutant) and not witness_by_evaluation(mutant)


def test_witness_fails_at_a_zero_pinned_coordinate():
    soe = build_soe(framework_for(k33_graph()))
    for j in range(4):
        mutant = _with_poly(soe, j, {((j, 1),): 1})
        assert not witness_check(mutant)
        assert not witness_by_evaluation(mutant)


def test_bezout_values():
    fw = triangle_framework()
    assert bezout(build_soe(fw)) == 4
    assert bezout(build_subsoe(fw)) == 32
    for n, seed in ((4, 0), (5, 1), (6, 2)):
        g = henneberg_apply(random_henneberg_sequence(n, seed=seed, step2_probability=0.3))
        fw = framework_for(g)
        assert bezout(build_soe(fw)) == 4 ** (n - 2)
        assert bezout(build_subsoe(fw)) == 2 ** (3 * n - 4)


def _expanded_bezout(degrees, sizes):
    """Coefficient of prod_g z_g^sizes[g] in prod_P sum_g degrees[P][g] z_g, by expanding the product."""
    product = Counter({(0,) * len(sizes): 1})
    for row in degrees:
        expanded = Counter()
        for e, c in product.items():
            for g, d in enumerate(row):
                expanded[e[:g] + (e[g] + 1,) + e[g + 1:]] += c * d
        product = expanded
    return product[tuple(sizes)]


@st.composite
def _bezout_cases(draw):
    """Part sizes and a degree table, usually with one polytope per slot.

    Sometimes one polytope more or fewer, whose count is 0.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    slots = sum(sizes)
    count = draw(st.sampled_from([slots, slots, slots, slots - 1, slots + 1]))
    row = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=len(sizes), max_size=len(sizes))
    return draw(st.lists(row, min_size=count, max_size=count)), sizes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_bezout_cases())
def test_multihomogeneous_bezout_matches_the_expanded_product(case):
    degrees, sizes = case
    assert multihomogeneous_bezout(degrees, sizes) == _expanded_bezout(degrees, sizes)


def test_variable_parts_group_each_vertex():
    system = build_subsoe(framework_for(k33_graph()))
    # x1 y1 x2 y2 x3 s1 s3 s6: positions 0-7.
    coords = (0, 1, 2, 3, 4, 12, 14, 17)
    assert variable_parts(system, coords) == [[0, 1, 5], [2, 3], [4, 6], [7]]
    assert list(variable_parts(build_soe(framework_for(k33_graph())), coords)) == [range(8)]


def test_block_bezout_reads_degrees_per_vertex():
    # Two unit triangles: (z0 + z1)^2 has z0 z1 coefficient 2 with the
    # parts {x}, {y} of two vertices, and one part gives z^2 coefficient 1;
    # a mixed area of 1 lies below both.
    assert multihomogeneous_bezout([[1, 1], [1, 1]], [1, 1]) == 2
    triangle_points = [(0, 0), (1, 0), (0, 1)]
    soe = build_soe(framework_for(k33_graph()))
    assert block_bezout(soe, (0, 2), [triangle_points] * 2) == 1
    # In the substituted system coordinates 0 and 2 are x1 and x2.
    subsoe = build_subsoe(framework_for(k33_graph()))
    assert block_bezout(subsoe, (0, 2), [triangle_points] * 2) == 2
    assert block_bezout(subsoe, (0, 1), [triangle_points] * 2) == 1
    assert block_bezout(subsoe, (0, 1), [triangle_points] * 3) == 0


def test_a_passed_deadline_stops_the_count_with_exit_2(monkeypatch, tmp_path, capsys):
    with pytest.raises(CapabilityError, match="Bezout count"):
        multihomogeneous_bezout([[1, 1], [1, 1]], [1, 1], deadline=time.monotonic() - 1)
    # Through `mv`: the deadline passes just before the first block's count.
    parts = polysys.variable_parts

    def late(system, coords):
        time.sleep(0.6)
        return parts(system, coords)

    monkeypatch.setattr(polysys, "variable_parts", late)
    g = k33_graph()
    path = tmp_path / "k33.graph"
    path.write_text(f"n {g.n}\n" + "".join(f"e {a} {b}\n" for a, b in sorted(g.edges)))
    assert cli.run(["mv", "--form", "subsoe", "--timeout", "0.5", str(path)]) == cli.EXIT_CAPABILITY
    assert capsys.readouterr().err == "error: Bezout count timed out\n"


def test_bezout_count_is_fast_up_to_thirty_vertices():
    # The count for every block of the substituted system of the
    # minimum-degree-3 graphs, split not included; the best of three
    # runs, so that one pause of the process does not count.
    for n in range(3, 31):
        g = henneberg_apply(random_henneberg_sequence(n, seed=4, step2_probability=0.9))
        system = build_subsoe(framework_for(g))
        point_sets = [(blk.coordinates, [p.vertices for p in blk.projected])
                      for blk in separation_split(supports(system))]
        times = []
        for _ in range(3):
            start = time.process_time()
            for coords, vertices in point_sets:
                block_bezout(system, coords, vertices)
            times.append(time.process_time() - start)
        assert min(times) < 0.1, (n, times)


def test_unit_base_length_moves_c1():
    # c1 = 1 would pin vertex 2 at x2 = l12 - c1 = 0, so a unit base gets c1 = 2.
    fw = Framework.make(triangle(), {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    for system in (build_soe(fw), build_subsoe(fw)):
        assert [p.coefficient(()) for p in system.polys[:4]] == [-2, -2, 1, -3]


def test_builders_refuse_non_laman_graphs():
    # K4 on {2, 3, 4, 5} plus the edge (1, 2): 2n - 3 edges, not Laman.
    k4 = [(a, b) for a in range(2, 6) for b in range(a + 1, 6)]
    fw = framework_for(Graph.make(5, [(1, 2)] + k4))
    for build in (build_soe, build_subsoe):
        with pytest.raises(InputError, match="not Laman"):
            build(fw)
