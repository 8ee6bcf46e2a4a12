import itertools
import random
import time
from fractions import Fraction as F
from operator import add, mul

import pytest
from conftest import framework_for, random_fullmixed_instance, random_lattice_polytope, scale, translate
from hypothesis import assume, given, settings, strategies as st
from reference_hull import _facet_enumeration, reference_edges, reference_vertices, reference_volume, simplex_plane
from reference_polysys import sparse

from lamanmv import polytopes
from lamanmv._linalg import scaled
from lamanmv.errors import CapabilityError, InputError, InternalError
from lamanmv.graphs import henneberg_apply, random_henneberg_sequence
from lamanmv.mixedvol import mixed_volume, mv_inclusion_exclusion
from lamanmv.polysys import Polynomial, PolySystem, build_subsoe, newton_polytopes
from lamanmv.polytopes import (
    RationalPolytope,
    edge_matrix_det,
    is_edge,
    minkowski_sum,
    volume_exact,
)

RP = RationalPolytope.from_points


def unit(i, dim, scale=1):
    return tuple(F(scale) if c == i else F(0) for c in range(dim))


def example_pair():
    P = RP([(0, 0), (3, 0), (0, 2), (3, 2)])
    Q = RP([(1, 0), (0, F(3, 2)), (3, 3)])
    return P, Q


def test_hull_removes_midpoints():
    p = RP([(0,), (1,), (2,)])
    assert p.vertices == ((F(0),), (F(2),))


def test_hull_single_point():
    p = RP([(5, 7)])
    assert p.vertices == ((F(5), F(7)),)


def test_hull_idempotent():
    rng = random.Random(1)
    for _ in range(10):
        pts = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(8)]
        p = RP(pts)
        q = RP(p.vertices)
        assert q.vertices == p.vertices


def test_hull_dimension_mismatch():
    with pytest.raises(InputError):
        RP([(0, 0), (1,)])


def test_edge_polynomial_support_reduces_to_five():
    # Support of a quadratic distance constraint: 7 points, 5 vertices.
    dim = 8
    pts = [
        tuple([0] * dim),
        unit(4, dim, 2),
        unit(5, dim, 2),
        unit(6, dim, 2),
        unit(7, dim, 2),
        tuple(1 if i in (4, 6) else 0 for i in range(dim)),
        tuple(1 if i in (5, 7) else 0 for i in range(dim)),
    ]
    p = RP(pts)
    assert p.nvertices == 5
    for i, a in enumerate(p.vertices):
        for b in p.vertices[i + 1 :]:
            assert is_edge(p, a, b)


def test_square_edges():
    sq = RP([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert is_edge(sq, (F(0), F(0)), (F(1), F(0)))
    assert not is_edge(sq, (F(0), F(0)), (F(1), F(1)))


def test_is_edge_rejects_non_vertices():
    sq = RP([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(InputError):
        is_edge(sq, (F(0), F(0)), (F(5), F(5)))


def test_minkowski_square_from_segments():
    s1 = RP([(0, 0), (1, 0)])
    s2 = RP([(0, 0), (0, 1)])
    sq = minkowski_sum(s1, s2)
    assert len(sq.vertices) == 4
    assert volume_exact(sq) == 1


def test_minkowski_example_heptagon():
    P, Q = example_pair()
    s = minkowski_sum(P, Q)
    assert len(s.vertices) == 7
    assert volume_exact(s) == 24
    assert volume_exact(P) == 6
    assert volume_exact(Q) == 3


def test_minkowski_point_translates():
    P, _ = example_pair()
    t = minkowski_sum(P, RP([(10, 20)]))
    assert t.vertices == translate(P, (10, 20)).vertices


def test_volume_translation_and_scaling():
    cube = RP([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert volume_exact(cube) == 1
    assert volume_exact(translate(cube, (F(1, 3), -7, 2))) == 1
    assert volume_exact(scale(cube, F(3, 2))) == F(27, 8)


def test_volume_lower_dimensional_is_zero():
    flat = RP([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert volume_exact(flat) == 0


def test_volume_cap():
    seg = RP([tuple([0] * 7), unit(0, 7)])
    with pytest.raises(CapabilityError):
        volume_exact(seg)


def _shoelace(vertices):
    # Order vertices of a convex polygon around the centroid.
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)

    def key(v):
        import math

        return math.atan2(float(v[1] - cy), float(v[0] - cx))

    ordered = sorted(vertices, key=key)
    area = F(0)
    for i in range(len(ordered)):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % len(ordered)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2


def test_volume_matches_shoelace_on_random_polygons():
    rng = random.Random(42)
    done = 0
    while done < 50:
        pts = [(F(rng.randint(0, 9)), F(rng.randint(0, 9))) for _ in range(rng.randint(3, 9))]
        p = RP(pts)
        if p.dim() < 2:
            continue
        assert volume_exact(p) == _shoelace(p.vertices)
        done += 1


def test_edge_matrix_det_identity():
    k = 5
    cell = tuple((unit(j, k), tuple([F(0)] * k)) for j in range(k))
    assert abs(edge_matrix_det(cell)) == 1


def test_edge_matrix_det_certificate_cell():
    for n in (3, 4, 5):
        k = 2 * n
        edges = [(unit(j, k), tuple([F(0)] * k)) for j in range(4)]
        edges += [(unit(j, k, 2), tuple([F(0)] * k)) for j in range(4, k)]
        assert abs(edge_matrix_det(edges)) == 4 ** (n - 2)


def test_edge_matrix_det_parallel_zero():
    cell = (((F(1), F(0)), (F(0), F(0))), ((F(2), F(0)), (F(0), F(0))))
    assert edge_matrix_det(cell) == 0


def _random_hull_input(rng, k, max_affine=None):
    """Seeded point set in Q^k mixing the cases the hull must handle.

    The base is a lattice box sample (many points inside facets), rational
    points, a simplex, or a lower-dimensional set; duplicates, midpoints
    (collinear triples) and convex combinations of three points (coplanar
    or interior points) are added on top.
    """
    kind = rng.choice(("box", "rational", "simplex", "flat"))
    if max_affine is not None:
        kind = "flat"
    if kind == "box":
        pts = [tuple(F(rng.randint(0, 2)) for _ in range(k)) for _ in range(rng.randint(2, k + 5))]
    elif kind == "rational":
        pts = [
            tuple(F(rng.randint(-6, 6), rng.choice((1, 2, 3, 5))) for _ in range(k))
            for _ in range(rng.randint(1, 9))
        ]
    elif kind == "simplex":
        pts = [tuple(F(rng.randint(-4, 4)) for _ in range(k)) for _ in range(rng.randint(1, k + 1))]
    else:
        m = rng.randint(1, min(k, max_affine or 3))
        base = tuple(F(rng.randint(-3, 3)) for _ in range(k))
        dirs = [tuple(F(rng.randint(-2, 2)) for _ in range(k)) for _ in range(m)]
        pts = []
        for _ in range(rng.randint(2, 8)):
            ys = [rng.randint(-2, 2) for _ in range(m)]
            pts.append(tuple(base[c] + sum(y * d[c] for y, d in zip(ys, dirs)) for c in range(k)))
    for _ in range(rng.randint(0, 3)):
        extra = rng.choice(("dup", "mid", "comb"))
        if extra == "dup":
            pts.append(rng.choice(pts))
        elif extra == "mid":
            a, b = rng.choice(pts), rng.choice(pts)
            pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        else:
            a, b, c = (rng.choice(pts) for _ in range(3))
            pts.append(tuple((x + y + z) / 3 for x, y, z in zip(a, b, c)))
    rng.shuffle(pts)
    return pts


def test_hull_matches_reference():
    rng = random.Random(2024)
    for trial in range(540):
        k = 1 + trial % 6
        pts = _random_hull_input(rng, k)
        p = RP(pts)
        assert p.vertices == reference_vertices(pts), pts
        assert volume_exact(p) == reference_volume(p), pts
        _assert_edges_match_reference(p)


def test_low_dimensional_hull_matches_reference_up_to_dimension_30():
    # Newton supports of the substituted systems: few points, low affine
    # dimension, ambient dimension up to 30.
    rng = random.Random(7)
    for trial in range(120):
        k = rng.randint(7, 30)
        pts = _random_hull_input(rng, k, max_affine=4)
        p = RP(pts)
        assert p.vertices == reference_vertices(pts), pts
        _assert_edges_match_reference(p)


def _assert_edges_match_reference(p):
    # edges() in vertex-pair order, is_edge on every pair, and the lattice
    # built on demand for a polytope not made by from_points.
    expected = reference_edges(p)
    assert p.edges() == expected, p.vertices
    pairs = list(itertools.combinations(p.vertices, 2))
    assert [is_edge(p, a, b) for a, b in pairs] == [e in expected for e in pairs]
    q = RationalPolytope(p.ambient_dim, tuple(reversed(p.vertices)))
    assert {frozenset(e) for e in q.edges()} == {frozenset(e) for e in expected}


def _wrap_input(rng, k):
    """Seeded point set in Q^k with points on its facets.

    A sample of the lattice points of [0, 2]^k (many points in lines and
    planes on its facets), or a rational simplex or cross-polytope with
    midpoints of some edges (collinear on a facet) and centroids of some
    vertex triples of one facet (coplanar on it); the last two are
    scaled by a random rational and shifted. The cross-polytope stops at
    dimension 5: the reference is slow on the 64 facets of the
    6-dimensional one.
    """
    kind = rng.choice(("box", "simplex", "cross")[: 2 if k > 5 else 3])
    if kind == "box":
        return [tuple(F(rng.randint(0, 2)) for _ in range(k)) for _ in range(rng.randint(k + 1, k + 6))]
    if kind == "simplex":
        verts = [tuple(F(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(k)) for _ in range(k + 1)]
        facets = [verts[1:]]
    else:
        verts = [tuple(F(s) if c == i else F(0) for c in range(k)) for i in range(k) for s in (1, -1)]
        facets = [[verts[2 * i + rng.randint(0, 1)] for i in range(k)] for _ in range(2)]
    pts = list(verts)
    for _ in range(rng.randint(1, 4)):
        facet = rng.choice(facets)
        a, b = rng.sample(facet, 2)
        pts.append(tuple((x + y) / 2 for x, y in zip(a, b)))
        if k > 2:
            a, b, c = rng.sample(facet, 3)
            pts.append(tuple((x + y + z) / 3 for x, y, z in zip(a, b, c)))
    scale = F(rng.randint(1, 5), rng.randint(1, 4))
    shift = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
    pts = [tuple(scale * x + s for x, s in zip(p, shift)) for p in pts]
    rng.shuffle(pts)
    return pts


def test_facets_match_reference_in_dimensions_2_to_6():
    # The facets of the root face (each with every point on it), the
    # vertices, the edges and the volume, against the LP and Fraction
    # reference. A polygon root's facets are the points on the lines of
    # its certified chain, and each is named by its two extreme points.
    rng = random.Random(31)
    for trial in range(30):
        k = 2 + trial % 5
        pts = _wrap_input(rng, k)
        ints = sorted(set(scaled(pts)[0]))
        face = polytopes._Face(tuple(range(len(ints))), polytopes._affine(ints), {}, None)
        if face.d >= 2:
            want = [sorted(o) for o in _facet_enumeration([tuple(map(F, q)) for q in face.pts], face.d)]
            if face.d == 2:
                ridges = face.ridges
                got = {
                    frozenset(i for i, q in enumerate(face.pts) if sum(map(mul, n, q)) == off)
                    for n, off in map(face.plane, range(len(ridges)))
                }
                assert set(ridges) == {(o[0], o[-1]) for o in want}, pts
            else:
                got = {frozenset(f.ids) for _, _, f in polytopes._facets(face)}
            assert got == {frozenset(o) for o in want}, pts
        p = RP(pts)
        assert p.vertices == reference_vertices(pts), pts
        assert volume_exact(p) == reference_volume(p), pts
        _assert_edges_match_reference(p)


def test_forged_turn_raises_internal_error(monkeypatch):
    # A turn the wrong way about a ridge leaves points above the new
    # plane, which its certificate refuses.
    turn = polytopes._turn
    monkeypatch.setattr(
        polytopes,
        "_turn",
        lambda normal, heights, m, b: turn(normal, heights, [-x for x in m], [-x for x in b]),
    )
    with pytest.raises(InternalError):
        RP(itertools.product(range(2), repeat=3))


def test_forged_first_plane_raises_internal_error(monkeypatch):
    # A first plane pointed inward has every point above it, which `_facet`
    # refuses before it builds a face on the plane.
    first = polytopes._first_plane

    def flipped(pts):
        normal, heights = first(pts)
        return tuple(-x for x in normal), [-h for h in heights]

    monkeypatch.setattr(polytopes, "_first_plane", flipped)
    with pytest.raises(InternalError, match="a facet plane leaves points on both sides"):
        RP(itertools.product(range(2), repeat=3))


def test_triangle_planes_match_the_solve_route():
    # Every triangle face of random 3- and 4-dim lattice hulls: the
    # closed-form plane of each edge is the linear-solve route's.
    rng = random.Random(35)
    triangles = 0
    for trial in range(60):
        k = 3 + trial % 2
        pts = sorted({tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(k + 1, 14))})
        root = polytopes._Face(tuple(range(len(pts))), polytopes._affine(pts), {}, None)
        for face in root.faces.values():
            if face.simplex and face.d == 2:
                triangles += 1
                assert [face.plane(j) for j in range(3)] == [simplex_plane(face.pts, j) for j in range(3)], pts
    assert triangles >= 300


@pytest.mark.parametrize(
    "forge",
    [lambda normal, off: (tuple(-x for x in normal), -off), lambda normal, off: (normal, off + 1)],
    ids=["flips-the-normal", "moves-the-offset"],
)
def test_forged_triangle_plane_raises_internal_error(monkeypatch, forge):
    # A triangle's edge plane is what the hull turns about: pointed inward,
    # the turn leaves points above its plane or comes back to a known facet;
    # moved off the edge, the turn leaves the edge.
    plane = polytopes._Face.plane
    monkeypatch.setattr(
        polytopes._Face,
        "plane",
        lambda self, j: forge(*plane(self, j)) if self.simplex and self.d == 2 else plane(self, j),
    )
    with pytest.raises(InternalError):
        RP([unit(i, 3, s) for i in range(3) for s in (1, -1)])


def _midpoint_corner(pts, chain):
    # The point halfway along the first edge, listed as one more corner.
    (u, normal, off), (v, _, _) = chain[:2]
    mid = pts.index(tuple((a + b) // 2 for a, b in zip(pts[u], pts[v])))
    return [chain[0], (mid, normal, off)] + chain[1:]


@pytest.mark.parametrize(
    "forge",
    [
        lambda pts, chain: chain[1:],
        lambda pts, chain: chain[:1] + chain[2:],
        lambda pts, chain: [chain[0][:1] + chain[1][1:]] + chain[2:],
        lambda pts, chain: chain + chain,
        lambda pts, chain: chain[:1] + [(chain[1][0], tuple(-x for x in chain[1][1]), -chain[1][2])] + chain[2:],
        lambda pts, chain: chain[:1] + [chain[1][:2] + (chain[1][2] + 1,)] + chain[2:],
        _midpoint_corner,
    ],
    ids=[
        "drops-first-corner",
        "drops-inner-corner",
        "drops-a-corner-for-the-next-line",
        "goes-round-twice",
        "flips-a-normal",
        "moves-a-line-outward",
        "lists-a-midpoint",
    ],
)
@pytest.mark.parametrize(
    "pts",
    [list(itertools.product(range(3), repeat=2)) + [(3, 1)], list(itertools.product(range(3), repeat=3))],
    ids=["pentagon", "box"],
)
def test_forged_chain_raises_internal_error(monkeypatch, forge, pts):
    # Every polygon edge is certified before a vertex, edge or volume is
    # read from it: a chain that misses or repeats a corner, points an
    # edge's normal inward, moves its line off its corners or lists a point
    # inside an edge is refused, for a pentagon and for the square facets
    # of a box.
    chain = polytopes._chain
    monkeypatch.setattr(polytopes, "_chain", lambda face_pts: forge(face_pts, chain(face_pts)))
    with pytest.raises(InternalError):
        RP(pts)


def _prism_with_midpoints():
    # A triangular prism with the midpoints of its edges (the vertex pairs
    # at one height or above each other) and the centre of each square
    # facet: three points on each edge, nine on each square.
    base = [(0, 0), (4, 0), (0, 4)]
    verts = [(x, y, z) for x, y in base for z in (0, 4)]
    pts = list(verts)
    for a, b in itertools.combinations(verts, 2):
        if a[2] == b[2] or a[:2] == b[:2]:
            pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
    pts += [(2, 0, 2), (0, 2, 2), (2, 2, 2)]
    return pts


def _assert_hull_matches_reference(pts):
    # Against the reference's exact facets of the distinct points: in
    # dimension 3 a point is a vertex when it lies on three facets or more,
    # and two vertices span an edge when they share two facets. An edge
    # that holds points between its corners must be matched across its
    # two facets by its corners alone.
    p = RP(pts)
    if p.dim() < 3:
        assert p.vertices == reference_vertices(pts), pts
        _assert_edges_match_reference(p)
        return
    points = sorted(set(pts))
    facets = [set(f) for f in _facet_enumeration([tuple(map(F, q)) for q in points], 3)]
    on = [sum(i in f for f in facets) for i in range(len(points))]
    assert p.vertices == tuple(q for q, m in zip(points, on) if m >= 3), pts
    edges = {
        frozenset((points[i], points[j]))
        for i, j in itertools.combinations(range(len(points)), 2)
        if min(on[i], on[j]) >= 3 and sum(i in f and j in f for f in facets) >= 2
    }
    assert p.edges() == tuple(e for e in itertools.combinations(p.vertices, 2) if frozenset(e) in edges)
    assert volume_exact(p) == reference_volume(p), pts
    # Built directly on every point, the lattice is built on first use and
    # also indexes the points that are not vertices.
    q = RationalPolytope(3, tuple(dict.fromkeys(reversed(pts))))
    assert q.edges() == tuple(e for e in itertools.combinations(q.vertices, 2) if frozenset(e) in edges)
    assert volume_exact(q) == volume_exact(p)


@pytest.mark.parametrize(
    "pts", [list(itertools.product(range(3), repeat=3)), _prism_with_midpoints()], ids=["box", "prism"]
)
def test_hulls_with_points_inside_edges_and_facets_match_reference(pts):
    _assert_hull_matches_reference(pts)


@pytest.mark.parametrize("seed", range(20))
def test_oracle_minkowski_sums_match_reference(monkeypatch, seed):
    # Every Minkowski sum the inclusion-exclusion oracle builds for a
    # seeded dim-3 triple, on the vertex sums it reduces.
    made = []
    real = polytopes.minkowski_sum

    def spy(p, q, deadline=None):
        made.append([tuple(map(add, a, b)) for a in p.vertices for b in q.vertices])
        return real(p, q, deadline)

    monkeypatch.setattr(polytopes, "minkowski_sum", spy)
    mv_inclusion_exclusion(random_fullmixed_instance(seed, 3))
    assert len(made) == 4
    for pts in made:
        _assert_hull_matches_reference(pts)


def test_hull_is_independent_of_point_order_and_repeats():
    rng = random.Random(5)
    for trial in range(60):
        pts = _random_hull_input(rng, 2 + trial % 3)
        p = RP(pts)
        vol = volume_exact(p)
        for _ in range(3):
            other = pts + rng.sample(pts, rng.randint(0, len(pts)))
            rng.shuffle(other)
            q = RP(other)
            assert q.vertices == p.vertices
            assert volume_exact(q) == vol
            assert volume_exact(RationalPolytope(p.ambient_dim, tuple(reversed(other)))) == vol


def test_volume_and_reduction_honour_deadline():
    cube = [(x, y, z) for x in (0, 1, 2) for y in (0, 1, 2) for z in (0, 1, 2)]
    with pytest.raises(CapabilityError):
        RationalPolytope.from_points(cube, deadline=time.monotonic() - 1)
    with pytest.raises(CapabilityError):
        volume_exact(RP(cube), deadline=time.monotonic() - 1)


def test_each_face_is_certified_once(monkeypatch):
    # Every lattice point of the box [0, 2]^6. The 6-cube has 3^6 faces,
    # 473 of them of dimension >= 2: 233 of dimension >= 3, which need one
    # facet computation each, and 240 squares, which need one certified
    # chain each. A face reached through several facets is certified
    # once, and the volume and the edges read the lattice that
    # from_points kept.
    facets, chain = polytopes._facets, polytopes._chain
    calls = []
    monkeypatch.setattr(polytopes, "_facets", lambda face: calls.append(face.d) or facets(face))
    monkeypatch.setattr(polytopes, "_chain", lambda pts: calls.append(2) or chain(pts))
    p = RationalPolytope.from_points(itertools.product(range(3), repeat=6))
    assert p.vertices == tuple(itertools.product((F(0), F(2)), repeat=6))
    assert len(calls) == 473 and calls.count(2) == 240
    assert volume_exact(p) == 64
    assert len(p.edges()) == 6 * 2 ** 5
    assert len(calls) == 473


# -- int coordinates ----------------------------------------------------------
# A coordinate is an int when it is integral and a Fraction only when it is
# not; these keep every lattice polytope on ints.


def _point_lists(coordinate, max_dim=5, max_size=10):
    return st.integers(1, max_dim).flatmap(
        lambda k: st.lists(st.tuples(*[coordinate] * k), min_size=1, max_size=max_size)
    )


def _coordinate_types(points):
    return {type(x) for p in points for x in p}


@settings(max_examples=60, deadline=None)
@given(_point_lists(st.integers(-3, 3)), st.booleans())
def test_integral_input_gives_int_coordinates(pts, as_fractions):
    if as_fractions:
        pts = [tuple(map(F, p)) for p in pts]
    p = RP(pts)
    # A polytope built without reduction: integral Fractions become ints too.
    q = RationalPolytope(p.ambient_dim, tuple(pts))
    assert _coordinate_types(q.vertices) == {int}
    assert _coordinate_types(p.vertices) == {int}
    assert _coordinate_types(minkowski_sum(p, q).vertices) == {int}
    assert _coordinate_types(minkowski_sum(q, q).vertices) == {int}
    assert _coordinate_types(RP([v[::2] for v in pts]).vertices) == {int}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.lists(
    st.lists(st.tuples(*[st.integers(0, 3)] * k), min_size=1, max_size=6), min_size=1, max_size=3
)))
def test_newton_polytopes_have_int_coordinates(supports):
    k = len(supports[0][0])
    system = PolySystem(
        tuple(f"x{i}" for i in range(k)),
        tuple(Polynomial.make(k, {sparse(e): F(1, 2) for e in s}) for s in supports),
    )
    for poly, support in zip(newton_polytopes(system), supports, strict=True):
        assert _coordinate_types(poly.vertices) == {int}
        assert poly.vertices == reference_vertices(support)


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 7), st.integers(0, 10**6))
def test_graph_newton_polytopes_have_int_coordinates(n, seed):
    g = henneberg_apply(random_henneberg_sequence(n, seed=seed, step2_probability=0.5))
    for poly in newton_polytopes(build_subsoe(framework_for(g))):
        assert _coordinate_types(poly.vertices) == {int}


@settings(max_examples=60, deadline=None)
@given(_point_lists(st.fractions(-3, 3, max_denominator=4), max_dim=4, max_size=8))
def test_rational_input_matches_reference_vertices(pts):
    assume(any(x.denominator > 1 for p in pts for x in p))
    p = RP(pts)
    assert p.vertices == reference_vertices(pts)
    assert all(type(x) is (int if x.denominator == 1 else F) for v in p.vertices for x in v)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3), st.data())
def test_int_and_fraction_vertices_agree(seed, dim, data):
    # The same polytopes built directly, RationalPolytope(dim, vertices),
    # with each coordinate an int or an integral Fraction: the constructor
    # makes them all ints.
    rng = random.Random(seed)
    ints = [random_lattice_polytope(rng, dim) for _ in range(dim)]
    mixed = [
        tuple(tuple(F(x) if data.draw(st.booleans()) else x for x in v) for v in p.vertices)
        for p in ints
    ]
    fracs = [RationalPolytope(dim, verts) for verts in mixed]
    for p, q in zip(ints, fracs):
        assert q.vertices == p.vertices and _coordinate_types(q.vertices) == {int}
        assert q.edges() == p.edges()
        assert volume_exact(q) == volume_exact(p)
    assert mixed_volume(fracs, seed=0) == mixed_volume(ints, seed=0)
    # A non-integral point keeps its Fractions; the others still become ints.
    half = F(1, 2)
    q = RationalPolytope(dim, ((half,) * dim, *mixed[0]))
    assert [type(x) for x in q.vertices[0]] == [F] * dim
    assert q.vertices[1:] == ints[0].vertices and _coordinate_types(q.vertices[1:]) == {int}
