"""Reference vertex reduction and exact volume over Fraction arithmetic.

The straightforward route: a point is a vertex iff one exact LP finds it
is no convex combination of the other points, a vertex pair is an edge
iff one exact LP finds no convex combination of the other vertices on
its line, and a volume comes from a
pyramid triangulation over facets enumerated in `Fraction` arithmetic
(a float hull proposes candidate facets, each is re-derived rationally,
and a gift-wrapping pass closes any ridge left with one facet; small
inputs use an exhaustive search). `simplex_plane` is the linear-solve
route to a simplex's facet planes, which the library's closed-form
triangle planes are compared against. The LPs are solved by
`reference_simplex`. `lamanmv.polytopes` must return the same sorted
vertex tuple, the same edges and exactly the same volume, so the
differential tests in test_polytopes.py compare the two.
"""

import itertools
from fractions import Fraction
from math import factorial, gcd

import reference_simplex as simplex
from reference_linalg import mat_det, mat_solve
from lamanmv._linalg import solve
from lamanmv.errors import CapabilityError, InputError
from lamanmv.polytopes import VOLUME_DIM_CAP

try:
    from scipy.spatial import ConvexHull as _ConvexHull
except Exception:  # pragma: no cover
    _ConvexHull = None


def mat_rank(rows):
    """Rank of a rational matrix."""
    if not rows:
        return 0
    a = [list(map(Fraction, r)) for r in rows]
    m, n = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col]
        a[row] = [v / inv for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                for c in range(col, n):
                    a[r][c] -= f * a[row][c]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


def reference_vertices(points):
    """Sorted extreme points of a point list, one exact LP per point."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    return tuple(p for p in pts if _is_extreme(p, pts))


def _is_extreme(p, pts):
    others = [q for q in pts if q != p]
    if not others:
        return True
    dim = len(p)
    rows = []
    for c in range(dim):
        if any(q[c] != p[c] for q in others):
            rows.append(([q[c] for q in others], simplex.EQ, p[c]))
    rows.append(([Fraction(1)] * len(others), simplex.EQ, Fraction(1)))
    out = simplex.feasible(rows, len(others), bounds=[(0, None)] * len(others))
    return out.status == simplex.INFEASIBLE


def reference_edges(p):
    """The vertex pairs of a polytope that span edges, one exact LP per pair.

    (a, b) spans an edge iff some functional is minimal exactly on
    conv{a, b}: <w, a> = <w, b> and <w, v> >= <w, a> + 1 for every other
    vertex v. By Farkas' lemma that fails iff a convex combination of
    the other vertices lies on the line through a and b, which is the
    smaller LP solved here: y >= 0 with sum y_v = 1 and
    sum y_v (v - a) = s (b - a) for a free s.
    """
    return tuple(e for e in itertools.combinations(p.vertices, 2) if _is_edge(p, *e))


def _is_edge(p, a, b):
    others = [v for v in p.vertices if v != a and v != b]
    rows = []
    for c in range(p.ambient_dim):
        coeffs = [v[c] - a[c] for v in others] + [a[c] - b[c]]
        if any(coeffs):
            rows.append((coeffs, simplex.EQ, 0))
    rows.append(([Fraction(1)] * len(others) + [Fraction(0)], simplex.EQ, Fraction(1)))
    bounds = [(0, None)] * len(others) + [(None, None)]
    return simplex.feasible(rows, len(others) + 1, bounds).status == simplex.INFEASIBLE


def reference_volume(p):
    """Exact volume of a RationalPolytope; 0 when not full-dimensional."""
    k = p.ambient_dim
    if k > VOLUME_DIM_CAP:
        raise CapabilityError(f"volume capped at dimension {VOLUME_DIM_CAP}")
    if k == 0:
        return Fraction(0)
    verts = [tuple(map(Fraction, v)) for v in p.vertices]
    if len(verts) <= k:
        return Fraction(0)
    if k == 1:
        xs = [v[0] for v in verts]
        return max(xs) - min(xs)
    v0 = verts[0]
    if mat_rank([[v[c] - v0[c] for c in range(k)] for v in verts[1:]]) < k:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate(tuple(verts), k):
        v0 = verts[simplex[0]]
        rows = [[verts[i][c] - v0[c] for c in range(k)] for i in simplex[1:]]
        total += abs(mat_det(rows))
    return total / factorial(k)


def _triangulate(verts, k):
    """Pyramids from the first vertex over every facet avoiding it."""
    n = len(verts)
    if n == k + 1:
        return [tuple(range(n))]
    simplices = []
    for onset in _facet_enumeration(verts, k):
        if 0 in onset:
            continue
        facet_pts = tuple(verts[i] for i in onset)
        if k - 1 == 1:
            sub = [_segment_indices(facet_pts)]
        else:
            coords = tuple(map(tuple, _affine_coordinates(facet_pts, k - 1)))
            sub = _triangulate(coords, k - 1)
        for simplex in sub:
            simplices.append((0,) + tuple(onset[i] for i in simplex))
    return simplices


def _segment_indices(pts):
    lo = min(range(len(pts)), key=lambda i: pts[i])
    hi = max(range(len(pts)), key=lambda i: pts[i])
    return (lo, hi)


_QHULL_MIN_POINTS = 10


def _facet_enumeration(verts, k):
    """All facets of a full-dimensional point set as index tuples."""
    verts = tuple(verts)
    n = len(verts)
    if k == 1:
        lo, hi = _segment_indices(verts)
        return [(lo,), (hi,)]
    if k == 2 or n < _QHULL_MIN_POINTS or _ConvexHull is None:
        return _facets_exhaustive(verts, k)
    candidates = _qhull_candidates(verts, k)
    if not candidates:
        return _facets_exhaustive(verts, k)
    try:
        return _repair_closed(verts, k, candidates)
    except _WrapFailure:
        return _facets_exhaustive(verts, k)


class _WrapFailure(Exception):
    pass


def _qhull_candidates(verts, k):
    try:
        import numpy as np

        arr = np.array([[float(x) for x in v] for v in verts], dtype=float)
        hull = _ConvexHull(arr)
    except Exception:
        return []
    seen = {}
    for s in hull.simplices:
        pts = [verts[int(i)] for i in s]
        hyp = _hyperplane(pts, k)
        if hyp is None:
            continue
        onset = _supporting_onset(verts, k, hyp)
        if onset is not None:
            seen[frozenset(onset)] = onset
    return list(seen.values())


def _supporting_onset(verts, k, hyp):
    """Exact onset of a supporting hyperplane, or None if it cuts."""
    normal, offset = hyp
    pos = neg = False
    onset = []
    for idx, v in enumerate(verts):
        val = sum((normal[c] * v[c] for c in range(k)), Fraction(0)) - offset
        if val > 0:
            pos = True
        elif val < 0:
            neg = True
        else:
            onset.append(idx)
        if pos and neg:
            return None
    if not pos and not neg:
        return None
    return tuple(onset)


def _repair_closed(verts, k, candidates):
    """Close the facet list under ridge pairing by exact wrapping."""
    facets = {frozenset(o): tuple(o) for o in candidates}
    pending = list(facets.values())
    ridge_map = {}
    while True:
        while pending:
            onset = pending.pop()
            for ridge in _ridges_of_facet(verts, onset, k):
                ridge_map.setdefault(frozenset(ridge), []).append(onset)
        deficient = [r for r, fs in ridge_map.items() if len(fs) == 1]
        over = [r for r, fs in ridge_map.items() if len(fs) > 2]
        if over:
            raise _WrapFailure("ridge shared by more than two facets")
        if not deficient:
            return sorted(facets.values())
        ridge_key = deficient[0]
        known = ridge_map[ridge_key][0]
        onset = _wrap_neighbor(verts, k, tuple(sorted(ridge_key)), known)
        key = frozenset(onset)
        if key in facets:
            raise _WrapFailure("wrap rediscovered a known facet")
        facets[key] = onset
        pending.append(onset)


def _ridges_of_facet(verts, onset, k):
    facet_pts = tuple(verts[i] for i in onset)
    if k - 1 == 1:
        lo, hi = _segment_indices(facet_pts)
        return [(onset[lo],), (onset[hi],)]
    coords = tuple(map(tuple, _affine_coordinates(facet_pts, k - 1)))
    out = []
    for sub in _facet_enumeration(coords, k - 1):
        out.append(tuple(sorted(onset[i] for i in sub)))
    return out


def _wrap_neighbor(verts, k, ridge, known_onset):
    """The second facet through a ridge, by exact rotation.

    Projects everything onto the 2-dimensional quotient along the
    ridge's affine hull; the two facets become the extreme rays of the
    projected cone, and the unknown one is the angular extreme measured
    from the known facet's ray.
    """
    a0 = verts[ridge[0]]
    basis = []
    for i in ridge[1:]:
        d = [verts[i][c] - a0[c] for c in range(k)]
        if mat_rank(basis + [d]) > len(basis):
            basis.append(d)
        if len(basis) == k - 2:
            break
    if len(basis) != k - 2:
        raise _WrapFailure("ridge does not span k-2 dimensions")
    for c in range(k):
        unit = [Fraction(int(j == c)) for j in range(k)]
        if mat_rank(basis + [unit]) > len(basis):
            basis.append(unit)
        if len(basis) == k:
            break
    if len(basis) != k:
        raise _WrapFailure("could not complete the quotient basis")
    system = [[basis[j][c] for j in range(k)] for c in range(k)]

    def quotient(idx):
        sol = mat_solve(system, [verts[idx][c] - a0[c] for c in range(k)])
        return (sol[k - 2], sol[k - 1])

    ridge_set = set(ridge)
    rf = None
    for i in known_onset:
        if i not in ridge_set:
            q = quotient(i)
            if q != (0, 0):
                rf = q
                break
    if rf is None:
        raise _WrapFailure("known facet has no point off the ridge")

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    sigma = 0
    quotients = {}
    for idx in range(len(verts)):
        if idx in ridge_set:
            continue
        q = quotient(idx)
        if q == (0, 0):
            continue
        quotients[idx] = q
        c = cross(rf, q)
        if c != 0 and sigma == 0:
            sigma = 1 if c > 0 else -1
    if sigma == 0:
        raise _WrapFailure("all points project onto the known ray")
    best = None
    for idx, q in quotients.items():
        side = sigma * cross(rf, q)
        if side < 0:
            raise _WrapFailure("known facet fails to support the cone")
        if side == 0:
            continue
        if best is None or sigma * cross(quotients[best], q) > 0:
            best = idx
    if best is None:
        raise _WrapFailure("no candidate beyond the known facet")
    chosen = [verts[ridge[0]]]
    for i in ridge[1:]:
        d = [verts[i][c] - verts[ridge[0]][c] for c in range(k)]
        rows = [[p[c] - chosen[0][c] for c in range(k)] for p in chosen[1:]]
        if mat_rank(rows + [d]) > mat_rank(rows):
            chosen.append(verts[i])
        if len(chosen) == k - 1:
            break
    hyp = _hyperplane(chosen + [verts[best]], k)
    if hyp is None:
        raise _WrapFailure("degenerate neighbor hyperplane")
    onset = _supporting_onset(verts, k, hyp)
    if onset is None:
        raise _WrapFailure("neighbor hyperplane is not supporting")
    return onset


def _facets_exhaustive(verts, k):
    """All facets by exhaustive supporting-hyperplane search."""
    n = len(verts)
    found = {}
    facet_index_sets = []
    for subset in itertools.combinations(range(n), k):
        sub = frozenset(subset)
        if any(sub <= f for f in facet_index_sets):
            continue
        pts = [verts[i] for i in subset]
        hyp = _hyperplane(pts, k)
        if hyp is None:
            continue
        onset = _supporting_onset(verts, k, hyp)
        if onset is None:
            continue
        key = frozenset(onset)
        if key not in found:
            found[key] = onset
            facet_index_sets.append(key)
    return sorted(found.values())


def simplex_plane(pts, j):
    """(outer primitive normal, offset) of the facet opposite pts[j] of an integer simplex.

    The linear-solve route: with p_1 - p_0, ..., p_d - p_0 as the rows
    of R, the normal of the facet opposite p_j solves R x = -e_j
    (j >= 1), and that of the facet opposite p_0 solves R x = 1.
    """
    d, p0 = len(pts[0]), pts[0]
    rhs = [-(i == j - 1) for i in range(d)] if j else [1] * d
    _, x = solve([[a - b for a, b in zip(p, p0)] + [c] for p, c in zip(pts[1:], rhs)])
    g = gcd(*x)
    normal = tuple(y // g for y in x)
    # p_0 lies on every facet but the one opposite it, which holds p_1.
    return normal, sum(a * b for a, b in zip(normal, pts[0 if j else 1]))


def _hyperplane(pts, k):
    """Normal/offset through k points, or None if affinely dependent."""
    p0 = pts[0]
    rows = [[p[c] - p0[c] for c in range(k)] for p in pts[1:]]
    if mat_rank(rows) != k - 1:
        return None
    for fixed in range(k):
        system = []
        rhs = []
        for r in rows:
            system.append([r[c] for c in range(k) if c != fixed])
            rhs.append(-r[fixed])
        sol = _solve_underdetermined(system, rhs, k - 1)
        if sol is not None:
            normal = []
            it = iter(sol)
            for c in range(k):
                normal.append(Fraction(1) if c == fixed else next(it))
            offset = sum((normal[c] * p0[c] for c in range(k)), Fraction(0))
            return tuple(normal), offset
    return None


def _solve_underdetermined(system, rhs, nvars):
    """One solution of a consistent system, or None."""
    if not system:
        return [Fraction(0)] * nvars
    square = len(system) == nvars and mat_rank(system) == nvars
    if square:
        return mat_solve(system, rhs)
    aug = [list(map(Fraction, system[i])) + [Fraction(rhs[i])] for i in range(len(system))]
    pivots = []
    row = 0
    for col in range(nvars):
        piv = None
        for r in range(row, len(aug)):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                for c in range(col, nvars + 1):
                    aug[r][c] -= f * aug[row][c]
        pivots.append((row, col))
        row += 1
    for r in range(row, len(aug)):
        if aug[r][nvars] != 0:
            return None
    sol = [Fraction(0)] * nvars
    for r, c in pivots:
        sol[c] = aug[r][nvars]
    return sol


def _affine_coordinates(verts, target_dim):
    """Rational affine coordinates of coplanar points in dimension target_dim."""
    v0 = verts[0]
    k = len(v0)
    diffs = [[v[c] - v0[c] for c in range(k)] for v in verts]
    basis = []
    for d in diffs:
        if len(basis) == target_dim:
            break
        if mat_rank(basis + [d]) > len(basis):
            basis.append(d)
    if len(basis) != target_dim:
        raise InputError("points do not span the expected dimension")
    bt = [[basis[j][c] for j in range(target_dim)] for c in range(k)]
    return [tuple(_solve_overdetermined(bt, d, target_dim)) for d in diffs]


def _solve_overdetermined(rows, rhs, nvars):
    """Solve a consistent overdetermined system exactly."""
    aug = [list(rows[i]) + [Fraction(rhs[i])] for i in range(len(rows))]
    pivots = []
    row = 0
    for col in range(nvars):
        piv = None
        for r in range(row, len(aug)):
            if aug[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                for c in range(col, nvars + 1):
                    aug[r][c] -= f * aug[row][c]
        pivots.append((row, col))
        row += 1
    sol = [Fraction(0)] * nvars
    for r, c in pivots:
        sol[c] = aug[r][nvars]
    return sol
