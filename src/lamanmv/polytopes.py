"""Exact rational polytope primitives.

Polytopes are stored purely as vertex lists in Q^k. Vertex reduction and
edge tests are LP-certified, so the geometry layer inherits the solver's
exactness. Volumes (needed only by the low-dimensional oracle paths) go
through exact facet enumeration and recursive pyramid triangulation,
capped at dimension 6.
"""

import itertools
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import linprog
from ._linalg import mat_det, mat_rank, mat_solve
from .errors import CapabilityError, InputError

try:  # proposes facet candidates only; every candidate is re-certified
    from scipy.spatial import ConvexHull as _ConvexHull
except Exception:  # pragma: no cover
    _ConvexHull = None

VOLUME_DIM_CAP = 6


def _frac_point(p):
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in p)


@dataclass(frozen=True)
class RationalPolytope:
    """Vertex-form polytope; construct via from_points for reduction."""

    ambient_dim: int
    vertices: tuple

    _edge_cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, compare=False, repr=False, hash=False)

    @staticmethod
    def from_points(points):
        """Reduce an arbitrary point list to its extreme points."""
        pts = [_frac_point(p) for p in points]
        if not pts:
            raise InputError("empty point list")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise InputError("inconsistent point dimensions")
        pts = sorted(set(pts))
        verts = tuple(p for p in pts if _is_extreme(p, pts))
        return RationalPolytope(ambient_dim=dim, vertices=verts)

    @property
    def nvertices(self):
        return len(self.vertices)

    def dim(self):
        """Affine dimension of the vertex set."""
        if self.nvertices <= 1:
            return 0
        v0 = self.vertices[0]
        rows = [[v[c] - v0[c] for c in range(self.ambient_dim)] for v in self.vertices[1:]]
        return mat_rank(rows)

    def edges(self):
        """All vertex pairs forming edges, computed once and memoized.

        Every vertex pair of a simplex is an edge; otherwise each pair is
        certified by one exact LP.
        """
        with self._lock:
            cached = self._edge_cache.get("edges")
            if cached is not None:
                return cached
        pairs = itertools.combinations(self.vertices, 2)
        if self.dim() == self.nvertices - 1:
            # Affinely independent vertices: every pair spans an edge.
            result = tuple(pairs)
        else:
            result = tuple((a, b) for a, b in pairs if is_edge(self, a, b))
        with self._lock:
            self._edge_cache["edges"] = result
        return result

    def translate(self, shift):
        shift = _frac_point(shift)
        return RationalPolytope(
            self.ambient_dim,
            tuple(tuple(v[c] + shift[c] for c in range(self.ambient_dim)) for v in self.vertices),
        )

    def project(self, coords):
        """Orthogonal projection onto the listed coordinates (re-reduced)."""
        pts = [tuple(v[c] for c in coords) for v in self.vertices]
        return RationalPolytope.from_points(pts)

    def scale(self, factor):
        f = Fraction(factor)
        return RationalPolytope(
            self.ambient_dim,
            tuple(tuple(f * x for x in v) for v in self.vertices),
        )

    def support(self):
        """Coordinates on which some vertex is nonzero."""
        return frozenset(
            c for c in range(self.ambient_dim) if any(v[c] != 0 for v in self.vertices)
        )


@dataclass(frozen=True)
class EdgeCell:
    """One chosen edge per polytope, as ordered vertex pairs."""

    edges: tuple  # tuple of ((point, point), ...) aligned with the polytope list

    def directions(self):
        return [
            tuple(a[c] - b[c] for c in range(len(a))) for a, b in self.edges
        ]


def hull_vertices(points):
    """RationalPolytope with exactly the extreme points of the input."""
    return RationalPolytope.from_points(points)


def _is_extreme(p, pts):
    others = [q for q in pts if q != p]
    if not others:
        return True
    dim = len(p)
    # p is a vertex iff it is not a convex combination of the others.
    # A coordinate on which every other point equals p needs no row: the
    # sum row already implies it.
    rows = []
    for c in range(dim):
        if any(q[c] != p[c] for q in others):
            rows.append(([q[c] for q in others], linprog.EQ, p[c]))
    rows.append(([Fraction(1)] * len(others), linprog.EQ, Fraction(1)))
    out = linprog.feasible(rows, len(others), bounds=[(0, None)] * len(others))
    return out.status == linprog.INFEASIBLE


def is_edge(p, a, b):
    """LP test: some functional is minimal exactly on conv{a, b}.

    Feasibility with a strict margin: maximize t <= 1 subject to
    <w, a> = <w, b> and <w, v> >= <w, a> + t for every other vertex v.
    """
    a = _frac_point(a)
    b = _frac_point(b)
    if a == b:
        raise InputError("edge endpoints must be distinct")
    if a not in p.vertices or b not in p.vertices:
        raise InputError("edge endpoints must be vertices of the polytope")
    k = p.ambient_dim
    nvars = k + 1  # w plus margin t
    rows = [([a[c] - b[c] for c in range(k)] + [Fraction(0)], linprog.EQ, 0)]
    for v in p.vertices:
        if v == a or v == b:
            continue
        rows.append(([v[c] - a[c] for c in range(k)] + [Fraction(-1)], linprog.GE, 0))
    rows.append(([Fraction(0)] * k + [Fraction(1)], linprog.LE, 1))
    obj = [Fraction(0)] * k + [Fraction(1)]
    out = linprog.solve(linprog.LinearProgram.make(obj, rows))
    return out.status == linprog.OPTIMAL and out.value > 0


def minkowski_sum(p, q):
    """Vertex form of P + Q via reduction of pairwise vertex sums."""
    if p.ambient_dim != q.ambient_dim:
        raise InputError("Minkowski sum needs equal ambient dimensions")
    sums = [
        tuple(a[c] + b[c] for c in range(p.ambient_dim))
        for a in p.vertices
        for b in q.vertices
    ]
    return RationalPolytope.from_points(sums)


def minkowski_sum_many(polytopes):
    acc = polytopes[0]
    for q in polytopes[1:]:
        acc = minkowski_sum(acc, q)
    return acc


def edge_matrix_det(cell):
    """Determinant of the matrix with one edge direction per column."""
    dirs = cell.directions()
    k = len(dirs[0]) if dirs else 0
    if len(dirs) != k:
        raise InputError("edge count must equal the ambient dimension")
    cols = [[dirs[j][i] for j in range(k)] for i in range(k)]
    return mat_det(cols)


def volume_exact(p):
    """Exact k-dimensional volume; 0 when not full-dimensional.

    Facets are enumerated exactly (a float hull proposes candidates,
    every candidate is certified against the exact point set, and a
    gift-wrapping repair pass closes any ridge left with one facet);
    the polytope is then triangulated by pyramids and the simplex
    determinants summed. The returned value is an exact rational.
    """
    k = p.ambient_dim
    if k > VOLUME_DIM_CAP:
        raise CapabilityError(f"volume capped at dimension {VOLUME_DIM_CAP}")
    if k == 0:
        return Fraction(0)
    verts = list(p.vertices)
    if len(verts) <= k:
        return Fraction(0)
    if k == 1:
        xs = [v[0] for v in verts]
        return max(xs) - min(xs)
    if p.dim() < k:
        return Fraction(0)
    total = Fraction(0)
    for simplex in _triangulate(tuple(verts), k):
        v0 = verts[simplex[0]]
        rows = [[verts[i][c] - v0[c] for c in range(k)] for i in simplex[1:]]
        total += abs(mat_det(rows))
    return total / factorial(k)


def _triangulate(verts, k):
    """Index triangulation of a full-dimensional polytope.

    Pyramids from the first vertex over every facet avoiding it; facets
    are triangulated recursively in exact affine coordinates.
    """
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
    """Indices of the two extreme points of collinear points."""
    lo = min(range(len(pts)), key=lambda i: pts[i])
    hi = max(range(len(pts)), key=lambda i: pts[i])
    return (lo, hi)


_QHULL_MIN_POINTS = 10


def _facet_enumeration(verts, k):
    """All facets of a full-dimensional polytope as vertex index tuples.

    Exact regardless of how candidates are proposed: each facet is a
    supporting-hyperplane onset computed rationally, and the ridge
    pairing condition (every ridge in exactly two facets) is enforced
    by wrapping around deficient ridges.
    """
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
    """Ridges of a facet as index tuples into verts."""
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
    """All facets by exhaustive supporting-hyperplane search.

    Iterates over k-subsets, skipping subsets inside facets already
    found; sound for any dimension but only meant for small inputs.
    """
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


def _hyperplane(pts, k):
    """Normal/offset through k points, or None if affinely dependent."""
    p0 = pts[0]
    rows = [[p[c] - p0[c] for c in range(k)] for p in pts[1:]]
    if mat_rank(rows) != k - 1:
        return None
    # Find a nonzero solution of rows . n = 0 by fixing one coordinate.
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
    # Row-reduce and back-substitute with free variables at zero.
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
    # Greedily pick a basis among the difference vectors.
    basis = []
    for d in diffs:
        if len(basis) == target_dim:
            break
        if mat_rank(basis + [d]) > len(basis):
            basis.append(d)
    if len(basis) != target_dim:
        raise InputError("points do not span the expected dimension")
    # Coordinates solve basis^T . x = diff in the least-structure sense:
    # project using k x target_dim system (consistent by construction).
    out = []
    bt = [[basis[j][c] for j in range(target_dim)] for c in range(k)]
    for d in diffs:
        sol = _solve_overdetermined(bt, d, target_dim)
        out.append(tuple(sol))
    return out


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
