"""Exact rational polytope primitives.

Polytopes are stored purely as vertex lists in Q^k. Vertex reduction,
edges and volumes share one certified face lattice on Python ints: the
points are scaled by the lcm of their denominators and projected onto
integer coordinates of their affine hull. Affinely independent points
are all vertices and collinear points reduce to their endpoints;
otherwise qhull proposes facets in floats and each is certified exactly
(an integer normal with every point on one side, the exact set of points
on it, and ridge closure: every facet of a facet lies in exactly two
facets). Only the complete facet list passes the closure check. When
qhull is missing or fails, or its proposal does not certify, the facets
come from an exhaustive search over point subsets with the same integer
checks. So the vertices (the vertices of the facets), the edges (every
vertex pair of a simplex face) and the volume (a pyramid triangulation
with integer determinants, divided by D^k * k! at the end) are exact,
and no LP runs. Each face is certified once per hull, however many
facets it lies in; `from_points` keeps the lattice on its vertices, and
a polytope built otherwise builds it on first use. Volumes are capped at
dimension 6.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd
from operator import mul

from ._linalg import echelon, int_det, scaled
from .errors import CapabilityError, InputError, check_deadline

try:  # proposes facets only; every proposal is certified exactly
    import numpy as np
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

    # "hull": (sorted distinct vertices, certified face lattice on them),
    # set by from_points or built on first use; "edges": the edge list.
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    @staticmethod
    def from_points(points, deadline=None):
        """Reduce an arbitrary point list to its extreme points, sorted.

        The certified face lattice on the vertices is kept with the
        result for `edges` and `volume_exact`. Raises CapabilityError once
        `deadline` (a time.monotonic() value) has passed, checked before
        each facet computation.
        """
        pts = [_frac_point(p) for p in points]
        if not pts:
            raise InputError("empty point list")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise InputError("inconsistent point dimensions")
        pts = sorted(set(pts))
        root = _Face(tuple(range(len(pts))), _affine(scaled(pts)[0]), _Hull(deadline))
        keep = sorted(root.vertices())
        poly = RationalPolytope(ambient_dim=dim, vertices=tuple(pts[i] for i in keep))
        poly._cache["hull"] = (poly.vertices, root.restrict({i: n for n, i in enumerate(keep)}, {}))
        return poly

    def _lattice(self, deadline=None):
        """(vertices, certified face lattice on them); the lattice's ids index the vertices."""
        hull = self._cache.get("hull")
        if hull is None:
            hull = RationalPolytope.from_points(self.vertices, deadline)._cache["hull"]
            self._cache["hull"] = hull
        return hull

    @property
    def nvertices(self):
        return len(self.vertices)

    def dim(self):
        """Affine dimension of the vertex set."""
        return self._lattice()[1].d

    def edges(self):
        """All vertex pairs forming edges, in pair order, computed once and memoized.

        The edges are the 1-faces of the face lattice: every vertex pair
        of a simplex face.
        """
        cached = self._cache.get("edges")
        if cached is None:
            verts, root = self._lattice()
            ids = root.edge_ids()
            # The lattice id of each listed vertex (-1 for a non-vertex);
            # ids compare cheaply where Fraction coordinates hash slowly.
            if verts == self.vertices:
                key = range(len(verts))
            else:
                key = [verts.index(v) if v in verts else -1 for v in self.vertices]
            cached = tuple(
                (a, b)
                for (i, a), (j, b) in itertools.combinations(zip(key, self.vertices), 2)
                if (min(i, j), max(i, j)) in ids
            )
            self._cache["edges"] = cached
        return cached

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


def is_edge(p, a, b):
    """True when conv{a, b} is an edge of p: a lookup in `p.edges()`."""
    a = _frac_point(a)
    b = _frac_point(b)
    if a == b:
        raise InputError("edge endpoints must be distinct")
    if a not in p.vertices or b not in p.vertices:
        raise InputError("edge endpoints must be vertices of the polytope")
    edges = p.edges()
    return (a, b) in edges or (b, a) in edges


def minkowski_sum(p, q, deadline=None):
    """Vertex form of P + Q via reduction of pairwise vertex sums.

    `deadline` is passed to `RationalPolytope.from_points`.
    """
    if p.ambient_dim != q.ambient_dim:
        raise InputError("Minkowski sum needs equal ambient dimensions")
    sums = [
        tuple(a[c] + b[c] for c in range(p.ambient_dim))
        for a in p.vertices
        for b in q.vertices
    ]
    return RationalPolytope.from_points(sums, deadline)


def minkowski_sum_many(polytopes, deadline=None):
    acc = polytopes[0]
    for q in polytopes[1:]:
        acc = minkowski_sum(acc, q, deadline)
    return acc


def edge_matrix_det(cell):
    """Determinant of the matrix with one edge direction per column.

    The directions, scaled to integers by the lcm D of their
    denominators, are the rows of the transposed matrix; its integer
    determinant is divided by D^k once.
    """
    dirs = cell.directions()
    k = len(dirs[0]) if dirs else 0
    if len(dirs) != k:
        raise InputError("edge count must equal the ambient dimension")
    rows, den = scaled(dirs)
    return Fraction(int_det(rows), den ** k)


def volume_exact(p, deadline=None):
    """Exact k-dimensional volume; 0 when not full-dimensional.

    The vertices are scaled to integers by the lcm D of their
    denominators, the certified face lattice is triangulated by pyramids,
    and the integer simplex determinants are summed and divided by
    D^k * k!. Raises CapabilityError once `deadline` (a time.monotonic()
    value) has passed, checked on entry and before each facet
    computation.
    """
    k = p.ambient_dim
    if k > VOLUME_DIM_CAP:
        raise CapabilityError(f"volume capped at dimension {VOLUME_DIM_CAP}")
    if k == 0:
        return Fraction(0)
    check_deadline(deadline, "hull computation")
    verts, root = p._lattice(deadline)
    if root.d < k:
        return Fraction(0)
    pts, den = scaled(verts)
    total = 0
    for simplex in root.simplices():
        a = pts[simplex[0]]
        total += abs(int_det([[x - y for x, y in zip(pts[i], a)] for i in simplex[1:]]))
    return Fraction(total, den ** k * factorial(k))


def _affine(pts):
    """Integer points projected onto coordinates of their affine hull.

    Keeping the pivot columns of the difference rows' echelon form maps
    the affine hull bijectively and linearly onto Z^d, d its dimension,
    so vertices and facets carry over by index.
    """
    p0 = pts[0]
    cols = sorted(c for c, _ in echelon([[a - b for a, b in zip(p, p0)] for p in pts[1:]]))
    return [tuple(p[c] for c in cols) for p in pts]


class _Hull:
    """What the faces of one hull share.

    `faces` maps the id set of every face built so far to its `_Face`,
    so a face lying in several facets is built and certified once;
    `deadline` is checked before each facet computation.
    """

    def __init__(self, deadline):
        self.deadline = deadline
        self.faces = {}

    def face(self, ids, pts):
        key = frozenset(ids)
        found = self.faces.get(key)
        if found is None:
            found = self.faces[key] = _Face(ids, pts, self)
        return found


class _Face:
    """Distinct integer points spanning Z^d, with their facets certified on demand.

    `ids` names each point for the caller, in increasing order. A facet
    is a `_Face` of the points on it, in the coordinates left after
    dropping one coordinate on which its normal is nonzero (a bijection
    of its hyperplane); which parent builds it does not matter.
    """

    def __init__(self, ids, pts, hull, d=None):
        self.ids = ids
        self.pts = pts
        self.hull = hull
        self.d = len(pts[0]) if d is None else d
        self._facets = None
        self._vertices = None

    def is_simplex(self):
        return len(self.ids) == self.d + 1

    def facets(self):
        if self._facets is None:
            check_deadline(self.hull.deadline, "hull computation")
            if self.d == 1:
                ends = (min(range(len(self.pts)), key=self.pts.__getitem__),
                        max(range(len(self.pts)), key=self.pts.__getitem__))
                self._facets = [self.hull.face((self.ids[i],), [()]) for i in ends]
            else:
                self._facets = _certified_facets(self) or _facets_through(
                    self, itertools.combinations(range(len(self.pts)), self.d)
                )
        return self._facets

    def restrict(self, index, memo):
        """This face on the points named in `index` only, renamed by it.

        With `index` on the vertices (old id -> new id, increasing), a
        face of a certified hull keeps its facets, so the lattice carries
        over without new checks; the coordinates are dropped, as only
        `simplices` and `edge_ids` read the copy. `memo` shares faces
        between parents.
        """
        ids = tuple(index[i] for i in self.ids if i in index)
        out = memo.get(ids)
        if out is None:
            out = memo[ids] = _Face(ids, None, None, self.d)
            if not out.is_simplex():
                out._facets = [f.restrict(index, memo) for f in self.facets()]
        return out

    def facet_ids(self):
        """The point ids of each facet (each ridge, seen from the parent)."""
        if self.is_simplex():
            return [frozenset(s) for s in itertools.combinations(self.ids, self.d)]
        return [frozenset(f.ids) for f in self.facets()]

    def vertices(self):
        """Ids of the extreme points: the vertices of the facets."""
        if self._vertices is None:
            if self.is_simplex():
                self._vertices = frozenset(self.ids)
            else:
                self._vertices = frozenset().union(*(f.vertices() for f in self.facets()))
        return self._vertices

    def simplices(self):
        """Pyramids from the first point over the facets avoiding it, recursively."""
        if self.is_simplex():
            return [self.ids]
        apex = self.ids[0]
        return [
            (apex,) + s
            for f in self.facets()
            if apex not in f.ids
            for s in f.simplices()
        ]

    def edge_ids(self):
        """Id pairs of the 1-faces: every pair of each simplex face."""
        pairs, seen, stack = set(), set(), [self]
        while stack:
            face = stack.pop()
            if face.ids in seen:
                continue
            seen.add(face.ids)
            if face.is_simplex():
                pairs.update(itertools.combinations(face.ids, 2))
            else:
                stack.extend(face.facets())
        return pairs


def _certified_facets(face):
    """The facets of a face of dimension >= 2 as proposed by qhull, or None.

    Each facet is certified by `_facets_through`; the list is complete
    when every ridge lies in exactly two of them (the facet graph of a
    polytope is connected, and each ridge joins exactly two facets).
    None when qhull is missing or fails, or the list is not complete.
    """
    if _ConvexHull is None:
        return None
    try:
        proposals = _ConvexHull(np.array(face.pts, dtype=float)).simplices.tolist()
    except Exception:  # qhull's failure only selects the exhaustive search
        return None
    facets = _facets_through(face, proposals)
    ridges = Counter(r for f in facets for r in f.facet_ids())
    if not facets or any(n != 2 for n in ridges.values()):
        return None
    return facets


def _facets_through(face, subsets):
    """Distinct facets on hyperplanes through given d-point subsets.

    A subset yields a facet when its points are affinely independent and
    every point lies on one side of their hyperplane (integer normal);
    the facet holds every point on it. Subsets inside a facet already
    found are skipped.
    """
    pts = face.pts
    found = []
    onsets = []
    for subset in subsets:
        if any(onset.issuperset(subset) for onset in onsets):
            continue
        p0 = pts[subset[0]]
        normal = _normal([[a - b for a, b in zip(pts[i], p0)] for i in subset[1:]])
        if normal is None:
            continue
        vals = [sum(map(mul, normal, p)) for p in pts]
        b = vals[subset[0]]
        if b != max(vals) and b != min(vals):
            continue
        onset = [i for i, v in enumerate(vals) if v == b]
        drop = next(c for c, x in enumerate(normal) if x)
        onsets.append(frozenset(onset))
        found.append(face.hull.face(
            tuple(face.ids[i] for i in onset),
            [pts[i][:drop] + pts[i][drop + 1:] for i in onset],
        ))
    return found


def _normal(rows):
    """Primitive integer normal to d-1 vectors in Z^d; None if dependent."""
    d = len(rows[0])
    normal = [(-1) ** j * int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
    g = gcd(*normal)
    if not g:
        return None
    return [x // g for x in normal]
