"""Exact rational polytope primitives.

Polytopes are stored purely as vertex lists in Q^k, a coordinate an int
when it is integral (`_linalg.rational`), so a lattice polytope holds
ints only. The constructor applies that rule to the vertices it is
given (only when some coordinate is not an int already), so a polytope
built directly from integral Fractions holds ints too. Vertex
reduction, edges and volumes share one certified face lattice on Python
ints: the points are scaled by the lcm of their denominators and
projected onto integer coordinates of their affine hull. Affinely
independent points are all vertices and collinear points reduce to their
endpoints. A face of dimension >= 3 is gift-wrapped (Chand & Kapur, JACM
1970): a facet of a projection gives the first facet, and one turn of the
hyperplane about a ridge that lies in only one facet found so far gives a
new one, until every ridge lies in two; the facet graph is connected, so
the list is complete by construction. A ridge's plane is read off the
facet it lies in: a triangle's edge in closed form, a polygon's edge from
its chain, a larger simplex's facet from one fraction-free solve. A
polygon is a leaf: its monotone chain (Andrew, IPL 1979) is one cycle of
corners, and its edges are the ridges turned about. Every facet and
polygon edge is certified on integers (no point above it), and every turn
must keep its ridge; a failed certificate is an InternalError.
So the vertices (the polygons' corners), the edges (the polygons' edges
and every vertex pair of a simplex face) and the volume (pyramids over
the facets down to each polygon's fan, with integer determinants divided
by D^k * k! at the end) are exact, with no LP and no floating point. Each
face is certified once per hull, however many facets it lies in;
`from_points` keeps the lattice, and a polytope built otherwise builds
it on first use. Volumes are capped at dimension 6.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, gcd
from operator import add, mul, sub

from ._linalg import all_int, echelon, int_det, rational, scaled, solve
from .errors import CapabilityError, InputError, InternalError, check_deadline

VOLUME_DIM_CAP = 6


@dataclass(frozen=True)
class RationalPolytope:
    """Vertex-form polytope; construct via from_points for reduction.

    Integral coordinates become ints on construction (`_linalg.rational`).
    """

    ambient_dim: int
    vertices: tuple

    # "hull": (sorted distinct points, certified face lattice on them),
    # set by from_points or built on first use; "edges": the edge list.
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self):
        if not all_int(self.vertices):
            vertices = tuple(tuple(map(rational, v)) for v in self.vertices)
            object.__setattr__(self, "vertices", vertices)

    @staticmethod
    def from_points(points, deadline=None):
        """Reduce an arbitrary point list to its extreme points, sorted.

        The certified face lattice on the points is kept with the result
        for `edges` and `volume_exact`. Raises CapabilityError once
        `deadline` (a time.monotonic() value) has passed, checked before
        each facet computation and each polygon.
        """
        pts = list(map(tuple, points))
        if not pts:
            raise InputError("empty point list")
        dim = len(pts[0])
        if {*map(len, pts)} != {dim}:
            raise InputError("inconsistent point dimensions")
        # Duplicates go and the order is fixed on the scaled integers
        # (a positive scale keeps the order); int points are their own keys.
        if all_int(pts):
            keys = sorted(set(pts))
            points = tuple(keys)
        else:
            pts = [tuple(map(rational, p)) for p in pts]
            point_of = dict(zip(scaled(pts)[0], pts))
            keys = sorted(point_of)
            points = tuple(point_of[k] for k in keys)
        root = _Face(tuple(range(len(keys))), _affine(keys), {}, deadline)
        poly = RationalPolytope(dim, tuple(points[i] for i in sorted(root.vertices())))
        poly._cache["hull"] = (points, root)
        return poly

    def _lattice(self, deadline=None):
        """(distinct points, certified face lattice on them); the lattice's ids index the points."""
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

        The edges are the 1-faces of the face lattice: the polygons'
        edges and every vertex pair of a simplex face.
        """
        cached = self._cache.get("edges")
        if cached is None:
            points, root = self._lattice()
            ids = root.edge_ids()
            pos = dict(zip(points, itertools.count()))
            key = [pos[v] for v in self.vertices]
            cached = tuple(
                (a, b)
                for (i, a), (j, b) in itertools.combinations(zip(key, self.vertices), 2)
                if (i, j) in ids or (j, i) in ids
            )
            self._cache["edges"] = cached
        return cached

    def support(self):
        """Coordinates on which some vertex is nonzero."""
        return frozenset(c for c, column in enumerate(zip(*self.vertices)) if any(column))


def is_edge(p, a, b):
    """True when conv{a, b} is an edge of p: a lookup in `p.edges()`."""
    a = tuple(map(rational, a))
    b = tuple(map(rational, b))
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
    sums = [tuple(map(add, a, b)) for a in p.vertices for b in q.vertices]
    return RationalPolytope.from_points(sums, deadline)


def edge_matrix_det(cell):
    """Determinant of the matrix with one edge direction per column.

    `cell` holds one edge (a, b) per polytope; its direction is a - b. The
    directions, scaled to integers by the lcm D of their
    denominators, are the rows of the transposed matrix; its integer
    determinant is divided by D^k once.
    """
    dirs = [tuple(map(sub, a, b)) for a, b in cell]
    k = len(dirs[0]) if dirs else 0
    if len(dirs) != k:
        raise InputError("edge count must equal the ambient dimension")
    rows, den = scaled(dirs)
    return Fraction(int_det(rows), den ** k)


def volume_exact(p, deadline=None):
    """Exact k-dimensional volume; 0 when not full-dimensional.

    The lattice's points are scaled to integers by the lcm D of their
    denominators, the certified face lattice is triangulated by pyramids
    and fans, and the integer simplex determinants are summed and divided
    by D^k * k!. Raises CapabilityError once `deadline` (a
    time.monotonic() value) has passed, checked on entry and before each
    facet computation and each polygon.
    """
    k = p.ambient_dim
    if k > VOLUME_DIM_CAP:
        raise CapabilityError(f"volume capped at dimension {VOLUME_DIM_CAP}")
    if k == 0:
        return Fraction(0)
    check_deadline(deadline, "hull computation")
    points, root = p._lattice(deadline)
    if root.d < k:
        return Fraction(0)
    pts, den = scaled(points)
    total = 0
    for simplex in root.simplices():
        a = pts[simplex[0]]
        total += abs(int_det([tuple(map(sub, pts[i], a)) for i in simplex[1:]]))
    return Fraction(total, den ** k * factorial(k))


def _affine(pts):
    """Integer points projected onto coordinates of their affine hull.

    Keeping the pivot columns of the difference rows' echelon form maps
    the affine hull bijectively and linearly onto Z^d, d its dimension,
    so vertices and facets carry over by index. Points spanning their
    whole space come back as they are.
    """
    p0 = pts[0]
    cols = sorted(c for c, _ in echelon([a - b for a, b in zip(p, p0)] for p in pts[1:]))
    if len(cols) == len(p0):
        return pts
    return [tuple(p[c] for c in cols) for p in pts]


class _Face:
    """Distinct integer points spanning Z^d, with their facets certified on demand.

    `ids` names each point for the caller, in increasing order. `faces`
    maps the ids of every face of the hull built so far to its `_Face`, so
    a face lying in several facets is built and certified once, and
    `deadline` is checked before each facet computation and each polygon.
    A face of dimension <= 2 is a leaf, with corners in place of facets.
    A facet is a `_Face` of the points on it, in the coordinates left
    after dropping the last coordinate on which its normal is nonzero, a
    bijection of its hyperplane. The coordinates kept are then the
    lexicographically first ones that parametrize the facet, so they do
    not depend on which parent builds a shared face, and a normal in a
    facet's coordinates lifts to the parent's with a zero at the dropped
    position.
    """

    def __init__(self, ids, pts, faces, deadline):
        self.ids = ids
        self.pts = pts
        self.faces = faces
        self.deadline = deadline
        self.d = len(pts[0])
        self.simplex = len(ids) == self.d + 1
        self._facets = None
        self._corners = None
        self._ridges = None
        self._planes = None  # (outer normal, offset) of each facet, in these coordinates
        self._vertices = None

    def facets(self):
        """The facets of a face of dimension >= 3, gift-wrapped."""
        if self._facets is None:
            check_deadline(self.deadline, "hull computation")
            found = _facets(self)
            p = self.pts[0]
            self._planes = [(n, sum(map(mul, n, p)) - h[0]) for n, h, _ in found]
            self._facets = [f for _, _, f in found]
        return self._facets

    def corners(self):
        """Corner ids of a face of dimension <= 2 in cycle order: a segment's ends, or a polygon's chain.

        Certificate: each edge's line has both its corners on it and no
        point above it, and the lines at a corner are not parallel, so the
        corners are vertices joined by edges, and a cycle of distinct ones
        is all of them.
        """
        if self._corners is None:
            check_deadline(self.deadline, "hull computation")
            pts = self.pts
            if self.d == 1:
                cycle = [pts.index(min(pts)), pts.index(max(pts))]
            else:
                chain = _chain(pts)
                cycle = [u for u, _, _ in chain]
                if len(set(cycle)) < len(cycle):
                    raise InternalError("a polygon's chain repeats a corner")
                px, py = chain[-1][1]
                for (u, (nx, ny), off), v in zip(chain, cycle[1:] + cycle[:1]):
                    heights = [nx * x + ny * y - off for x, y in pts]
                    if max(heights) > 0 or heights[u] or heights[v] or px * ny == py * nx:
                        raise InternalError("a polygon edge is not certified")
                    px, py = nx, ny
                self._planes = [(n, off) for _, n, off in chain]
            self._corners = [self.ids[i] for i in cycle]
        return self._corners

    def ridges(self):
        """The ids of each facet, for a face of dimension >= 2, listed once; a simplex builds no facets.

        A polygon's j-th ridge is the edge leaving its j-th corner, named by its corners.
        """
        if self._ridges is None:
            if self.simplex:
                self._ridges = [self.ids[:v] + self.ids[v + 1:] for v in range(len(self.ids))]
            elif self.d <= 2:
                c = self.corners()
                self._ridges = [(min(u, v), max(u, v)) for u, v in zip(c, c[1:] + c[:1])]
            else:
                self._ridges = [f.ids for f in self.facets()]
        return self._ridges

    def plane(self, j):
        """(outer normal, offset) of the facet listed j-th by `ridges`.

        For a triangle, the facet opposite corner j is the line through
        the other two corners, its primitive normal turned away from
        corner j. For a larger simplex, with p_1 - p_0, ..., p_d - p_0 as
        the rows of R, the normal of the facet opposite p_j solves
        R x = -e_j (j >= 1), and that of the facet opposite p_0 solves
        R x = 1.
        """
        if not self.simplex:
            return self._planes[j]
        if self.d == 2:
            (rx, ry), (px, py), (qx, qy) = self.pts[j], *self.pts[:j], *self.pts[j + 1:]
            nx, ny = qy - py, px - qx
            off = nx * px + ny * py
            g = gcd(nx, ny) if nx * rx + ny * ry < off else -gcd(nx, ny)
            return (nx // g, ny // g), off // g
        p0 = self.pts[0]
        rhs = [-(i == j - 1) for i in range(self.d)] if j else [1] * self.d
        _, x = solve([[a - b for a, b in zip(p, p0)] + [c] for p, c in zip(self.pts[1:], rhs)])
        g = gcd(*x)
        normal = tuple(y // g for y in x)
        # p_0 lies on every facet but the one opposite it, which holds p_1.
        return normal, sum(map(mul, normal, self.pts[0 if j else 1]))

    def vertices(self):
        """Ids of the extreme points: the corners, or the vertices of the facets."""
        if self._vertices is None:
            if self.simplex:
                self._vertices = frozenset(self.ids)
            elif self.d <= 2:
                self._vertices = frozenset(self.corners())
            else:
                self._vertices = frozenset().union(*(f.vertices() for f in self.facets()))
        return self._vertices

    def simplices(self):
        """Pyramids from the first point over the facets avoiding it, down to fans from first corners."""
        if self.simplex:
            return [self.ids]
        if self.d <= 2:
            c = self.corners()
            return [(c[0], *c[j:j + self.d]) for j in range(1, len(c) - self.d + 1)]
        apex = self.ids[0]
        return [
            (apex,) + s
            for f in self.facets()
            if apex not in f.ids
            for s in f.simplices()
        ]

    def edge_ids(self):
        """Id pairs of the 1-faces: every pair of each simplex face, and the polygons' edges."""
        pairs, seen, stack = set(), set(), [self]
        while stack:
            face = stack.pop()
            if face.ids in seen:
                continue
            seen.add(face.ids)
            if face.simplex:
                pairs.update(itertools.combinations(face.ids, 2))
            elif face.d <= 2:
                pairs.update(face.ridges())
            else:
                stack.extend(face.facets())
        return pairs


def _facets(face):
    """(outer normal, heights, facet) of every facet of a face of dimension >= 3.

    Gift wrapping (Chand & Kapur 1970): a first facet from `_first_plane`,
    then one turn about each ridge that lies in only one facet found so
    far, with the ridge's normal read off that facet (`_Face.plane`) and
    lifted. The facet graph is connected, so no facet is missed. Heights
    are normal.p - offset, one per point; `_facet` certifies each plane,
    and each turn must keep its ridge.
    """
    pts = face.pts
    cols = list(zip(*pts))
    normal, heights = _first_plane(pts)
    found = [(normal, heights, _facet(face, normal, heights))]
    known = {found[0][2]}
    # Ridges seen in exactly one facet found so far: only these are turned
    # about, so every turn must reach a new facet.
    unmatched = set(found[0][2].ridges())
    for normal, heights, facet in found:
        drop = _drop(normal)
        fcols = cols[:drop] + cols[drop + 1:]
        for j, ridge in enumerate(facet.ridges()):
            if ridge not in unmatched:
                continue
            rnormal, roff = facet.plane(j)
            # b = roff - lift.p, built one point column at a time.
            b = [roff] * len(pts)
            for x, col in zip(rnormal, fcols):
                if x:
                    b = [y - x * c for y, c in zip(b, col)]
            turned = _turn(normal, heights, [-x for x in rnormal[:drop] + (0,) + rnormal[drop:]], b)
            new = _facet(face, *turned)
            if not set(ridge).issubset(new.ids):
                raise InternalError("a turn about a ridge reached a plane off the ridge")
            if new in known:
                raise InternalError("a turn about an unmatched ridge reached a known facet")
            known.add(new)
            found.append(turned + (new,))
            unmatched.symmetric_difference_update(new.ridges())
    return found


def _facet(face, normal, heights):
    """The facet of `face` on a plane, certified: no height above 0, and every point at 0 on it."""
    if max(heights) > 0:
        raise InternalError("a facet plane leaves points on both sides")
    onset = [i for i, h in enumerate(heights) if not h]
    ids = tuple(face.ids[i] for i in onset)
    found = face.faces.get(ids)
    if found is None:
        drop = _drop(normal)
        pts = [face.pts[i][:drop] + face.pts[i][drop + 1:] for i in onset]
        found = face.faces[ids] = _Face(ids, pts, face.faces, face.deadline)
    return found


def _drop(normal):
    """The last coordinate on which a normal is nonzero."""
    c = len(normal) - 1
    while not normal[c]:
        c -= 1
    return c


def _chain(pts):
    """(corner, outer primitive normal, offset of the edge to the next corner) of points spanning Z^2.

    The corners come in cycle order. The lower and upper chains keep only
    strict left turns, so every vertex is a corner and no edge is listed twice.
    """
    order = sorted(range(len(pts)), key=pts.__getitem__)
    cycle = []
    for seq in (order, order[::-1]):
        half = []
        for i in seq:
            (x, y) = pts[i]
            while len(half) > 1:
                (x0, y0), (x1, y1) = pts[half[-2]], pts[half[-1]]
                if (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0) > 0:
                    break
                half.pop()
            half.append(i)
        cycle += half[:-1]
    chain = []
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        (x0, y0), (x1, y1) = pts[u], pts[v]
        g = gcd(y1 - y0, x1 - x0)
        nx, ny = (y1 - y0) // g, (x0 - x1) // g
        chain.append((u, (nx, ny), nx * x0 + ny * y0))
    return chain


def _first_plane(pts):
    """(outer normal, heights) of one facet of integer points spanning Z^k, k >= 1.

    A facet of the projection that drops the last coordinate lifts to a
    supporting vertical plane. It is a facet when the points on it span
    k - 1 dimensions; otherwise they span a ridge, and one turn about it
    reaches a facet.
    """
    if len(pts[0]) == 1:
        top = max(p[0] for p in pts)
        return (1,), [p[0] - top for p in pts]
    normal, heights = _first_plane([p[:-1] for p in pts])
    normal += (0,)
    on = [pts[i] for i, h in enumerate(heights) if not h]
    basis = [row for _, row in echelon([[x - y for x, y in zip(p, on[0])] for p in on[1:]])]
    if len(basis) == len(normal) - 1:
        return normal, heights
    m = _normal(basis + [list(normal)])
    r = sum(map(mul, m, on[0]))
    return _turn(normal, heights, m, [sum(map(mul, m, p)) - r for p in pts])


def _turn(normal, heights, m, b):
    """Turn a supporting plane about a ridge until it meets a point: (normal, heights) there.

    `heights` (normal.p - offset, all <= 0) and `b` (m.p + const) both
    vanish on the ridge, and `b` is >= 0 on the plane. The point c below
    the plane that maximises the angle is kept (p replaces c when
    a_c*b_p - a_p*b_c > 0, with a the heights; a point on the plane,
    a_p = 0 and b_p >= 0, never does, so every point takes one
    comparison); the new normal is a_c*m - b_c*normal and its heights
    a_c*b - b_c*a, both divided by the normal's gcd.
    """
    ac = min(heights)
    bc = b[heights.index(ac)]
    for ap, bp in zip(heights, b):
        if ac * bp - ap * bc > 0:
            ac, bc = ap, bp
    new = [ac * y - bc * x for x, y in zip(normal, m)]
    g = gcd(*new)
    return tuple(x // g for x in new), [(ac * y - bc * x) // g for x, y in zip(heights, b)]


def _normal(rows):
    """Primitive integer normal to d-1 independent vectors in Z^d."""
    d = len(rows[0])
    normal = [(-1) ** j * int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(d)]
    g = gcd(*normal)
    return tuple(x // g for x in normal)
