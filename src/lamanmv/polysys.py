"""Sparse polynomial systems encoding edge-length constraints.

Two systems per framework: the plain distance system ("soe", 2n quadratic
and pinning equations over x1,y1,..,xn,yn) and the substituted system
("subsoe", 3n equations with one extra variable per vertex replacing the
squared norm x_i^2 + y_i^2). Pinning fixes vertex 1 at (c1, 2), the x
coordinate of vertex 2 at l12 - c1 and its y coordinate at 3, which
removes rigid motions; c1 is 1, or 2 when l12 = 1, so no pinning
constant is zero. The builders choose the pinned edge themselves:
they relabel any framework so that its `graphs.default_base` edge
becomes (1,2). All coefficients are rational, ints where integral, and
evaluation is exact over Gaussian rationals.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import mul

from . import polytopes
from ._linalg import rational
from .errors import InputError, check_deadline
from .graphs import check_laman, default_base, edge_key, orient_two_in, relabel_with_base

FORM_SOE = "soe"
FORM_SUBSOE = "subsoe"
FORM_FACE = "face"
FORM_CUSTOM = "custom"


@dataclass(frozen=True)
class GaussianRational:
    """re + i*im with exact rational parts; `of` makes integral parts ints."""

    re: Fraction
    im: Fraction = 0

    @staticmethod
    def of(re, im=0):
        return GaussianRational(rational(re), rational(im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: exponent tuple -> nonzero rational coefficient.

    `make` keeps an integral coefficient as an int (`_linalg.rational`),
    so a system with integral lengths is evaluated in int arithmetic.
    """

    nvars: int
    terms: tuple  # sorted tuple of (exponent tuple, int or Fraction)

    @staticmethod
    def make(nvars, coeffs):
        terms = []
        for expo, c in coeffs.items():
            c = rational(c)
            if len(expo) != nvars:
                raise InputError("exponent length mismatch")
            if not (all(map(isinstance, expo, repeat(int))) and min(expo, default=0) >= 0):
                raise InputError(f"exponents must be nonnegative integers: {expo!r}")
            if c != 0:
                terms.append((expo, c))
        # A mapping holds each exponent once: nothing to merge.
        return Polynomial(nvars=nvars, terms=tuple(sorted(terms)))

    def support(self):
        return [e for e, _ in self.terms]

    def total_degree(self):
        return max((sum(e) for e, _ in self.terms), default=0)

    def coefficient(self, expo):
        for e, c in self.terms:
            if e == tuple(expo):
                return c
        return 0

    def evaluate(self, point):
        """Exact value at a Gaussian rational point."""
        if len(point) != self.nvars:
            raise InputError("point length mismatch")
        total = GR_ZERO
        for expo, coeff in self.terms:
            # The monomial over the term's variables only (compress keeps
            # point[i] where expo[i] != 0), then the coefficient.
            val = GR_ONE
            for x, e in zip(compress(point, expo), filter(None, expo)):
                for _ in range(e):
                    val = val * x
            total = total + val * GaussianRational(coeff)
        return total

    def face(self, w):
        """Terms minimal under the rational direction w (the w-face subpolynomial)."""
        if all(x == 0 for x in w):
            raise InputError("face direction must be nonzero")
        vals = [sum(map(mul, w, expo)) for expo, _ in self.terms]
        lo = min(vals)
        # A subsequence of sorted, nonzero terms needs no cleaning.
        return Polynomial(self.nvars, tuple(t for t, v in zip(self.terms, vals) if v == lo))


@dataclass(frozen=True)
class PolySystem:
    variables: tuple  # ordered variable names
    polys: tuple
    form: str = FORM_CUSTOM

    def __post_init__(self):
        for p in self.polys:
            if p.nvars != len(self.variables):
                raise InputError("polynomial/variable arity mismatch")

    @property
    def nvars(self):
        return len(self.variables)


def _soe_variables(n):
    names = []
    for i in range(1, n + 1):
        names.extend((f"x{i}", f"y{i}"))
    return tuple(names)


def _expo(nvars, pairs):
    e = [0] * nvars
    for idx, p in pairs:
        e[idx] += p
    return tuple(e)


def _pinning_polys(nvars, x1, y1, x2, y2, l12):
    c1 = 2 if l12 == 1 else 1
    mk = Polynomial.make
    return [
        mk(nvars, {_expo(nvars, [(x1, 1)]): 1, _expo(nvars, []): -c1}),
        mk(nvars, {_expo(nvars, [(y1, 1)]): 1, _expo(nvars, []): -2}),
        mk(nvars, {_expo(nvars, [(x2, 1)]): 1, _expo(nvars, []): -(l12 - c1)}),
        mk(nvars, {_expo(nvars, [(y2, 1)]): 1, _expo(nvars, []): -3}),
    ]


def _pinned(framework):
    """The framework relabelled so its default base edge is (1,2), and its length.

    Raises InputError when the graph is not Laman, before anything is
    built per vertex: a graph file may name any vertex count.
    """
    if not check_laman(framework.graph)["laman"]:
        raise InputError("graph is not Laman")
    base = default_base(framework.graph)
    if base != (1, 2):
        framework = framework.relabel(relabel_with_base(framework.graph, base)[1])
    return framework, framework.lengths[(1, 2)]


def build_soe(framework):
    """Distance system: four pinning equations, one quadratic per edge.

    Any Laman framework will do (InputError otherwise): the edge
    `graphs.default_base` picks is relabelled to (1,2) and pinned.
    Quadratics are ordered by the two-incoming-edges orientation, so the
    equations at positions 2i-1, 2i (1-based) are the in-edges of vertex
    i for every i >= 3. That ordering is what the volume certificate
    consumes.
    """
    framework, l12 = _pinned(framework)
    g = framework.graph
    n = g.n
    nvars = 2 * n
    xs = {i: 2 * (i - 1) for i in range(1, n + 1)}
    ys = {i: 2 * (i - 1) + 1 for i in range(1, n + 1)}
    polys = _pinning_polys(nvars, xs[1], ys[1], xs[2], ys[2], l12)
    orientation = orient_two_in(g, (1, 2))
    in_edges = {v: [] for v in range(3, n + 1)}
    for e, head in orientation.heads.items():
        in_edges[head].append(e)
    mk = Polynomial.make
    for v in range(3, n + 1):
        pair = sorted(in_edges[v])
        if len(pair) != 2:
            raise InputError("orientation must give exactly two in-edges")
        for i, j in pair:
            l = framework.lengths[edge_key(i, j)]
            polys.append(
                mk(
                    nvars,
                    {
                        _expo(nvars, [(xs[i], 2)]): 1,
                        _expo(nvars, [(xs[j], 2)]): 1,
                        _expo(nvars, [(xs[i], 1), (xs[j], 1)]): -2,
                        _expo(nvars, [(ys[i], 2)]): 1,
                        _expo(nvars, [(ys[j], 2)]): 1,
                        _expo(nvars, [(ys[i], 1), (ys[j], 1)]): -2,
                        _expo(nvars, []): -(l * l),
                    },
                )
            )
    return PolySystem(_soe_variables(n), tuple(polys), form=FORM_SOE)


def build_subsoe(framework):
    """Substituted system: pinning, edge equations in s_i, circle equations.

    The pinned edge is chosen and relabelled to (1,2) as in `build_soe`.
    Raises InputError when the graph is not Laman, as `build_soe` does.
    """
    framework, l12 = _pinned(framework)
    g = framework.graph
    n = g.n
    nvars = 3 * n
    xs = {i: 2 * (i - 1) for i in range(1, n + 1)}
    ys = {i: 2 * (i - 1) + 1 for i in range(1, n + 1)}
    ss = {i: 2 * n + (i - 1) for i in range(1, n + 1)}
    polys = _pinning_polys(nvars, xs[1], ys[1], xs[2], ys[2], l12)
    mk = Polynomial.make
    for i, j in sorted(g.edges - {edge_key(1, 2)}):
        l = framework.lengths[edge_key(i, j)]
        polys.append(
            mk(
                nvars,
                {
                    _expo(nvars, [(ss[i], 1)]): 1,
                    _expo(nvars, [(ss[j], 1)]): 1,
                    _expo(nvars, [(xs[i], 1), (xs[j], 1)]): -2,
                    _expo(nvars, [(ys[i], 1), (ys[j], 1)]): -2,
                    _expo(nvars, []): -(l * l),
                },
            )
        )
    for i in range(1, n + 1):
        polys.append(
            mk(
                nvars,
                {
                    _expo(nvars, [(ss[i], 1)]): 1,
                    _expo(nvars, [(xs[i], 2)]): -1,
                    _expo(nvars, [(ys[i], 2)]): -1,
                },
            )
        )
    variables = _soe_variables(n) + tuple(f"s{i}" for i in range(1, n + 1))
    return PolySystem(variables, tuple(polys), form=FORM_SUBSOE)


def supports(system):
    """Every polynomial's support, in system order.

    A polynomial's Newton polytope is the hull of its support. Raises
    InputError for a zero polynomial, which has neither.
    """
    out = [p.support() for p in system.polys]
    if not all(out):
        raise InputError("zero polynomial has no Newton polytope")
    return out


def newton_polytopes(system, deadline=None):
    """Vertex-form Newton polytope of every polynomial, in system order.

    Not on the `mv`/`report` path: `mixedvol.separation_split` splits
    the raw supports and hulls each distinct block projection once.
    Raises CapabilityError once `deadline` (a time.monotonic() value)
    has passed, checked before each hull and passed to `from_points`.
    """
    out = []
    for support in supports(system):
        check_deadline(deadline, "Newton polytopes")
        out.append(polytopes.RationalPolytope.from_points(support, deadline))
    return out


def face_system(system, w):
    """Restrict every polynomial to its w-minimal face."""
    if len(w) != system.nvars:
        raise InputError("direction length mismatch")
    if all(x == 0 for x in w):
        raise InputError("face direction must be nonzero")
    w = tuple(map(rational, w))
    return PolySystem(
        system.variables, tuple(p.face(w) for p in system.polys), form=FORM_FACE
    )


def evaluate(system, point):
    """Exact values of all polynomials at a Gaussian rational point."""
    return tuple(p.evaluate(point) for p in system.polys)


def bezout(system):
    """Product of the total degrees."""
    out = 1
    for p in system.polys:
        out *= p.total_degree()
    return out


def degeneracy_direction(n):
    """Direction that keeps pinning terms and drops edge constants."""
    return (0,) * 4 + (-1,) * (2 * n - 4)


def degeneracy_witness_point(soe):
    """The witness point of the distance system `soe`.

    Its pinned coordinates, read off the four pinning equations, then
    (1, i) for every free vertex.
    """
    zero = (0,) * soe.nvars
    pt = [GaussianRational.of(-p.coefficient(zero)) for p in soe.polys[:4]]
    pt.extend((GR_ONE, GR_I) * (soe.nvars // 2 - 2))
    return tuple(pt)


def witness_check(soe):
    """Certify that the distance system `soe` is degenerate for face counting.

    Builds the face system along (0,0,0,0,-1,..,-1) and evaluates it at
    the explicit point with nonzero complex entries; returns True iff
    every equation vanishes exactly, which makes the mixed volume a
    strict upper bound on the embedding count. A two-vertex framework
    has no free vertex and gives False.
    """
    if soe.form != FORM_SOE:
        raise InputError("the degeneracy witness needs a distance system")
    n = soe.nvars // 2
    if n == 2:
        return False  # no free vertex, so no face direction to test
    point = degeneracy_witness_point(soe)
    if any(x.is_zero() for x in point):
        return False
    faces = face_system(soe, degeneracy_direction(n))
    return all(v.is_zero() for v in evaluate(faces, point))
