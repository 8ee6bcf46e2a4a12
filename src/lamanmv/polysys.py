"""Sparse polynomial systems encoding edge-length constraints.

Two systems per framework: the plain distance system ("soe", 2n quadratic
and pinning equations over x1,y1,..,xn,yn) and the substituted system
("subsoe", 3n equations with one extra variable per vertex replacing the
squared norm x_i^2 + y_i^2). Pinning fixes vertex 1 at (c1, 2), the x
coordinate of vertex 2 at l12 - c1 and its y coordinate at 3, which
removes rigid motions; c1 is 1, or 2 when l12 = 1, so no pinning
constant is zero. The builders choose the pinned edge themselves:
they relabel any framework so that its `graphs.default_base` edge
becomes (1,2). All coefficients are rational, ints where integral.

The mixed volume of a system is at most its multihomogeneous Bezout
number for any partition of the variables (`multihomogeneous_bezout`).
The one-part number is the degree product (`bezout`), 4^(n-2) for the
distance system. The substituted system is partitioned by vertex,
{x_i, y_i, s_i} for each vertex i, restricted to a coordinate block
(`variable_parts`; `block_bezout` counts a block). A free vertex's
circle equation has degree 2 in its part and an edge equation degree 1
in each endpoint's, so the product of the blocks' numbers is 2^(n-2)
times the number of orientations of the graph minus the pinned edge
that give every free vertex two in-edges and the pinned ones none
(Bartzos, Emiris & Schicho, AAECC 31, 2020).

Every equation of both systems touches at most two vertices, so a
monomial is stored sparsely, as its (variable index, exponent) pairs
with a positive exponent, in increasing variable order, and every
reading of a polynomial visits only the variables its terms hold.
Building and reading a system is linear in its terms; dense exponent
tuples, one entry per variable, are built only where a format asks for
them: the hulls of `newton_polytopes` and the `system` listings.
"""

from dataclasses import dataclass

from . import polytopes
from ._linalg import rational
from .errors import InputError, check_deadline
from .graphs import check_laman, default_base, edge_key, orient_two_in, relabel_with_base

FORM_SOE = "soe"
FORM_SUBSOE = "subsoe"
FORM_CUSTOM = "custom"


def dense_exponents(nvars, monomial):
    """The exponent tuple of a sparse monomial, one entry per variable."""
    expo = [0] * nvars
    for v, e in monomial:
        expo[v] = e
    return tuple(expo)


def _sort_key(nvars, monomial):
    """The order of a monomial's dense exponent tuple, after checking its form.

    At the first variable where two monomials differ, the dense order
    puts first the one without it, or with the smaller exponent there,
    and lists of pairs (-variable, exponent) compare the same way.
    Raises InputError unless the monomial is a tuple of (variable,
    exponent) pairs, variables increasing below `nvars` and exponents
    positive ints.
    """
    key, last = [], -1
    try:
        if type(monomial) is not tuple:
            raise TypeError
        for v, e in monomial:
            if type(v) is not int or not last < v < nvars:
                raise InputError(f"monomial variables must be increasing indices below {nvars}: "
                                 f"{monomial!r}")
            if type(e) is not int or e < 1:
                raise InputError(f"exponents must be positive integers: {monomial!r}")
            key.append((-v, e))
            last = v
    except (TypeError, ValueError):
        raise InputError(f"a monomial is a tuple of (variable, exponent) pairs: {monomial!r}")
    return key


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial: sparse monomial -> nonzero rational coefficient.

    A monomial is a tuple of (variable index, exponent) pairs, indices
    strictly increasing and below `nvars`, exponents positive ints; the
    constant monomial is (). `terms` lists the terms in the order of
    their dense exponent tuples. `make` keeps an integral coefficient as
    an int (`_linalg.rational`), so a system with integral lengths holds
    ints only.
    """

    nvars: int
    terms: tuple  # sorted tuple of (monomial, int or Fraction)

    @staticmethod
    def make(nvars, coeffs):
        keyed = []
        for monomial, c in coeffs.items():
            key = _sort_key(nvars, monomial)
            c = rational(c)
            if c != 0:
                keyed.append((key, monomial, c))
        # A mapping holds each monomial once: nothing to merge, and no two
        # keys tie.
        keyed.sort()
        return Polynomial(nvars=nvars, terms=tuple([(m, c) for _, m, c in keyed]))

    def support(self):
        return [m for m, _ in self.terms]

    def total_degree(self):
        top = 0
        for monomial, _ in self.terms:
            degree = 0
            for _, e in monomial:
                degree += e
            top = max(top, degree)
        return top

    def coefficient(self, monomial):
        monomial = tuple(monomial)
        for m, c in self.terms:
            if m == monomial:
                return c
        return 0


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


def _build(framework, form, equations):
    """The builder core: the system `form` of the pinned framework.

    x_i and y_i sit at xs[i] = 2i - 2 and ys[i] = 2i - 1 and, in the
    substituted system, s_i at ss[i] = 2n + i - 1 (`variable_parts` reads
    this layout). The pinning equations x1 = c1, y1 = 2, x2 = l12 - c1 and
    y2 = 3 come first, then one polynomial per coefficient mapping that
    `equations(framework, xs, ys, ss)` yields.
    """
    framework, l12 = _pinned(framework)
    n = framework.graph.n
    xs, ys, ss = range(-2, 2 * n, 2), range(-1, 2 * n, 2), range(2 * n - 1, 3 * n)
    names = [f"{c}{i}" for i in range(1, n + 1) for c in "xy"]
    if form == FORM_SUBSOE:
        names += [f"s{i}" for i in range(1, n + 1)]
    nvars = len(names)
    c1 = 2 if l12 == 1 else 1
    polys = [Polynomial.make(nvars, {((v, 1),): 1, (): -c}) for v, c in enumerate((c1, 2, l12 - c1, 3))]
    polys += [Polynomial.make(nvars, coeffs) for coeffs in equations(framework, xs, ys, ss)]
    return PolySystem(tuple(names), tuple(polys), form=form)


def build_soe(framework):
    """Distance system: four pinning equations, one quadratic per edge.

    Any Laman framework will do (InputError otherwise): the edge
    `graphs.default_base` picks is relabelled to (1,2) and pinned.
    Quadratics are ordered by the two-incoming-edges orientation, so the
    equations at positions 2i-1, 2i (1-based) are the in-edges of vertex
    i for every i >= 3. That ordering is what the volume certificate
    consumes.
    """
    return _build(framework, FORM_SOE, _distance_equations)


def _distance_equations(framework, xs, ys, _):
    g = framework.graph
    in_edges = {v: [] for v in range(3, g.n + 1)}
    for e, head in orient_two_in(g, (1, 2)).heads.items():
        in_edges[head].append(e)
    for v in range(3, g.n + 1):
        for i, j in sorted(in_edges[v]):
            l = framework.lengths[edge_key(i, j)]
            xi, xj, yi, yj = xs[i], xs[j], ys[i], ys[j]
            yield {
                ((xi, 2),): 1,
                ((xj, 2),): 1,
                ((xi, 1), (xj, 1)): -2,
                ((yi, 2),): 1,
                ((yj, 2),): 1,
                ((yi, 1), (yj, 1)): -2,
                (): -(l * l),
            }


def build_subsoe(framework):
    """Substituted system: pinning, edge equations in s_i, circle equations.

    The pinned edge is chosen and relabelled to (1,2) as in `build_soe`.
    Raises InputError when the graph is not Laman, as `build_soe` does.
    """
    return _build(framework, FORM_SUBSOE, _substituted_equations)


def _substituted_equations(framework, xs, ys, ss):
    g = framework.graph
    for i, j in sorted(g.edges - {edge_key(1, 2)}):
        l = framework.lengths[edge_key(i, j)]
        yield {
            ((ss[i], 1),): 1,
            ((ss[j], 1),): 1,
            ((xs[i], 1), (xs[j], 1)): -2,
            ((ys[i], 1), (ys[j], 1)): -2,
            (): -(l * l),
        }
    for i in range(1, g.n + 1):
        yield {((ss[i], 1),): 1, ((xs[i], 2),): -1, ((ys[i], 2),): -1}


# The system forms and their builders: the `--form` choices, in order.
BUILDERS = {FORM_SOE: build_soe, FORM_SUBSOE: build_subsoe}


def supports(system):
    """Every polynomial's support, in system order, as sparse monomials.

    A polynomial's Newton polytope is the hull of its support. Raises
    InputError for a zero polynomial, which has neither.
    """
    out = [p.support() for p in system.polys]
    if not all(out):
        raise InputError("zero polynomial has no Newton polytope")
    return out


def newton_polytopes(system, deadline=None):
    """Vertex-form Newton polytope of every polynomial, in system order.

    Not on the `mv`/`report` path: `separation.separation_split` splits
    the raw supports and hulls each distinct block projection once.
    Raises CapabilityError once `deadline` (a time.monotonic() value)
    has passed, checked before each hull and passed to `from_points`.
    """
    out = []
    for support in supports(system):
        check_deadline(deadline, "Newton polytopes")
        points = [dense_exponents(system.nvars, m) for m in support]
        out.append(polytopes.RationalPolytope.from_points(points, deadline))
    return out


def bezout(system):
    """Product of the total degrees: the one-part `multihomogeneous_bezout`."""
    return multihomogeneous_bezout([[p.total_degree()] for p in system.polys], [system.nvars])


def variable_parts(system, coords):
    """The partition of the coordinates `coords` that `block_bezout` uses.

    Parts are lists of positions in `coords`. For the substituted system
    they group x_i, y_i and s_i by vertex i, in vertex order; any other
    system gets one part.
    """
    if system.form != FORM_SUBSOE:
        return [range(len(coords))]
    n = system.nvars // 3
    parts = {}
    for pos, c in enumerate(coords):
        # `_build` puts x_i, y_i at 2i - 2, 2i - 1 and s_i at 2n + i - 1.
        parts.setdefault(c - 2 * n if c >= 2 * n else c // 2, []).append(pos)
    return [parts[v] for v in sorted(parts)]


def block_bezout(system, coords, point_sets, deadline=None):
    """The multihomogeneous Bezout number of a coordinate block of `system`.

    `point_sets` holds the block's supports or polytope vertices,
    projected onto `coords`. The parts are `variable_parts`, and d(P, g),
    the degree of P in part g, is the largest sum of a point's
    coordinates in g. Each P then lies in the sum over g of d(P, g) times
    the unit simplex on g's coordinates, since the points are
    nonnegative, so by monotonicity this number bounds the block's mixed
    volume from above. Deadline as in `multihomogeneous_bezout`.
    """
    parts = variable_parts(system, coords)
    degrees = [[max(sum(map(p.__getitem__, g)) for p in pts) for g in parts] for pts in point_sets]
    return multihomogeneous_bezout(degrees, list(map(len, parts)), deadline)


def multihomogeneous_bezout(degrees, sizes, deadline=None):
    """Coefficient of prod_g z_g^sizes[g] in prod_P sum_g degrees[P][g] z_g.

    A polytope P of positive degree in one part only takes a slot of that
    part and multiplies the count by its degree. An exact integer DP runs
    over the others, sorted by (last part, first part) so that parts close
    early: its state is the slots still free in the open parts. A part
    opens at its first polytope and leaves the state after its last one,
    full, or the state is dropped. Raises CapabilityError once `deadline`
    (a time.monotonic() value) has passed, checked before each polytope.
    """
    free = list(sizes)
    count, shared = 1, []
    for row in degrees:
        check_deadline(deadline, "Bezout count")
        span = [g for g, d in enumerate(row) if d]
        if not span:
            return 0
        if len(span) == 1:
            count *= row[span[0]]
            free[span[0]] -= 1
        else:
            shared.append((span, row))
    shared.sort(key=lambda item: (item[0][-1], item[0][0]))
    last = {g: step for step, (span, _) in enumerate(shared) for g in span}
    if any(n < 0 or (n and g not in last) for g, n in enumerate(free)):
        return 0
    counts = {(): count}  # free slots of the open parts, in `opened` order -> count
    opened = []
    for step, (span, row) in enumerate(shared):
        check_deadline(deadline, "Bezout count")
        for g in span:
            if g not in opened:
                opened.append(g)
                counts = {s + (free[g],): c for s, c in counts.items()}
        moves = [(opened.index(g), row[g]) for g in span]
        after = {}
        for s, c in counts.items():
            for j, d in moves:
                if s[j]:
                    t = (*s[:j], s[j] - 1, *s[j + 1:])
                    after[t] = after.get(t, 0) + c * d
        counts = after
        for g in span:
            if last[g] == step:
                j = opened.index(g)
                counts = {(*s[:j], *s[j + 1:]): c for s, c in counts.items() if not s[j]}
                opened.pop(j)
    return counts.get((), 0)


def witness_check(soe):
    """Certify that the distance system `soe` is degenerate for face counting.

    The face direction is (0,0,0,0,-1,..,-1): a polynomial's face keeps
    its terms of top degree in the free coordinates. The witness point
    holds the pinned coordinates, read off the four pinning equations,
    and (1, i) for every free vertex, so a term's value there is a
    rational, its coefficient times powers of the pinned coordinates,
    times i^k for k its degree in the free y's. A face vanishes exactly
    when its rationals for k = 0 and k = 2 (mod 4) have equal sums, and
    so do those for k = 1 and k = 3. Returns True iff every face
    vanishes at a point with no zero coordinate, which makes the mixed
    volume a strict upper bound on the embedding count (Bernstein,
    Funct. Anal. Appl. 9, 1975). A two-vertex framework has no free
    vertex and gives False.
    """
    if soe.form != FORM_SOE:
        raise InputError("the degeneracy witness needs a distance system")
    if soe.nvars // 2 == 2:
        return False  # no free vertex, so no face direction to test
    pinned = [-p.coefficient(()) for p in soe.polys[:4]]
    if 0 in pinned:
        return False
    for p in soe.polys:
        top, sums = 0, [0, 0, 0, 0]  # the face's rationals, summed by k mod 4
        for monomial, value in p.terms:
            free = k = 0
            for v, e in monomial:
                if v < 4:
                    value *= pinned[v] ** e
                else:
                    free += e
                    k += e * (v % 2)  # the y coordinates sit at odd indices
            if free > top:
                top, sums = free, [0, 0, 0, 0]
            if free == top:
                sums[k % 4] += value
        if sums[0] != sums[2] or sums[1] != sums[3]:
            return False
    return True
