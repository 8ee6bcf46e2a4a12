"""Dense reference versions of what `lamanmv` does on sparse monomials.

`evaluate` and `face` work on dense exponent tuples, one entry per
variable, as `polysys.Polynomial` once stored them: `dense_terms` turns
a polynomial's sparse terms into that form, and `dense` and `sparse`
convert one monomial. `evaluate` is exact over Gaussian rationals, and
`witness_by_evaluation` is the degeneracy witness done the long way:
the face system along (0,0,0,0,-1,..,-1) evaluated at the witness
point, which `polysys.witness_check` reads off in closed form.
`perfect_matching` is Kuhn's algorithm recursing once per step of an
augmenting path, which `separation._perfect_matching` replaces by an
explicit stack. The tests compare the library against these.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul


@dataclass(frozen=True)
class GaussianRational:
    """re + i*im with exact rational parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def is_zero(self):
        return self.re == 0 and self.im == 0


GR_ZERO = GaussianRational(Fraction(0))
GR_ONE = GaussianRational(Fraction(1))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def dense(nvars, monomial):
    """The dense exponent tuple of a sparse monomial."""
    expo = [0] * nvars
    for v, e in monomial:
        expo[v] = e
    return tuple(expo)


def sparse(expo):
    """The sparse monomial of a dense exponent tuple."""
    return tuple((v, e) for v, e in enumerate(expo) if e)


def dense_terms(poly):
    """The polynomial's terms as sorted (dense exponent tuple, coefficient) pairs."""
    return sorted((dense(poly.nvars, m), c) for m, c in poly.terms)


def evaluate(poly, point):
    """Exact value at a Gaussian rational point, read off dense exponents."""
    return evaluate_terms(dense_terms(poly), point)


def evaluate_terms(terms, point):
    """Exact value of (dense exponent tuple, coefficient) terms at a Gaussian rational point."""
    total = GR_ZERO
    for expo, coeff in terms:
        val = GR_ONE
        for x, e in zip(compress(point, expo), filter(None, expo)):
            for _ in range(e):
                val = val * x
        total = total + val * GaussianRational(Fraction(coeff))
    return total


def face(poly, w):
    """The dense terms minimal under the direction w."""
    terms = dense_terms(poly)
    vals = [sum(map(mul, w, expo)) for expo, _ in terms]
    lo = min(vals)
    return [t for t, v in zip(terms, vals) if v == lo]


def witness_direction(n):
    """The face direction: 0 on the pinned coordinates, -1 on the free ones."""
    return (0,) * 4 + (-1,) * (2 * n - 4)


def witness_point(soe):
    """The pinned coordinates, read off the four pinning equations, then (1, i) per free vertex."""
    point = [GaussianRational(Fraction(-p.coefficient(()))) for p in soe.polys[:4]]
    return tuple(point) + (GR_ONE, GR_I) * (soe.nvars // 2 - 2)


def witness_by_evaluation(soe):
    """True iff every face along `witness_direction` vanishes at `witness_point`.

    False for two vertices and for a point with a zero coordinate.
    """
    n = soe.nvars // 2
    point = witness_point(soe)
    if n == 2 or any(x.is_zero() for x in point):
        return False
    w = witness_direction(n)
    return all(evaluate_terms(face(p, w), point).is_zero() for p in soe.polys)


def perfect_matching(supports, k):
    """Kuhn's algorithm on the polytope/coordinate support relation, recursive."""
    match_coord = {}
    match_poly = [None] * k

    def try_assign(i, seen):
        for c in supports[i]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match_coord or try_assign(match_coord[c], seen):
                match_coord[c] = i
                match_poly[i] = c
                return True
        return False

    for i in range(k):
        if not try_assign(i, set()):
            return None
    return match_poly
