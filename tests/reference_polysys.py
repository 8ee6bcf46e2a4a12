"""Dense reference versions of what `lamanmv` now does on sparse monomials.

`evaluate` and `face` work on dense exponent tuples, one entry per
variable, as `polysys.Polynomial` once stored them: `dense_terms` turns
a polynomial's sparse terms into that form, and `dense` and `sparse`
convert one monomial. `perfect_matching` is Kuhn's algorithm recursing
once per step of an augmenting path, which `mixedvol._perfect_matching`
replaces by an explicit stack. The tests compare the library against
these.
"""

from itertools import compress
from operator import mul

from lamanmv.polysys import GR_ONE, GR_ZERO, GaussianRational


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
    total = GR_ZERO
    for expo, coeff in dense_terms(poly):
        val = GR_ONE
        for x, e in zip(compress(point, expo), filter(None, expo)):
            for _ in range(e):
                val = val * x
        total = total + val * GaussianRational(coeff)
    return total


def face(poly, w):
    """The dense terms minimal under the direction w."""
    terms = dense_terms(poly)
    vals = [sum(map(mul, w, expo)) for expo, _ in terms]
    lo = min(vals)
    return [t for t, v in zip(terms, vals) if v == lo]


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
