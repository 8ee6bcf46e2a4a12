"""Small exact linear algebra helpers on Python-int rows.

A coordinate is an int when it is integral and a Fraction only when it
is not (`rational`). Int points pass `scaled` as they are; other points
become integers there, in one place, and no Fraction is built inside an
elimination. All elimination is fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 1968): `solve` and `int_det` share one forward elimination, except
that `int_det` expands orders 2 and 3 in closed form. The
dimensions in this package stay below ~40, so an elimination takes no
deadline: the certificate of order 2n is read off in closed form
(`mixedvol.certify_general_bound`).
"""

import math
from fractions import Fraction
from itertools import chain, repeat


def rational(x):
    """x as an int when it is integral, else as a Fraction."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def all_int(points):
    """True when every coordinate of every point is an int."""
    return all(map(isinstance, chain.from_iterable(points), repeat(int)))


def eliminate(row, col, pivot):
    """Clear row[col] with a pivot row whose pivot entry is positive.

    The fraction-free step p*row - row[col]*pivot multiplies the row by
    p > 0 and adds a multiple of an equality, so an inequality row keeps
    its meaning; the gcd of the result is divided out.
    """
    f = row[col]
    if not f:
        return row
    p = pivot[col]
    out = [p * x - f * y for x, y in zip(row, pivot)]
    g = math.gcd(*out)
    if g > 1:
        out = [x // g for x in out]
    return out


def echelon(rows):
    """Integer row echelon form as (pivot column, pivot row) pairs.

    Each pivot row is zero on the columns of the pivots before it and
    positive on its own; the number of pairs is the rank.
    """
    pivots = []
    for v in rows:
        for col, p in pivots:
            v = eliminate(v, col, p)
        col = next((c for c, x in enumerate(v) if x), None)
        if col is not None:
            pivots.append((col, v if v[col] > 0 else [-x for x in v]))
            if len(pivots) == len(v):
                break
    return pivots


def scaled(points):
    """Integer points D*p for the lcm D of all denominators, and D (int points as they are)."""
    if all_int(points):
        return list(map(tuple, points)), 1
    den = math.lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points], den


def _forward(a):
    """Bareiss elimination in place, right-hand sides included; the row-swap sign, 0 if singular."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pk = a[k][k]
        for r in range(k + 1, n):
            ar, ark = a[r], a[r][k]
            for c in range(k + 1, len(ar)):
                ar[c] = (pk * ar[c] - ark * a[k][c]) // prev
        prev = pk
    return sign


def int_det(rows):
    """Determinant of a square integer matrix: closed form at orders 2 and 3, else Bareiss elimination."""
    n = len(rows)
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if n == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    a = [list(r) for r in rows]
    return _forward(a) * a[-1][-1] if a else 1


def solve(rows):
    """(D, X) with D > 0 and x = X/D solving n integer rows (coeffs..., rhs), or None if singular.

    D is |det| and X the Cramer numerators, integers, so each back
    substitution step divides exactly.
    """
    a = [list(r) for r in rows]
    n = len(a)
    den = abs(_forward(a) * a[-1][n - 1]) if a else 1
    if not den:
        return None
    x = [0] * n
    for i in range(n - 1, -1, -1):
        ai = a[i]
        x[i] = (den * ai[n] - sum(ai[c] * x[c] for c in range(i + 1, n))) // ai[i]
    return den, x
