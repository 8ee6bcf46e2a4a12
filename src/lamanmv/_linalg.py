"""Small exact linear algebra helpers.

`mat_det` and `mat_solve` are plain Gaussian elimination over Fraction
matrices (lists of row lists). The integer helpers are fraction-free
(Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968): the mixed-cell search and the
polytope hulls keep Python-int rows and never build a Fraction. The
dimensions in this package stay below ~40.
"""

import math
from fractions import Fraction


def mat_det(rows):
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] / inv
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def mat_solve(rows, rhs):
    """Solve A x = b exactly; returns None if A is singular."""
    n = len(rows)
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[i][n] for i in range(n)]


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


def int_det(rows):
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(r) for r in rows]
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
            for c in range(k + 1, n):
                ar[c] = (pk * ar[c] - ark * a[k][c]) // prev
        prev = pk
    return sign * a[-1][-1] if n else 1
