"""Small exact linear algebra helpers over Fraction matrices.

Matrices are lists of row lists of Fractions. Everything here is plain
Gaussian elimination (determinant, solve, rank); the dimensions in this
package stay below ~40. The mixed-cell search keeps its own integer,
fraction-free row elimination in mixedvol.
"""

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

