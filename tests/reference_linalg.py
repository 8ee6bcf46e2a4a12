"""Reference exact linear algebra over Fraction arithmetic.

Plain Gaussian elimination on Fraction matrices (lists of row lists).
The library eliminates only on Python ints (`lamanmv._linalg`); these
are the straightforward versions that the reference simplex and the
reference hull use, and that test_mixedvol.py compares the integer
edge-matrix determinant and leaf check against.
"""

from fractions import Fraction


def mat_det(rows):
    """Determinant by Gaussian elimination over Fractions."""
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
