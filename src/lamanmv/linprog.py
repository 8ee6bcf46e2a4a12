"""Exact feasibility test for systems of linear inequalities.

`feasible(rows, nvars)` decides whether some x in Q^nvars satisfies
<a, x> >= b for every row (a..., b); the variables are free. By Farkas'
lemma exactly one of A x >= b and the Farkas system A^T y = 0,
b^T y = 1, y >= 0 has a solution, and the test runs phase 1 of the dense
simplex method on the latter: nvars + 1 equality rows with right-hand
sides 0 and 1, one nonnegative column per input row and one artificial
per equality row, whose identity block stays implicit (`solve`). Int
rows, the only rows the mixed-cell search passes, enter the tableau as
they are; when some entry is a Fraction, each row is scaled to integers
by the lcm of its denominators. Bland's pivoting rule makes every run
terminate and pivot identically on identical inputs; every pivot is the
integer-preserving update of Bareiss (Math. Comp. 22, 1968). A positive
phase-1 optimum means A x >= b is feasible. A zero one means it is not, and the basic
columns give an int Farkas vector y >= 0 with y^T A = 0 and y^T b > 0
(the rows add up to 0 >= a positive number), verified exactly before
it is returned. There are no tolerances anywhere.
"""

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

from ._linalg import all_int
from .errors import InputError, InternalError

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LPOutcome:
    """A verdict; an infeasible one carries its Farkas vector."""

    status: str
    certificate: Optional[tuple] = None


def solve(rows, nvars):
    """Phase 1 on the Farkas system of rows of nvars coefficients and a rhs.

    Column j is row j times the lcm s_j of its denominators; int rows
    are used as given (s_j = 1). A tableau row holds the m column
    entries and the rhs; the artificials' identity block stays implicit,
    basis index m + i naming artificial i, so one that leaves never
    re-enters. No verdict changes: every solution of the Farkas system
    has all artificials zero. Entries are ints over one common
    denominator d > 0, each a minor of the initial matrix up to sign, so
    the Bareiss update divides exactly. z is d times the cost row of
    minus the sum of the artificials (z_j > 0: column j lowers the sum),
    with d times the sum last. Certificates are not re-checked here.
    """
    m = len(rows)
    if all_int(rows):
        scales, cols = [1] * m, rows
    else:
        scales = [math.lcm(*[x.denominator for x in row]) for row in rows]
        cols = [[(x * s).numerator for x in row] for row, s in zip(rows, scales)]
    tab = [[col[i] for col in cols] + [int(i == nvars)] for i in range(nvars + 1)]
    z = [sum(col) for col in cols] + [1]
    basis = list(range(m, m + nvars + 1))
    d = 1
    for _ in range(_MAX_PIVOTS):
        # A basic column has z_j = 0, so the first positive entry is Bland's choice.
        enter = next((j for j, zj in enumerate(z[:-1]) if zj > 0), None)
        if enter is None:
            break
        # Ratios rhs/a share the denominator d: compare cross products.
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is not None:
                    lhs, rhs = row[-1] * la, lrhs * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                        continue
                leave, lrhs, la = i, row[-1], a
        if leave is None:
            raise InternalError("phase 1 cannot be unbounded")
        # The ratio test only picks a positive pivot, so d stays positive.
        prow = tab[leave]
        p = prow[enter]

        def update(row):
            f = row[enter]
            if f:
                return [(p * a - f * b) // d for a, b in zip(row, prow)]
            if p == d:
                return row
            return [p * a // d for a in row]

        tab = [prow if i == leave else update(row) for i, row in enumerate(tab)]
        z = update(z)
        d = p
        basis[leave] = enter
    else:
        raise InternalError("simplex pivot budget exceeded")
    if z[-1]:
        return LPOutcome(status=FEASIBLE)
    # y_j = s_j * (value of column j) / d, with the positive 1/d dropped.
    values = {j: row[-1] for row, j in zip(tab, basis)}
    return LPOutcome(INFEASIBLE, tuple(s * values.get(j, 0) for j, s in enumerate(scales)))


def feasible(rows, nvars):
    """Is there an x in Q^nvars with <row[:nvars], x> >= row[nvars] for all rows?

    Entries are ints or Fractions. Returns FEASIBLE, or INFEASIBLE with
    a verified int Farkas vector (see `verify_farkas`).
    """
    rows = [tuple(r) for r in rows]
    if any(len(r) != nvars + 1 for r in rows):
        raise InputError("each row needs nvars coefficients and a right-hand side")
    out = solve(rows, nvars)
    if out.status == INFEASIBLE and not verify_farkas(rows, nvars, out.certificate):
        raise InternalError("invalid Farkas certificate produced")
    return out


def verify_farkas(rows, nvars, y):
    """Exact check that y >= 0, y^T A = 0 and y^T b > 0, so no x satisfies A x >= b."""
    if len(y) != len(rows) or any(v < 0 for v in y):
        return False
    combo = [sum(map(mul, y, column)) for column in zip(*rows)]
    return len(combo) > nvars and not any(combo[:nvars]) and combo[nvars] > 0
