"""Exact feasibility test for systems of linear inequalities.

`feasible(rows, nvars)` decides whether some x in Q^nvars satisfies
<a, x> >= b for every row (a..., b); the variables are free. The test is
phase 1 of the dense simplex method with Bland's pivoting rule, so every
run terminates and identical inputs pivot identically. The tableau is
kept fraction-free: rows are scaled to integers and every pivot is the
integer-preserving update of Bareiss (Math. Comp. 22, 1968) over one
common denominator, so no rational number is formed until the answer is
read off. An infeasible verdict comes with a Farkas vector y >= 0 with
y^T A = 0 and y^T b > 0 (the rows add up to 0 >= a positive number),
read from the cost row's artificial columns and re-verified in exact
rational arithmetic before it is returned. There are no tolerances
anywhere.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, InternalError

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class LPOutcome:
    """A verdict; an infeasible one carries its Farkas vector."""

    status: str
    certificate: Optional[tuple] = None


class _Tableau:
    """Fraction-free phase-1 simplex tableau (integer-preserving pivots).

    The rows start as the integer standard-form rows with an identity
    block for the artificials and the rhs appended. All entries are ints
    over one common denominator d > 0, so the true tableau is rows / d.
    The cost row z holds d * zscale times the true reduced costs of the
    phase-1 objective (minus the sum of the artificials of the unscaled
    rows), where zscale clears its denominators. Every entry is then, up
    to sign, a minor of the initial matrix, so the Bareiss update divides
    exactly.
    """

    def __init__(self, int_rows, ncols, scales):
        m = len(int_rows)
        self.width = ncols + m + 1  # + artificials + rhs
        self.rows = [
            row[:ncols] + [int(t == i) for t in range(m)] + [row[ncols]]
            for i, row in enumerate(int_rows)
        ]
        self.basis = [ncols + i for i in range(m)]
        self.d = 1
        # Artificial i of the scaled rows stands for s_i artificials of the
        # unscaled ones, hence cost -1/s_i. This keeps every reduced cost's
        # sign and every ratio order, so the pivots are those of the plain
        # rational tableau.
        self.zscale = math.lcm(*scales)
        z = [0] * ncols + [-(self.zscale // s) for s in scales] + [0]
        for row, s in zip(self.rows, scales):
            f = self.zscale // s
            z = [zc + f * rc for zc, rc in zip(z, row)]
        self.z = z

    def pivot(self, leave, enter):
        # The ratio test only picks a positive pivot, so d stays positive.
        prow = self.rows[leave]
        p = prow[enter]
        d = self.d

        def update(row):
            f = row[enter]
            if f:
                return [(p * a - f * b) // d for a, b in zip(row, prow)]
            if p == d:
                return row
            return [p * a // d for a in row]

        self.rows = [prow if i == leave else update(row) for i, row in enumerate(self.rows)]
        self.z = update(self.z)
        self.d = p
        self.basis[leave] = enter

    def run(self):
        """Bland's rule until phase 1 is optimal."""
        pivots = 0
        basis = self.basis
        basis_set = set(basis)
        while True:
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise InternalError("simplex pivot budget exceeded")
            z = self.z
            enter = None
            for j in range(self.width - 1):
                if z[j] > 0 and j not in basis_set:
                    enter = j
                    break
            if enter is None:
                return
            # Ratios rhs/a share the denominator d: compare cross products.
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, lrhs, la = i, row[-1], a
                        continue
                    lhs, rhs = row[-1] * la, lrhs * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, lrhs, la = i, row[-1], a
            if leave is None:
                raise InternalError("phase 1 cannot be unbounded")
            basis_set.discard(basis[leave])
            basis_set.add(enter)
            self.pivot(leave, enter)


def solve(rows, nvars):
    """Phase 1 on rows of nvars coefficients and a rhs; the certificate is not re-checked.

    Standard form: x_j = p_j - q_j, one surplus column per row, each row
    flipped to a nonnegative rhs and scaled to integers by the lcm s_i of
    its denominators.
    """
    ncols = 2 * nvars + len(rows)
    int_rows, flips, scales = [], [], []
    for i, row in enumerate(rows):
        s = math.lcm(*(x.denominator for x in row))
        a = [x.numerator * (s // x.denominator) for x in row]
        sigma = -1 if a[-1] < 0 else 1
        std = [0] * (ncols + 1)
        for j, x in enumerate(a[:-1]):
            std[2 * j] = sigma * x
            std[2 * j + 1] = -sigma * x
        std[2 * nvars + i] = -sigma * s
        std[ncols] = sigma * a[-1]
        int_rows.append(std)
        flips.append(sigma)
        scales.append(s)
    tab = _Tableau(int_rows, ncols, scales)
    tab.run()
    if any(row[-1] > 0 for row, b in zip(tab.rows, tab.basis) if b >= ncols):
        # y_i = sigma_i * (1 + s_i * (reduced cost of artificial i)): the
        # phase-1 duals of the unscaled rows, negated so that y >= 0.
        den = tab.d * tab.zscale
        cert = tuple(
            sigma * (1 + Fraction(s * tab.z[ncols + i], den))
            for i, (sigma, s) in enumerate(zip(flips, scales))
        )
        return LPOutcome(status=INFEASIBLE, certificate=cert)
    return LPOutcome(status=FEASIBLE)


def feasible(rows, nvars):
    """Is there an x in Q^nvars with <row[:nvars], x> >= row[nvars] for all rows?

    Entries are ints or Fractions. Returns FEASIBLE, or INFEASIBLE with
    a verified Farkas vector (see `verify_farkas`).
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
    combo = [sum(v * r[j] for v, r in zip(y, rows) if v) for j in range(nvars + 1)]
    return not any(combo[:nvars]) and combo[nvars] > 0
