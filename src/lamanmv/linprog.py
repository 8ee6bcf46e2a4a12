"""Exact rational linear programming.

Dense two-phase simplex with Bland's pivoting rule, so every run
terminates and identical inputs pivot identically. The tableau is kept
fraction-free: rows are scaled to integers and every pivot is the
integer-preserving update of Bareiss (Math. Comp. 22, 1968) over one
common denominator, so no rational number is formed until the answer is
read off. Optima come with exact dual vectors read from the cost row's
artificial columns (reduced costs <= 0 at the returned basis),
infeasible systems come with a Farkas combination read the same way.
Both are re-verified in exact rational arithmetic before they are
returned. There are no tolerances anywhere.

Variables are free by default. Bounds of (0, None) become plain
nonnegative columns; any other bound is folded into constraint rows
during normalization. Certificates refer to the normalized row list
(original constraints first, generated bound rows appended in variable
order).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InputError, InternalError

LE, EQ, GE = "<=", "=", ">="

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"

FREE = "free"
NONNEG = "nonneg"

_MAX_PIVOTS = 200_000
_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to rows (coeffs, rel, rhs).

    bounds, when given, holds one (lower, upper) pair per variable with
    None meaning unbounded on that side. Variables default to free.
    """

    objective: tuple
    constraints: tuple
    bounds: Optional[tuple] = None

    @staticmethod
    def make(objective, constraints, bounds=None):
        obj = tuple(_frac(c) for c in objective)
        rows = []
        for coeffs, rel, rhs in constraints:
            if rel not in (LE, EQ, GE):
                raise InputError(f"unknown relation {rel!r}")
            coeffs = tuple(_frac(c) for c in coeffs)
            if len(coeffs) != len(obj):
                raise InputError("constraint row length mismatch")
            rows.append((coeffs, rel, _frac(rhs)))
        bnds = None
        if bounds is not None:
            if len(bounds) != len(obj):
                raise InputError("bounds length mismatch")
            bnds = tuple(
                (None if lo is None else _frac(lo), None if hi is None else _frac(hi))
                for lo, hi in bounds
            )
        return LinearProgram(obj, tuple(rows), bnds)

    def normalized(self):
        """(rows, kinds): bound rows folded in, variable sign kinds."""
        rows = list(self.constraints)
        n = len(self.objective)
        kinds = [FREE] * n
        if self.bounds is not None:
            for j, (lo, hi) in enumerate(self.bounds):
                if lo == 0 and hi is None:
                    kinds[j] = NONNEG
                    continue
                unit = tuple(Fraction(int(i == j)) for i in range(n))
                if lo is not None:
                    rows.append((unit, GE, lo))
                if hi is not None:
                    rows.append((unit, LE, hi))
        return rows, kinds


@dataclass(frozen=True)
class LPOutcome:
    status: str
    point: Optional[tuple] = None
    value: Optional[Fraction] = None
    certificate: Optional[tuple] = None


class _Tableau:
    """Fraction-free simplex tableau (integer-preserving pivots).

    The rows start as the integer standard-form rows with an identity
    block for the artificials and the rhs appended. All entries are ints
    over one common denominator d > 0, so the true tableau is rows / d.
    The cost row z holds d * zscale times the true reduced costs (and
    minus the objective value in the rhs column), where zscale clears
    the denominators of the installed cost vector. Every entry is then,
    up to sign, a minor of the initial matrix, so the Bareiss update
    divides exactly.
    """

    def __init__(self, int_rows, ncols):
        m = len(int_rows)
        self.ncols = ncols
        self.width = ncols + m + 1  # + artificials + rhs
        self.rows = [
            row[:ncols] + [int(t == i) for t in range(m)] + [row[ncols]]
            for i, row in enumerate(int_rows)
        ]
        self.basis = [ncols + i for i in range(m)]
        self.d = 1
        self.z = None
        self.zscale = 1

    def set_cost(self, cost):
        """Install a rational cost vector, one entry per non-rhs column."""
        zscale = math.lcm(*(c.denominator for c in cost))
        cint = [c.numerator * (zscale // c.denominator) for c in cost]
        z = [self.d * c for c in cint] + [0]
        for row, b in zip(self.rows, self.basis):
            f = cint[b]
            if f:
                z = [zc - f * rc for zc, rc in zip(z, row)]
        self.z = z
        self.zscale = zscale

    def pivot(self, leave, enter):
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
        if p < 0:  # keep d > 0 so that signs of entries are true signs
            self.rows = [[-a for a in row] for row in self.rows]
            self.z = [-a for a in self.z]
            p = -p
        self.d = p
        self.basis[leave] = enter

    def run(self, allow_artificials):
        """Bland's rule until optimal or unbounded."""
        pivots = 0
        basis = self.basis
        basis_set = set(basis)
        limit = self.ncols if not allow_artificials else self.width - 1
        while True:
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise InternalError("simplex pivot budget exceeded")
            z = self.z
            enter = None
            for j in range(limit):
                if z[j] > 0 and j not in basis_set:
                    enter = j
                    break
            if enter is None:
                return "optimal"
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
                return ("unbounded", enter)
            basis_set.discard(basis[leave])
            basis_set.add(enter)
            self.pivot(leave, enter)

    def entry(self, i, col):
        return Fraction(self.rows[i][col], self.d)


def solve(lp):
    """Exact simplex solve of a LinearProgram.

    Optimal: point, value and the dual row vector (certificate).
    Infeasible: Farkas row combination as certificate.
    Unbounded: a feasible point plus an improving ray as certificate.
    """
    if not isinstance(lp, LinearProgram):
        raise InputError("solve expects a LinearProgram")
    obj = [_frac(c) for c in lp.objective]
    nvars = len(obj)
    rows, kinds = lp.normalized()
    m = len(rows)

    # Standard form: free x_j = p_j - q_j, nonneg x_j single column,
    # slack per inequality, rhs made nonnegative by row flips, and each
    # row scaled to integers by the lcm s_i of its denominators.
    var_cols = []
    col = 0
    for j in range(nvars):
        if kinds[j] == NONNEG:
            var_cols.append((col,))
            col += 1
        else:
            var_cols.append((col, col + 1))
            col += 2
    nslack = sum(1 for _, rel, _ in rows if rel != EQ)
    ncols = col + nslack
    flips = []
    scales = []
    int_rows = []
    slack_col = col
    for coeffs, rel, rhs in rows:
        sigma = -1 if rhs < 0 else 1
        s = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
        row = [0] * (ncols + 1)
        for j, a in enumerate(coeffs):
            if a != 0:
                a = sigma * a.numerator * (s // a.denominator)
                cols = var_cols[j]
                row[cols[0]] = a
                if len(cols) == 2:
                    row[cols[1]] = -a
        if rel != EQ:
            row[slack_col] = sigma * s if rel == LE else -sigma * s
            slack_col += 1
        row[ncols] = sigma * rhs.numerator * (s // rhs.denominator)
        flips.append(sigma)
        scales.append(s)
        int_rows.append(row)

    # Phase 1 minimizes the sum of the unscaled artificials; artificial i
    # of the scaled rows stands for s_i of them, hence cost -1/s_i. This
    # keeps every reduced cost's sign and every ratio order, so the pivots
    # are those of the plain rational tableau.
    tab = _Tableau(int_rows, ncols)
    tab.set_cost([_ZERO] * ncols + [Fraction(-1, s) for s in scales])
    res = tab.run(allow_artificials=True)
    if res != "optimal":
        raise InternalError("phase 1 cannot be unbounded")

    def certificate(art_cost):
        # Row duals y_i = c_art - s_i * (reduced cost of artificial i):
        # artificial i of the scaled rows is 1/s_i times the unit column
        # of the unscaled standard form, so its reduced cost on the cost
        # row is (c_art - y_i) / s_i. Flipped rows flip their dual.
        den = tab.d * tab.zscale
        return tuple(
            sigma * (art_cost - Fraction(s * tab.z[ncols + i], den))
            for i, (sigma, s) in enumerate(zip(flips, scales))
        )

    if any(tab.rows[i][-1] > 0 for i in range(m) if tab.basis[i] >= ncols):
        cert = certificate(-1)
        if not verify_farkas(lp, cert):
            raise InternalError("invalid Farkas certificate produced")
        return LPOutcome(status=INFEASIBLE, certificate=cert)

    # Drive leftover zero-level artificials out of the basis; rows that
    # stay artificial are identically zero and therefore inert.
    for i in range(m):
        if tab.basis[i] >= ncols:
            row = tab.rows[i]
            for j in range(ncols):
                if row[j] != 0:
                    tab.pivot(i, j)
                    break

    cost2 = [_ZERO] * (ncols + m)
    for j in range(nvars):
        cols = var_cols[j]
        cost2[cols[0]] = obj[j]
        if len(cols) == 2:
            cost2[cols[1]] = -obj[j]
    tab.set_cost(cost2)
    res = tab.run(allow_artificials=False)

    def from_columns(xs):
        return tuple(
            xs[cols[0]] - xs[cols[1]] if len(cols) == 2 else xs[cols[0]]
            for cols in var_cols
        )

    def current_point():
        xs = [_ZERO] * ncols
        for i in range(m):
            if tab.basis[i] < ncols:
                xs[tab.basis[i]] = tab.entry(i, -1)
        return from_columns(xs)

    if res != "optimal":
        _, enter = res
        ray = [_ZERO] * ncols
        ray[enter] = _ONE
        for i in range(m):
            if tab.basis[i] < ncols:
                ray[tab.basis[i]] = -tab.entry(i, enter)
        return LPOutcome(status=UNBOUNDED, point=current_point(), certificate=from_columns(ray))

    point = current_point()
    value = sum((obj[j] * point[j] for j in range(nvars)), _ZERO)
    out = LPOutcome(status=OPTIMAL, point=point, value=value, certificate=certificate(0))
    _self_check_optimal(rows, kinds, obj, out)
    return out


def feasible(constraints, nvars, bounds=None):
    """Phase-one wrapper: zero objective over the given constraints."""
    lp = LinearProgram.make([0] * nvars, constraints, bounds)
    return solve(lp)


def _residual_and_value(rows, y, n):
    resid = [_ZERO] * n
    val = _ZERO
    for (coeffs, rel, rhs), yi in zip(rows, y):
        if yi != 0:
            for j in range(n):
                if coeffs[j] != 0:
                    resid[j] += yi * coeffs[j]
            val += yi * rhs
    return resid, val


def _signs_ok(rows, y):
    for (coeffs, rel, rhs), yi in zip(rows, y):
        if rel == LE and yi < 0:
            return False
        if rel == GE and yi > 0:
            return False
    return True


def _self_check_optimal(rows, kinds, obj, out):
    """Exact feasibility and duality checks on a claimed optimum."""
    x = out.point
    for j, kind in enumerate(kinds):
        if kind == NONNEG and x[j] < 0:
            raise InternalError("optimal point violates a sign condition")
    for coeffs, rel, rhs in rows:
        lhs = sum((c * v for c, v in zip(coeffs, x)), _ZERO)
        ok = lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs
        if not ok:
            raise InternalError("optimal point violates a constraint")
    y = out.certificate
    if not _signs_ok(rows, y):
        raise InternalError("dual sign violated")
    resid, dual_val = _residual_and_value(rows, y, len(obj))
    for j, kind in enumerate(kinds):
        if kind == FREE and resid[j] != obj[j]:
            raise InternalError("dual equality y^T A = c violated")
        if kind == NONNEG and resid[j] < obj[j]:
            raise InternalError("dual inequality y^T A >= c violated")
    if dual_val != out.value:
        raise InternalError("duality gap is nonzero")


def verify_farkas(lp, certificate):
    """Exact check that a Farkas vector certifies infeasibility."""
    rows, kinds = lp.normalized()
    n = len(lp.objective)
    y = certificate
    if len(y) != len(rows):
        return False
    if not _signs_ok(rows, y):
        return False
    resid, val = _residual_and_value(rows, y, n)
    for j, kind in enumerate(kinds):
        if kind == FREE and resid[j] != 0:
            return False
        if kind == NONNEG and resid[j] < 0:
            return False
    return val < 0
