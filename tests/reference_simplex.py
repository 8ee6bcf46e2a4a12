"""Reference exact simplex over Fraction arithmetic.

The straightforward dense two-phase Bland simplex on LinearPrograms with
`<=`, `=` and `>=` rows, free, nonnegative or bounded variables and an
objective: every tableau entry is a Fraction, and the duals come from
solving y^T B = c_B against the original standard-form columns. Optima
are checked for feasibility and zero duality gap, Farkas certificates
for validity. `lamanmv.linprog.feasible` must agree with its phase 1 on
free `>=` rows (same verdict, and both Farkas vectors verify), and the
reference hull, edge and enumerator code solves its LPs here.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from reference_linalg import mat_solve
from lamanmv.errors import InputError, InternalError

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
    """Simplex tableau with an incrementally maintained cost row."""

    def __init__(self, arows, brhs, nstruct):
        self.m = len(arows)
        self.ncols = nstruct
        self.width = nstruct + self.m + 1  # + artificials + rhs
        self.rows = []
        for i in range(self.m):
            row = list(arows[i])
            row.extend(_ONE if t == i else _ZERO for t in range(self.m))
            row.append(brhs[i])
            self.rows.append(row)
        self.basis = [nstruct + i for i in range(self.m)]
        self.z = None

    def set_cost(self, cost):
        z = list(cost) + [_ZERO]
        for i in range(self.m):
            f = z[self.basis[i]]
            if f != 0:
                row = self.rows[i]
                for c in range(self.width):
                    if row[c] != 0:
                        z[c] -= f * row[c]
        self.z = z

    def pivot(self, leave, enter):
        row = self.rows[leave]
        nonzero = [c for c in range(self.width) if row[c] != 0]
        inv = row[enter]
        if inv != 1:
            for c in nonzero:
                row[c] /= inv
        for target in self.rows + [self.z]:
            if target is not row:
                f = target[enter]
                if f != 0:
                    for c in nonzero:
                        target[c] -= f * row[c]
        self.basis[leave] = enter

    def run(self, allow_artificials):
        """Bland's rule until optimal or unbounded."""
        pivots = 0
        basis_set = set(self.basis)
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
            leave = None
            best = None
            rhs_col = self.width - 1
            for i in range(self.m):
                a = self.rows[i][enter]
                if a > 0:
                    ratio = self.rows[i][rhs_col] / a
                    if best is None or ratio < best or (
                        ratio == best and self.basis[i] < self.basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave is None:
                return ("unbounded", enter)
            basis_set.discard(self.basis[leave])
            basis_set.add(enter)
            self.pivot(leave, enter)

    def rhs(self, i):
        return self.rows[i][self.width - 1]


def solve(lp):
    """Exact simplex solve of a LinearProgram (reference version)."""
    if not isinstance(lp, LinearProgram):
        raise InputError("solve expects a LinearProgram")
    obj = [Fraction(c) for c in lp.objective]
    nvars = len(obj)
    rows, kinds = lp.normalized()
    m = len(rows)

    flips = []
    arows = []
    brhs = []
    rels = []
    for coeffs, rel, rhs in rows:
        sigma = 1
        coeffs = list(coeffs)
        rhs = Fraction(rhs)
        if rhs < 0:
            sigma = -1
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
        flips.append(sigma)
        arows.append(coeffs)
        brhs.append(rhs)
        rels.append(rel)

    var_cols = []
    col = 0
    for j in range(nvars):
        if kinds[j] == NONNEG:
            var_cols.append((col,))
            col += 1
        else:
            var_cols.append((col, col + 1))
            col += 2
    nslack = sum(1 for r in rels if r != EQ)
    ncols = col + nslack
    std_rows = []
    slack_col = col
    for i in range(m):
        row = [_ZERO] * ncols
        for j in range(nvars):
            a = arows[i][j]
            if a != 0:
                cols = var_cols[j]
                row[cols[0]] = a
                if len(cols) == 2:
                    row[cols[1]] = -a
        if rels[i] != EQ:
            row[slack_col] = _ONE if rels[i] == LE else -_ONE
            slack_col += 1
        std_rows.append(row)

    tab = _Tableau(std_rows, brhs, ncols)
    cost1 = [_ZERO] * ncols + [-_ONE] * m
    tab.set_cost(cost1)
    res = tab.run(allow_artificials=True)
    if res != "optimal":
        raise InternalError("phase 1 cannot be unbounded")
    art_mass = sum(tab.rhs(i) for i in range(m) if tab.basis[i] >= ncols)
    if art_mass > 0:
        y = _basis_duals(std_rows, tab.basis, cost1, m, ncols)
        cert = tuple(flips[i] * y[i] for i in range(m))
        if not verify_farkas(lp, cert):
            raise InternalError("invalid Farkas certificate produced")
        return LPOutcome(status=INFEASIBLE, certificate=cert)

    for i in range(m):
        if tab.basis[i] >= ncols:
            for j in range(ncols):
                if tab.rows[i][j] != 0:
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

    def current_point():
        xs = [_ZERO] * ncols
        for i in range(m):
            if tab.basis[i] < ncols:
                xs[tab.basis[i]] = tab.rhs(i)
        out = []
        for j in range(nvars):
            cols = var_cols[j]
            out.append(xs[cols[0]] - xs[cols[1]] if len(cols) == 2 else xs[cols[0]])
        return tuple(out)

    if res != "optimal":
        _, enter = res
        ray = [_ZERO] * ncols
        ray[enter] = _ONE
        for i in range(m):
            if tab.basis[i] < ncols:
                ray[tab.basis[i]] = -tab.rows[i][enter]
        ray_pt = []
        for j in range(nvars):
            cols = var_cols[j]
            ray_pt.append(ray[cols[0]] - ray[cols[1]] if len(cols) == 2 else ray[cols[0]])
        return LPOutcome(status=UNBOUNDED, point=current_point(), certificate=tuple(ray_pt))

    point = current_point()
    value = sum((obj[j] * point[j] for j in range(nvars)), _ZERO)
    y = _basis_duals(std_rows, tab.basis, cost2, m, ncols)
    cert = tuple(flips[i] * y[i] for i in range(m))
    out = LPOutcome(status=OPTIMAL, point=point, value=value, certificate=cert)
    _self_check_optimal(rows, kinds, obj, out)
    return out


def _basis_duals(std_rows, basis, cost, m, ncols):
    """Solve y^T B = c_B^T against the original standard-form columns."""

    def col_entry(i, j):
        if j < ncols:
            return std_rows[i][j]
        return _ONE if i == j - ncols else _ZERO

    system = [[col_entry(i, basis[r]) for i in range(m)] for r in range(m)]
    cb = [cost[basis[r]] for r in range(m)]
    y = mat_solve(system, cb)
    if y is None:
        raise InternalError("singular basis while extracting duals")
    return y

def feasible(constraints, nvars, bounds=None):
    """Phase-one wrapper: zero objective over the given constraints."""
    return solve(LinearProgram.make([0] * nvars, constraints, bounds))


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
