"""Reference mixed-cell search over Fraction arithmetic.

The straightforward branch-and-prune search: an incrementally
row-reduced `AffineEliminator` holds the chosen edge equalities with
snapshot/rollback, and every node projects every active constraint row
onto the eliminator's null-space basis before the exact pruning LP
(solved by `reference_simplex`).
`lamanmv.mixedvol.enumerate_mixed_cells` must return the same cells, or
raise `NonGenericLiftingError` with the same tie cells, so the
differential test in test_mixedvol.py compares the two.
"""

from fractions import Fraction

import reference_simplex as simplex
from lamanmv import polytopes
from lamanmv.errors import InputError, InternalError, NonGenericLiftingError
from lamanmv.mixedvol import YES_STRICT, MixedCellRecord, is_mixed_cell


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def lifting_value(lifting, j, point):
    """<mu_j, point> over Fractions: the lifting that the library's integer
    lifted points stand for."""
    return _dot(lifting[j], point)


class AffineEliminator:
    """Incrementally row-reduced system of equalities <d, x> = b.

    Supports snapshot/rollback so a depth-first search can push and pop
    constraints cheaply. add() reports whether the constraint increased
    the rank; an inconsistent dependent constraint reports "conflict".
    """

    def __init__(self, dim):
        self.dim = dim
        self.pivots = []  # list of (pivot_col, coeff_row, rhs)

    def reduce(self, d, b):
        d = list(map(Fraction, d))
        b = Fraction(b)
        for col, row, rhs in self.pivots:
            f = d[col]
            if f != 0:
                for c in range(self.dim):
                    d[c] -= f * row[c]
                b -= f * rhs
        return d, b

    def add(self, d, b):
        """Add <d, x> = b. Returns 'new', 'dependent', or 'conflict'."""
        d, b = self.reduce(d, b)
        piv = None
        for c in range(self.dim):
            if d[c] != 0:
                piv = c
                break
        if piv is None:
            return "dependent" if b == 0 else "conflict"
        inv = d[piv]
        d = [v / inv for v in d]
        b = b / inv
        for i, (col, row, rhs) in enumerate(self.pivots):
            f = row[piv]
            if f != 0:
                self.pivots[i] = (
                    col,
                    [row[c] - f * d[c] for c in range(self.dim)],
                    rhs - f * b,
                )
        self.pivots.append((piv, d, b))
        return "new"

    def snapshot(self):
        return len(self.pivots), [tuple(p[1]) for p in self.pivots], [p[2] for p in self.pivots], [p[0] for p in self.pivots]

    def rollback(self, snap):
        n, rows, rhss, cols = snap
        self.pivots = [(cols[i], list(rows[i]), rhss[i]) for i in range(n)]

    def parameterization(self):
        """Return (x0, basis) with solutions x = x0 + span(basis).

        x0 sets all free coordinates to zero; basis has one vector per
        free coordinate.
        """
        pivot_cols = {col for col, _, _ in self.pivots}
        free_cols = [c for c in range(self.dim) if c not in pivot_cols]
        x0 = [Fraction(0)] * self.dim
        for col, row, rhs in self.pivots:
            x0[col] = rhs
        basis = []
        for fc in free_cols:
            v = [Fraction(0)] * self.dim
            v[fc] = Fraction(1)
            for col, row, rhs in self.pivots:
                v[col] = -row[fc]
            basis.append(v)
        return x0, basis


class ReferenceEnumerator:
    """Branch-and-prune search for all mixed cells under one lifting."""

    def __init__(self, polys, lifting):
        self.polys = list(polys)
        self.lifting = lifting
        self.k = polys[0].ambient_dim
        if len(polys) != self.k:
            raise InputError("need exactly one polytope per dimension")
        self.order = self._search_order()
        self.edge_lists = {i: polys[i].edges() for i in range(self.k)}
        # Constraint rows per polytope: vertex u off an edge (a, b) needs
        # <alpha, a - u> >= <mu, a - u>.
        self.rows = {}
        for i in range(self.k):
            per_edge = []
            for a, b in self.edge_lists[i]:
                cons = []
                for u in self.polys[i].vertices:
                    if u == a or u == b:
                        continue
                    coeff = tuple(x - y for x, y in zip(a, u))
                    cons.append((coeff, lifting_value(self.lifting, i, coeff)))
                per_edge.append(cons)
            self.rows[i] = per_edge

    def _search_order(self):
        remaining = set(range(self.k))
        supports = {i: self.polys[i].support() for i in remaining}
        edge_counts = {i: len(self.polys[i].edges()) for i in remaining}
        order = []
        covered = set()
        while remaining:
            touching = [i for i in remaining if supports[i] & covered]
            pool = touching if touching else sorted(remaining)
            pick = min(pool, key=lambda i: (edge_counts[i], i))
            order.append(pick)
            covered |= supports[pick]
            remaining.discard(pick)
        return order

    def run(self):
        cells = []
        ties = []
        elim = AffineEliminator(self.k)
        first = self.order[0]
        for idx in range(len(self.edge_lists[first])):
            self._descend(0, [(first, idx)], elim, cells, ties)
        if ties:
            raise NonGenericLiftingError(
                "lifting produced tie cells; re-seed", cells=tuple(ties)
            )
        cells.sort(key=lambda r: r.cell)
        return tuple(cells)

    def _descend(self, depth, pending, elim, cells, ties):
        poly_idx, edge_idx = pending[-1]
        a, b = self.edge_lists[poly_idx][edge_idx]
        direction = tuple(x - y for x, y in zip(a, b))
        rhs = lifting_value(self.lifting, poly_idx, direction)
        snap = elim.snapshot()
        status = elim.add(direction, rhs)
        if status != "new":
            elim.rollback(snap)
            return
        if depth + 1 == self.k:
            self._finish(pending, elim, cells, ties)
            elim.rollback(snap)
            return
        if self._prunable(pending, elim):
            elim.rollback(snap)
            return
        nxt = self.order[depth + 1]
        for idx in range(len(self.edge_lists[nxt])):
            pending.append((nxt, idx))
            self._descend(depth + 1, pending, elim, cells, ties)
            pending.pop()
        elim.rollback(snap)

    def _active_rows(self, pending):
        rows = []
        for poly_idx, edge_idx in pending:
            rows.extend(self.rows[poly_idx][edge_idx])
        return rows

    def _prunable(self, pending, elim):
        """True when an exact LP shows no touching functional exists."""
        rows = self._active_rows(pending)
        if not rows:
            return False
        alpha0, basis = elim.parameterization()
        nb = len(basis)
        reduced = []
        violated = False
        for coeff, rhs in rows:
            shifted = rhs - _dot(coeff, alpha0)
            proj = tuple(_dot(coeff, bvec) for bvec in basis)
            if all(p == 0 for p in proj):
                if shifted > 0:
                    return True  # row is fully determined and violated
                continue
            if shifted > 0:
                violated = True
            reduced.append((proj, shifted))
        if not violated:
            return False  # the particular solution already works
        cons = [(list(proj), simplex.GE, shifted) for proj, shifted in reduced]
        out = simplex.feasible(cons, nb)
        return out.status == simplex.INFEASIBLE

    def _finish(self, pending, elim, cells, ties):
        alpha0, basis = elim.parameterization()
        if basis:
            raise InternalError("leaf should determine the functional uniquely")
        margin = None
        for coeff, rhs in self._active_rows(pending):
            slack = _dot(coeff, alpha0) - rhs
            if margin is None or slack < margin:
                margin = slack
            if margin < 0:
                return
        by_poly = dict(pending)
        cell = tuple(self.edge_lists[i][by_poly[i]] for i in range(self.k))
        det = polytopes.edge_matrix_det(cell)
        if det == 0:
            raise InternalError("leaf cell has singular edge matrix")
        if margin is not None and margin == 0:
            ties.append(MixedCellRecord(cell=cell, det=det, strict=False))
            return
        if is_mixed_cell(cell, self.polys, self.lifting) != YES_STRICT:
            raise InternalError("enumerated cell failed the direct criterion")
        cells.append(MixedCellRecord(cell=cell, det=det, strict=True))


def reference_enumerate_mixed_cells(polys, lifting):
    return ReferenceEnumerator(polys, lifting).run()
