"""Mixed volumes via coherent subdivisions and certified mixed cells.

The engine enumerates the fully mixed cells of the subdivision induced
by per-polytope linear liftings. A cell is one edge per polytope; it
belongs to the subdivision iff some linear functional touches the lifted
sum exactly along those edges. Enumeration is a depth-first search over
edge choices, pruned by (a) linear independence of the chosen edge
directions and (b) exact infeasibility of the touching functional.
Every constraint row is the difference of two integer lifted points
(`_lifted`), eliminated fraction-free against the chosen edge
equalities. Each pivot deletes its column once it is eliminated, so a
row holds only the free columns and its rhs, and each pivot is kept in
the coordinates of its depth. A node's differences of a polytope's
lifted points are its parent's reduced by its one pivot, built once
and shared by its whole subtree (MixedVol, Gao, Li & Wu, ACM TOMS 31,
2005, likewise works in the variables each level leaves). A node's
children read these from one table that holds each pair once, with a
sign for each end, and fold the sign into their elimination. A node
keeps one row per direction, the coefficient part divided by its gcd:
of two parallel rows only the tighter one, with the larger rhs/gcd,
since parallel rows stay parallel under every later elimination and
the looser one is implied for good.
Only where the particular solution violates a row is infeasibility
tested, in three steps: first against the row of the opposite direction,
if any, which together with it may sum to 0 >= a positive number (the
pairwise test of MixedVol's relation table); then along one ray, the
sum of the violated rows' directions, on which some point may satisfy
every row (`_ray_point`), and the node is feasible; only then by an
exact LP. That LP (`linprog.feasible` on the rows as they are, phase 1
on their Farkas system, with one tableau row per free column plus one
and the artificial columns left implicit) is the only one in the
engine: the edges come from the certified face lattices of
`polytopes`, and the cell checks here solve by `_linalg.solve`.
Each complete cell gets its one verdict from `is_mixed_cell`, whose
touching test (`_touching`, one face per polytope) lifts the points
afresh, solves its edge equalities on their own and shares no
elimination with the search: a zero margin at a non-edge vertex means
the lifting is non-generic and the caller re-seeds. The search
runs in one thread: its exact Python arithmetic holds the GIL,
so threads cannot speed it up.

Given an upper bound on the mixed volume (`_mv_for_system` passes each
block's `polysys.block_bezout`), the search stops as soon as its strict
cells' |det| sum meets the bound, and a sum above it raises
InternalError. The output cannot change: the accepted cells are
distinct fine mixed cells, so their sum is at most the mixed volume,
itself at most the bound, and at equality no further cell exists. Nor
does a tie: the mixed volume sums, over the cells of the lifted
subdivision, the mixed volumes of their faces, and a tie cell's faces
contain its edges, so it would add at least its |det|. The full search
would have returned the same sorted cells, without a re-seed.

The mixed volume is the sum of |det| of the edge matrices over all
mixed cells. Repeated polytopes are handled by replication with
independent liftings. Coordinate-block products (one polytope group
supported on its own coordinates) are split off beforehand
(`separation.separation_split`, re-exported here), which is what makes
the substituted vertex systems tractable. The split reads the
polynomials' raw supports, so no hull is built in the full 2n- or
3n-dim space, and it hulls each distinct projected point set once.
Identical blocks are also solved once per system: numbered in
construction order, a degree-2-built graph's substituted system splits
into n + 4 blocks of which only 2 differ, six 1-dim ones and n - 2
copies of one 3-dim one, so the split builds no more hulls as n grows.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub
from typing import Optional

from . import linprog, polysys, polytopes
from ._linalg import eliminate, scaled, solve
from .errors import (
    CapabilityError,
    InputError,
    InternalError,
    NonGenericLiftingError,
    check_deadline,
)
from .polysys import BUILDERS, FORM_SOE, FORM_SUBSOE, bezout, supports
from .separation import separation_split

# The search runs no float LP. The benchmark tracer (perfbench/tracing.py)
# still looks this name up for its "mixedvol.highs" span and skips it
# while it is None.
_scipy_linprog = None

MAX_LIFTING_RETRIES = 32

METHOD_ENUMERATION = "enumeration"
METHOD_SEPARATION = "separation+enumeration"
METHOD_CERTIFICATE = "certificate"
METHOD_ORACLE = "inclusion_exclusion"

YES_STRICT = "yes_strict"
YES_TIE = "yes_tie"
NO = "no"


@dataclass(frozen=True)
class MixedCellRecord:
    cell: tuple  # one edge (a, b) per polytope, as ordered vertex pairs
    det: Fraction
    strict: bool


@dataclass(frozen=True)
class BlockResult:
    polytope_indices: tuple
    coordinates: tuple
    value: Fraction
    cells: tuple
    seed_used: Optional[int]


@dataclass(frozen=True)
class MVResult:
    value: Fraction
    method: str
    lifting_seed: Optional[int]
    cells: tuple = ()
    blocks: tuple = ()

    def __post_init__(self):
        if self.method == METHOD_ENUMERATION:
            total = sum((abs(r.det) for r in self.cells), Fraction(0))
            if total != self.value:
                raise InternalError("cell determinants do not sum to the value")


def random_lifting(polys, seed):
    """Deterministic pseudorandom lifting, reproducible from the seed.

    A lifting is one vector per polytope. Entries are ints in [0, 2**16],
    which keep the downstream exact pivots small.
    """
    rng = random.Random(seed)
    dim = polys[0].ambient_dim if polys else 0
    return tuple(tuple(rng.randint(0, 2**16) for _ in range(dim)) for _ in polys)


def _lifted(vertices, mu):
    """Each v as (E*D*v, (E*mu).(D*v)) = E*D*(v, <mu, v>), and the scale E*D.

    D and E are the lcms of the vertex and mu denominators, so a - b
    is the row of <alpha, a - b> = <mu, a - b> times E*D > 0.
    """
    pts, d = scaled(vertices)
    (m,), e = scaled([mu])
    return [(*(e * x for x in p), sum(map(mul, m, p))) for p in pts], d * e


def _dimension(polys, lifting=None):
    """k for k polytopes in k-space, each with a k-vector lifting when one is given.

    Anything else, no polytopes included, raises InputError.
    """
    k = polys[0].ambient_dim if polys else 0
    if not k or len(polys) != k or any(p.ambient_dim != k for p in polys):
        raise InputError("need exactly one polytope per dimension")
    if lifting is not None and (len(lifting) != k or any(len(mu) != k for mu in lifting)):
        raise InputError("need one lifting vector per polytope, one entry per dimension")
    return k


def is_mixed_cell(cell, polys, lifting):
    """Direct edge-matrix test of the mixed-cell criterion: `_touching` on the cell's edges.

    It shares no elimination with the search; a singular edge matrix gives
    NO.
    """
    if len(cell) != _dimension(polys, lifting):
        raise InputError("cell/polytope count must equal the ambient dimension")
    return _touching(polys, lifting, cell)


def _touching(polys, lifting, faces):
    """NO, YES_TIE or YES_STRICT: how a functional touches the lifted sum along `faces`.

    `faces` holds one face per polytope, as a vertex tuple. The face
    equalities <alpha, f0 - v> = <mu, f0 - v>, differences of lifted
    points, fix alpha = X/den by the first k independent ones, and all
    must hold at it. Each vertex u off the faces then has the integer
    slack (<mu - alpha, u> - <mu - alpha, f0>) * den*E*D: a negative one
    gives NO and a zero one a tie.
    """
    k = polys[0].ambient_dim
    tables = [
        (len(face), _lifted((*face, *(u for u in poly.vertices if u not in face)), mu)[0])
        for face, poly, mu in zip(faces, polys, lifting, strict=True)
    ]
    eqs = [tuple(map(sub, pts[0], p)) for size, pts in tables for p in pts[1:size]]
    systems = itertools.combinations(eqs, k)
    sol = next(filter(None, (solve(rows) for rows in systems)), None)
    if sol is None:
        return NO
    den, alpha = sol
    verdict = YES_STRICT
    for size, pts in tables:
        # Each slack is g - g0: an equality holds where it is zero.
        g0, *gs = [den * p[k] - sum(map(mul, alpha, p)) for p in pts]
        if any(g != g0 for g in gs[:size - 1]) or any(g < g0 for g in gs[size - 1:]):
            return NO
        if g0 in gs[size - 1:]:
            verdict = YES_TIE
    return verdict


def _ray_point(rows, d, k):
    """A point t*d, t >= 0, that satisfies every row, as (x, q) for x/q; or None.

    `rows` maps a direction to (g, row) as in `_Enumerator`, a row
    (coeffs..., rhs) on k free columns standing for <coeffs, x> >= rhs.
    With s = <coeffs, d>, a row with rhs > 0 needs s > 0 and t >= rhs/s,
    one with rhs <= 0 and s < 0 needs t <= rhs/s, and the rest hold for
    every t >= 0. t is the
    largest lower bound, if no upper bound lies below it; the bounds are
    compared by cross-multiplying, so the answer is exact.
    """
    lo, lo_s = 0, 1  # t >= lo/lo_s
    hi = hi_s = None  # t <= hi/hi_s
    for _, r in rows.values():
        s = sum(map(mul, r, d))
        b = r[k]
        if b > 0:
            if s <= 0:
                return None
            if b * lo_s > lo * s:
                lo, lo_s = b, s
        elif s < 0 and (hi is None or b * hi_s > hi * s):
            hi, hi_s = -b, -s
    if hi is not None and lo * hi_s > hi * lo_s:
        return None
    return [lo * x for x in d], lo_s


class _Enumerator:
    """Branch-and-prune search for all mixed cells under one lifting.

    Every row is an integer list (coeffs..., rhs), a lifted point
    difference reduced against the chosen edge equalities, standing for
    <coeffs, alpha> >= rhs on the free columns only: each pivot
    eliminates its column and then deletes it, so a row at depth d holds
    k - d coefficients. A node's state is passed down the recursion: the
    path, one level (col, pivot, cache) per chosen edge with its pivot in
    the coordinates of its depth; and the off-edge rows of the chosen
    edges. The rows are a dict from direction (coeffs divided by
    their gcd g) to (g, row), one row per direction: the tightest, with
    the largest rhs/g, which implies the others there and at every
    descendant. A row the new pivot leaves alone keeps its g. The child
    for edge (a, b) takes its direction a - b and its off-edge rows a - u
    from its node's table of reduced differences (`_branch`: each pair
    stored once, with a sign for each end, from `_reduced`, shared down
    the path) and reduces those and the carried rows by its one new
    pivot.
    """

    def __init__(self, polys, lifting, deadline=None, bound=None):
        self.polys = list(polys)
        self.lifting = lifting
        self.k = _dimension(self.polys, lifting)
        self.deadline = deadline
        self.left = bound  # what more strict cells may add to the |det| sum
        self.cells, self.ties = [], []
        self.edge_lists = [p.edges() for p in self.polys]
        self.order = self._search_order()
        # Per polytope, its lifted point differences i - j for i < j
        # (`_reduced` at the root), and each edge (a, b) as the indices of
        # its two vertices.
        self.differences = []
        self.edge_ids = []
        for poly, edges, mu in zip(self.polys, self.edge_lists, lifting, strict=True):
            pts = _lifted(poly.vertices, mu)[0]
            self.differences.append([list(map(sub, p, q)) for p, q in itertools.combinations(pts, 2)])
            index = {v: i for i, v in enumerate(poly.vertices)}
            self.edge_ids.append([(index[a], index[b]) for a, b in edges])

    def _search_order(self):
        """Static polytope order: few edges first, staying connected.

        Starting from the polytope with the fewest edges, always prefer
        an unpicked polytope sharing support coordinates with the ones
        already picked, so the pruning LP sees coupled constraints as
        early as possible. On K33's 12-dim block at lifting seed 0 it
        visits 3,475 nodes with 113 LPs; a dynamic first-fail order
        (fewest live children next) evaluates 14,809 children with 1,020.
        """
        remaining = set(range(self.k))
        supports = {i: self.polys[i].support() for i in remaining}
        order = []
        covered = set()
        while remaining:
            touching = [i for i in remaining if supports[i] & covered]
            pool = touching if touching else sorted(remaining)
            pick = min(pool, key=lambda i: (len(self.edge_lists[i]), i))
            order.append(pick)
            covered |= supports[pick]
            remaining.discard(pick)
        return order

    def run(self):
        try:
            self._branch((), (), {})
        except _Complete:
            pass
        if self.ties:
            raise NonGenericLiftingError(
                "lifting produced tie cells; re-seed", cells=tuple(self.ties)
            )
        return tuple(sorted(self.cells, key=lambda r: r.cell))

    def _reduced(self, path, poly):
        """Lifted point i minus lifted point j of `poly`, for each pair i < j, reduced down the path.

        A level caches the lists it reduces, each the level above's with
        each row eliminated by the level's pivot and its column deleted,
        built the first time a descendant needs it and dropped with it.
        """
        depth = len(path)
        while depth and poly not in path[depth - 1][2]:
            depth -= 1
        pairs = path[depth - 1][2][poly] if depth else self.differences[poly]
        for col, v, cache in path[depth:]:
            pairs = cache[poly] = [eliminate(r, col, v) if r[col] else r.copy() for r in pairs]
            for r in pairs:
                del r[col]
        return pairs

    def _branch(self, chosen, path, active):
        """One child per edge of the next polytope in the search order.

        They share one table: table[a] lists (u, s, row) for each other
        point u in increasing order, with row point min(a, u) minus
        point max(a, u) reduced, stored once for both ends, and s = 1
        when a < u, else -1, so that s * row is point a minus point u.
        """
        nxt = self.order[len(chosen)]
        table = [[] for _ in self.polys[nxt].vertices]
        for (i, j), r in zip(itertools.combinations(range(len(table)), 2), self._reduced(path, nxt)):
            table[i].append((j, 1, r))
            table[j].append((i, -1, r))
        for idx, (a, b) in enumerate(self.edge_ids[nxt]):
            self._descend(chosen + ((nxt, idx),), a, b, table, path, active)

    def _descend(self, chosen, a, b, table, path, active):
        check_deadline(self.deadline, "mixed-cell enumeration")
        v = table[a][b - (b > a)][2]
        free = len(v) - 2  # the free columns left once the pivot's is deleted
        for col in range(free + 1):
            if v[col]:
                break
        else:
            # Either no touching functional or a forced singular matrix.
            return
        if v[col] < 0:
            v = [-x for x in v]
        p = v[col]
        rows = {}
        violated = False
        # Each row is eliminated fraction-free by v (g is the direction's
        # gcd, and its gcd with the rhs divides the whole row) and kept if
        # it is the tightest of its direction. First the carried rows: one
        # the pivot leaves alone keeps its g.
        for key, (g, r) in active.items():
            if f := r[col]:
                r = [p * x - f * y for x, y in zip(r, v)]
                del r[col]
                g = math.gcd(*r[:-1])
                if (h := math.gcd(g, r[-1])) > 1:
                    r = [x // h for x in r]
                    g //= h
                if not g:
                    if r[-1] > 0:
                        return  # fully determined and violated
                    continue  # a zero margin: the leaf check reports the tie
                key = tuple(r[:-1]) if g == 1 else tuple([x // g for x in r[:-1]])
            else:
                r = r.copy()
                del r[col]
                key = key[:col] + key[col + 1:]
            # One row per direction: the tighter one, with the larger rhs/g.
            kept = rows.get(key)
            if kept is None or r[-1] * kept[0] > kept[1][-1] * g:
                rows[key] = g, r
                violated = violated or r[-1] > 0
        # Then the off-edge rows s * row, the sign folded into the step: a
        # second loop, as one loop over both kinds would test each row's kind.
        for u, s, r in table[a]:
            if u == b:
                continue
            if f := r[col]:
                q, f = (p, f) if s > 0 else (-p, -f)
                r = [q * x - f * y for x, y in zip(r, v)]
                del r[col]
                g = math.gcd(*r[:-1])
                if (h := math.gcd(g, r[-1])) > 1:
                    r = [x // h for x in r]
                    g //= h
            else:
                r = r.copy() if s > 0 else [-x for x in r]
                del r[col]
                g = math.gcd(*r[:-1])
            if not g:
                if r[-1] > 0:
                    return
                continue
            key = tuple(r[:-1]) if g == 1 else tuple([x // g for x in r[:-1]])
            kept = rows.get(key)
            if kept is None or r[-1] * kept[0] > kept[1][-1] * g:
                rows[key] = g, r
                violated = violated or r[-1] > 0
        if not free:
            # Every row is now fully determined; none is violated.
            self._finish(chosen)
            return
        if violated and self._prunable(rows, free):
            return
        self._branch(chosen, path + ((col, v, {}),), rows)

    def _prunable(self, rows, n):
        """True when no touching functional satisfies the chosen edges.

        Only called when some row is violated at the particular solution
        (all free columns zero). `rows` maps a direction to (g, row), one
        row per direction, each on the n free columns, so they go to the
        LP as they are. The tests run in this order. A violated row
        g1*u >= b1 whose opposite direction holds -g2*u >= b2 with
        b1*g2 + b2*g1 > 0 prunes on the Farkas vector (g2, g1) alone.
        Otherwise a point of `_ray_point` on the ray through d, the sum
        of the violated rows' directions, that satisfies every row keeps
        the node without an LP; only the nodes left go to the LP.
        Exactness contract: a subtree is pruned only on an int Farkas
        vector, checked by `linprog.verify_farkas` either way; the ray
        only ever answers "feasible".
        """
        d = [0] * n
        for key, (g, r) in rows.items():
            if r[n] <= 0:
                continue
            d = list(map(add, d, key))
            if (opposite := rows.get(tuple([-x for x in key]))) is not None:
                g2, r2 = opposite
                if r[n] * g2 + r2[n] * g > 0:
                    if not linprog.verify_farkas((r, r2), n, (g2, g)):
                        raise InternalError("invalid Farkas certificate for an opposite pair")
                    return True
        if _ray_point(rows, d, n) is not None:
            return False
        return linprog.feasible([r for _, r in rows.values()], n).status == linprog.INFEASIBLE

    def _finish(self, chosen):
        # Reassemble the cell in original polytope order; a singular one is NO.
        cell = tuple(self.edge_lists[i][j] for i, j in sorted(chosen))
        verdict = is_mixed_cell(cell, self.polys, self.lifting)
        if verdict == NO:
            raise InternalError("enumerated cell failed the direct criterion")
        det = polytopes.edge_matrix_det(cell)
        if verdict == YES_TIE:
            self.ties.append(MixedCellRecord(cell=cell, det=det, strict=False))
            return
        self.cells.append(MixedCellRecord(cell=cell, det=det, strict=True))
        if self.left is not None:
            self.left -= abs(det)
            if self.left < 0:
                raise InternalError("mixed cells exceed the Bezout bound")
            if not self.left:
                raise _Complete


class _Complete(Exception):
    """The strict cells found add up to the bound: no other cell exists."""


def enumerate_mixed_cells(polys, lifting, deadline=None, bound=None):
    """All mixed cells of the induced subdivision, canonically sorted.

    Raises NonGenericLiftingError when some complete cell only touches
    the lifted sum with a zero margin. An upper `bound` on the mixed
    volume stops the search early, with the same cells (module docstring).
    """
    return _Enumerator(polys, lifting, deadline=deadline, bound=bound).run()


def mixed_volume(polys, multiplicities=None, seed=0, deadline=None, bound=None):
    """Mixed volume by enumeration, with automatic lifting re-seeding and an optional bound."""
    polys = list(polys)
    if multiplicities is None:
        multiplicities = [1] * len(polys)
    if len(multiplicities) != len(polys):
        raise InputError("one multiplicity per polytope required")
    replicated = []
    for p, d in zip(polys, multiplicities):
        if d < 1:
            raise InputError("multiplicities must be positive")
        replicated.extend([p] * d)
    if not replicated or len(replicated) != replicated[0].ambient_dim:
        raise InputError("multiplicities must sum to the ambient dimension")
    last = None
    for attempt in range(MAX_LIFTING_RETRIES):
        use_seed = seed + attempt
        lifting = random_lifting(replicated, use_seed)
        try:
            cells = enumerate_mixed_cells(replicated, lifting, deadline=deadline, bound=bound)
        except NonGenericLiftingError as exc:
            last = exc
            continue
        value = sum((abs(r.det) for r in cells), Fraction(0))
        return MVResult(
            value=value,
            method=METHOD_ENUMERATION,
            lifting_seed=use_seed,
            cells=cells,
        )
    raise NonGenericLiftingError(
        f"no generic lifting found in {MAX_LIFTING_RETRIES} attempts",
        cells=last.cells if last else (),
    )


# ---------------------------------------------------------------------------
# Independent oracle


def mv_inclusion_exclusion(polys, deadline=None):
    """Alternating volume sum over nonempty subsets (dimension <= 6).

    Raises CapabilityError once `deadline` (a time.monotonic() value)
    has passed, checked per subset and inside each hull.
    """
    polys = list(polys)
    k = _dimension(polys)
    if k > polytopes.VOLUME_DIM_CAP:
        raise CapabilityError(
            f"inclusion-exclusion oracle capped at dimension {polytopes.VOLUME_DIM_CAP}"
        )
    total = Fraction(0)
    sums = {(): None}
    for size in range(1, k + 1):
        sign = (-1) ** (k - size)
        prev, sums = sums, {}
        for subset in itertools.combinations(range(k), size):
            check_deadline(deadline, "inclusion-exclusion oracle")
            # The sum for subset[:-1] plus one more polytope.
            head, last = prev[subset[:-1]], polys[subset[-1]]
            s = last if head is None else polytopes.minkowski_sum(head, last, deadline)
            sums[subset] = s
            total += sign * polytopes.volume_exact(s, deadline)
    return total


# ---------------------------------------------------------------------------
# Graph pipelines


def mv_for_graph(framework, form=FORM_SUBSOE, seed=0, oracle=False, deadline=None):
    """Mixed volume of a framework's polynomial system.

    Pipeline: build the system, split its raw supports into coordinate
    blocks with one hull per distinct projected point set, enumerate
    mixed cells per block (or run the inclusion-exclusion oracle when
    requested), multiply. Blocks whose projected polytopes have the same
    vertices are solved once per call: the same vertices and seed give
    the same lifting and cells.
    """
    if not isinstance(form, str) or form not in BUILDERS:
        raise InputError(f"unknown system form {form!r}")
    return _mv_for_system(BUILDERS[form](framework), seed, oracle, deadline)


def _mv_for_system(system, seed=0, oracle=False, deadline=None):
    """`mv_for_graph` on a system already built."""
    if len(system.polys) != system.nvars:
        raise InputError("need exactly one polytope per dimension")
    blocks = separation_split(supports(system), deadline)
    solved = {}  # projected vertices -> (value, cells, lifting seed)
    out_blocks = []
    for blk in blocks:
        check_deadline(deadline, "coordinate blocks")
        key = tuple(p.vertices for p in blk.projected)
        if key not in solved:
            if oracle:
                solved[key] = (mv_inclusion_exclusion(blk.projected, deadline), (), None)
            else:
                vertices = [p.vertices for p in blk.projected]
                bound = polysys.block_bezout(system, blk.coordinates, vertices, deadline)
                sub = mixed_volume(blk.projected, seed=seed, deadline=deadline, bound=bound)
                solved[key] = (sub.value, sub.cells, sub.lifting_seed)
        out_blocks.append(BlockResult(blk.polytope_indices, blk.coordinates, *solved[key]))
    if oracle:
        method = METHOD_ORACLE
    elif len(blocks) > 1:
        method = METHOD_SEPARATION
    else:
        method = METHOD_ENUMERATION
    return MVResult(
        value=math.prod((b.value for b in out_blocks), start=Fraction(1)),
        method=method,
        lifting_seed=None if oracle else seed,
        cells=tuple(c for b in out_blocks for c in b.cells),
        blocks=tuple(out_blocks),
    )


def certify_general_bound(system, deadline=None):
    """Exact mixed volume of a distance system from one verified cell.

    The degree product bounds the mixed volume from above; the diagonal
    cell [xi_1,0]+..+[xi_4,0]+[2 xi_5,0]+..+[2 xi_2n,0] bounds it from
    below by the product of its diagonal, so both meet at 4^(n-2). The
    cell is mixed under the lifting mu_j that is 1 in coordinate j and 4n
    elsewhere: its face equalities fix the touching functional at
    alpha = (1, .., 1), where a point u of support j has the slack
    <mu_j - alpha, u> = (4n - 1) * (sum(u) - u_j), exponents being
    nonnegative ints. So the cell is strictly mixed iff no other point of
    support j lies on axis j, which is checked exactly for every point of
    every raw support; no hull is needed, as each chosen pair is then the
    unique minimizer of mu_j - alpha over its support, hence an edge of
    its Newton polytope (`is_mixed_cell` gives the same verdict). `system`
    is a `build_soe` output with any edge lengths: they and the pinning
    constants are nonzero, so every support holds the constant term and
    the cell and value do not depend on them. The value is checked
    against the system's degree product, `polysys.bezout`, counted here.
    Raises InputError for any other form of system and CapabilityError
    once `deadline` (a time.monotonic() value) has passed, checked before
    each support.
    """
    k = system.nvars
    if system.form != FORM_SOE or len(system.polys) != k:
        raise InputError("the certificate needs a distance system")
    zero = (0,) * k
    edges = []
    det = Fraction(1)
    for j, poly in enumerate(system.polys):
        check_deadline(deadline, "general-bound certificate")
        support = poly.support()
        scale = 1 if j < 4 else 2
        vertex = ((j, scale),)
        if vertex not in support or () not in support:
            raise InternalError("expected cell points missing from a support")
        # sum(u) == u_j for a nonzero u holding variable j alone
        if any(len(u) == 1 and u[0][0] == j for u in support if u != vertex):
            raise InternalError(f"certificate cell rejected: {YES_TIE}")
        edges.append((zero[:j] + (scale,) + zero[j + 1:], zero))
        det *= scale
    expected = Fraction(4) ** (k // 2 - 2)
    degree_product = bezout(system)
    if det > degree_product:
        raise InternalError("mv exceeds degree product for the distance system")
    if det != expected or degree_product != expected:
        raise InternalError("certificate value mismatch")
    return MVResult(
        value=det,
        method=METHOD_CERTIFICATE,
        lifting_seed=None,
        cells=(MixedCellRecord(cell=tuple(edges), det=det, strict=True),),
    )
