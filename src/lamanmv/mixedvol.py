"""Mixed volumes via coherent subdivisions and certified mixed cells.

The engine enumerates the fully mixed cells of the subdivision induced
by per-polytope linear liftings. A cell is one edge per polytope; it
belongs to the subdivision iff some linear functional touches the lifted
sum exactly along those edges. Enumeration is a depth-first search over
edge choices, pruned by (a) linear independence of the chosen edge
directions and (b) exact LP feasibility of the touching functional.
All constraint rows are integer rows, eliminated fraction-free against
the chosen edge equalities and carried down the search, so each node
reduces only what it adds; an exact LP runs only where the particular
solution violates a row.
Complete cells are accepted only when every non-edge vertex clears the
functional with a strictly positive margin; a zero margin, found at the
leaf or carried down from the node that fixed it, means the lifting is
non-generic and the caller re-seeds.

The mixed volume is the sum of |det| of the edge matrices over all
mixed cells. Repeated polytopes are handled by replication with
independent liftings. Coordinate-block products (one polytope group
supported on its own coordinates) are split off beforehand, which is
what makes the substituted vertex systems tractable.
"""

import itertools
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import linprog, polytopes
from ._linalg import mat_solve
from .errors import CapabilityError, InputError, InternalError, NonGenericLiftingError
from .graphs import Framework, check_laman, default_base, edge_key, relabel_with_base
from .polysys import FORM_SOE, FORM_SUBSOE, bezout, build_soe, build_subsoe, newton_polytopes

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
class Lifting:
    """One rational lifting vector per polytope."""

    vectors: tuple

    def value(self, j, point):
        mu = self.vectors[j]
        return sum((m * x for m, x in zip(mu, point)), Fraction(0))


@dataclass(frozen=True)
class MixedCellRecord:
    cell: polytopes.EdgeCell
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

    Entries are nonnegative rationals with bounded numerator and
    denominator; integer numerators keep the downstream exact pivots
    small.
    """
    rng = random.Random(seed)
    dim = polys[0].ambient_dim if polys else 0
    vectors = tuple(
        tuple(Fraction(rng.randint(0, 2**16), 1) for _ in range(dim))
        for _ in polys
    )
    return Lifting(vectors=vectors)


def is_mixed_cell(cell, polys, lifting):
    """Direct edge-matrix test of the mixed-cell criterion.

    Solves for the unique touching functional from the edge equalities
    (singular edge matrix fails immediately) and checks every non-edge
    vertex of every polytope against it, exactly.
    """
    k = polys[0].ambient_dim
    if len(polys) != k or len(cell.edges) != k:
        raise InputError("cell/polytope count must equal the ambient dimension")
    dirs = cell.directions()
    rhs = [lifting.value(j, cell.edges[j][0]) - lifting.value(j, cell.edges[j][1]) for j in range(k)]
    alpha = mat_solve(dirs, rhs)
    if alpha is None:
        return NO
    strict = True
    for j, poly in enumerate(polys):
        a, b = cell.edges[j]
        ga = lifting.value(j, a) - _dot(alpha, a)
        for u in poly.vertices:
            if u == a or u == b:
                continue
            slack = (lifting.value(j, u) - _dot(alpha, u)) - ga
            if slack < 0:
                return NO
            if slack == 0:
                strict = False
    return YES_STRICT if strict else YES_TIE


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _int_row(coeffs, rhs):
    """(coeffs..., rhs) scaled by the positive lcm of its denominators."""
    entries = (*coeffs, rhs)
    scale = math.lcm(*(x.denominator for x in entries))
    return tuple(int(x * scale) for x in entries)


def _eliminate(row, col, pivot):
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


class _Enumerator:
    """Branch-and-prune search for all mixed cells under one lifting.

    Every row is an integer tuple (coeffs..., rhs). A node's state is
    passed down the recursion: the chosen edge equalities as pivot rows
    in integer echelon form, the off-edge rows `<coeff, alpha> >= rhs` of
    the chosen edges reduced against those pivots (so each row is zero on
    the pivot columns and stands for a constraint on the free columns),
    and a tie flag. A child reduces the carried rows by its one new pivot
    and only the new polytope's rows against all pivots.
    """

    def __init__(self, polys, lifting, deadline=None):
        self.polys = list(polys)
        self.lifting = lifting
        self.k = polys[0].ambient_dim
        if len(polys) != self.k:
            raise InputError("need exactly one polytope per dimension")
        if any(p.ambient_dim != self.k for p in polys):
            raise InputError("inconsistent ambient dimensions")
        self.deadline = deadline
        self.order = self._search_order()
        self.edge_lists = [p.edges() for p in self.polys]
        # Per polytope and edge (a, b): the direction equality
        # <alpha, a - b> = <mu, a - b>, and for each vertex u off the edge
        # the row <alpha, a - u> >= <mu, a - u>.
        self.directions = []
        self.rows = []
        for i, poly in enumerate(self.polys):
            dirs, per_edge = [], []
            for a, b in self.edge_lists[i]:
                d = tuple(x - y for x, y in zip(a, b))
                dirs.append(_int_row(d, lifting.value(i, d)))
                cons = []
                for u in poly.vertices:
                    if u == a or u == b:
                        continue
                    coeff = tuple(x - y for x, y in zip(a, u))
                    cons.append(_int_row(coeff, lifting.value(i, coeff)))
                per_edge.append(cons)
            self.directions.append(dirs)
            self.rows.append(per_edge)

    def _search_order(self):
        """Static polytope order: few edges first, staying connected.

        Starting from the polytope with the fewest edges, always prefer
        an unpicked polytope sharing support coordinates with the ones
        already picked, so the pruning LP sees coupled constraints as
        early as possible.
        """
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

    def run(self, threads=1):
        first = self.order[0]
        branches = [((first, idx),) for idx in range(len(self.edge_lists[first]))]

        def branch(chosen):
            cells, ties = [], []
            self._descend(chosen, (), (), False, cells, ties)
            return cells, ties

        if threads and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(branch, branches))
        else:
            results = map(branch, branches)
        cells, ties = [], []
        for out, tie in results:
            cells.extend(out)
            ties.extend(tie)
        if ties:
            raise NonGenericLiftingError(
                "lifting produced tie cells; re-seed", cells=tuple(ties)
            )
        cells.sort(key=lambda r: r.cell.edges)
        return tuple(cells)

    def _descend(self, chosen, pivots, active, tie, cells, ties):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise CapabilityError("mixed-cell enumeration timed out")
        k = self.k
        poly_idx, edge_idx = chosen[-1]
        v = self.directions[poly_idx][edge_idx]
        for c, p in pivots:
            v = _eliminate(v, c, p)
        col = next((c for c in range(k) if v[c]), None)
        if col is None:
            # Either no touching functional or a forced singular matrix.
            return
        if v[col] < 0:
            v = [-x for x in v]
        pivots = pivots + ((col, v),)
        fresh = self.rows[poly_idx][edge_idx]
        for c, p in pivots:
            fresh = [_eliminate(r, c, p) for r in fresh]
        rows = []
        violated = False
        for r in itertools.chain((_eliminate(r, col, v) for r in active), fresh):
            if any(r[:k]):
                rows.append(r)
                violated = violated or r[k] > 0
            elif r[k] > 0:
                return  # fully determined and violated
            elif r[k] == 0:
                tie = True  # fully determined with zero margin
        if len(chosen) == k:
            # Every row is now fully determined; none is violated.
            self._finish(chosen, tie, cells, ties)
            return
        if violated and self._prunable(pivots, rows):
            return
        nxt = self.order[len(chosen)]
        for idx in range(len(self.edge_lists[nxt])):
            self._descend(chosen + ((nxt, idx),), pivots, rows, tie, cells, ties)

    def _prunable(self, pivots, rows):
        """True when no touching functional satisfies the chosen edges.

        Only called when some row is violated at the particular solution
        (all free columns zero). Exactness contract: a subtree is pruned
        only on an exact LP infeasibility over the free columns.
        """
        bound = {c for c, _ in pivots}
        free = [c for c in range(self.k) if c not in bound]
        cons = [([r[c] for c in free], linprog.GE, r[self.k]) for r in rows]
        return linprog.feasible(cons, len(free)).status == linprog.INFEASIBLE

    def _finish(self, chosen, tie, cells, ties):
        # Reassemble the cell in original polytope order.
        by_poly = dict(chosen)
        edges = tuple(
            self.edge_lists[i][by_poly[i]] for i in range(self.k)
        )
        cell = polytopes.EdgeCell(edges=edges)
        det = polytopes.edge_matrix_det(cell)
        if det == 0:
            raise InternalError("leaf cell has singular edge matrix")
        if tie:
            ties.append(MixedCellRecord(cell=cell, det=det, strict=False))
            return
        record = MixedCellRecord(cell=cell, det=det, strict=True)
        check = is_mixed_cell(cell, self.polys, self.lifting)
        if check != YES_STRICT:
            raise InternalError("enumerated cell failed the direct criterion")
        cells.append(record)


def enumerate_mixed_cells(polys, lifting, deadline=None, threads=1):
    """All mixed cells of the induced subdivision, canonically sorted.

    Raises NonGenericLiftingError when some complete cell only touches
    the lifted sum with a zero margin.
    """
    return _Enumerator(polys, lifting, deadline=deadline).run(threads=threads)


def mixed_volume(polys, multiplicities=None, seed=0, deadline=None, threads=1):
    """Mixed volume by enumeration, with automatic lifting re-seeding."""
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
    k = replicated[0].ambient_dim
    if len(replicated) != k:
        raise InputError("multiplicities must sum to the ambient dimension")
    last = None
    for attempt in range(MAX_LIFTING_RETRIES):
        use_seed = seed + attempt
        lifting = random_lifting(replicated, use_seed)
        try:
            cells = enumerate_mixed_cells(
                replicated, lifting, deadline=deadline, threads=threads
            )
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
# Coordinate-block separation


@dataclass(frozen=True)
class Block:
    polytope_indices: tuple
    coordinates: tuple
    projected: tuple  # projected polytopes, aligned with polytope_indices


def separation_split(polys):
    """Finest factorization into coordinate-supported blocks.

    Finds a perfect matching between polytopes and coordinates through
    the support relation, then splits along the strongly connected
    components of the dependency digraph: a component's polytopes use no
    coordinates matched outside blocks below it, so the mixed volume is
    the product over blocks of the projected sub-volumes. Returns a
    single block when nothing separates.
    """
    polys = list(polys)
    k = polys[0].ambient_dim if polys else 0
    if len(polys) != k:
        raise InputError("need exactly one polytope per dimension")
    supports = [sorted(p.support()) for p in polys]
    match = _perfect_matching(supports, k)
    if match is None:
        return [Block(tuple(range(k)), tuple(range(k)), tuple(polys))]
    coord_owner = {match[i]: i for i in range(k)}
    adj = {i: set() for i in range(k)}
    for i in range(k):
        for c in supports[i]:
            j = coord_owner[c]
            if j != i:
                adj[i].add(j)
    comps = _sccs(adj, k)
    # Order sinks first so each block only sees its own coordinates once
    # the earlier blocks' coordinates are projected away.
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    dag = {ci: set() for ci in range(len(comps))}
    for i in range(k):
        for j in adj[i]:
            if comp_of[i] != comp_of[j]:
                dag[comp_of[i]].add(comp_of[j])
    order = _topo_sinks_first(dag)
    blocks = []
    for ci in order:
        members = sorted(comps[ci])
        coords = tuple(sorted(match[i] for i in members))
        projected = tuple(polys[i].project(coords) for i in members)
        blocks.append(Block(tuple(members), coords, projected))
    return blocks


def _perfect_matching(supports, k):
    """Kuhn's algorithm on the polytope/coordinate support relation."""
    match_coord = {}
    match_poly = [None] * k

    def try_assign(i, seen):
        for c in supports[i]:
            if c in seen:
                continue
            seen.add(c)
            if c not in match_coord or try_assign(match_coord[c], seen):
                match_coord[c] = i
                match_poly[i] = c
                return True
        return False

    for i in range(k):
        if not try_assign(i, set()):
            return None
    return match_poly


def _sccs(adj, n):
    """Tarjan's strongly connected components, iterative."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comps = []
    counter = [0]

    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def _topo_sinks_first(dag):
    """Deterministic topological order emitting sinks before sources."""
    remaining = dict((ci, set(ds)) for ci, ds in dag.items())
    order = []
    while remaining:
        sinks = sorted(ci for ci, ds in remaining.items() if not ds)
        if not sinks:
            raise InternalError("condensation must be acyclic")
        for ci in sinks:
            order.append(ci)
            del remaining[ci]
        for ds in remaining.values():
            ds.difference_update(sinks)
    return order


# ---------------------------------------------------------------------------
# Independent oracle


def mv_inclusion_exclusion(polys):
    """Alternating volume sum over nonempty subsets (dimension <= 6)."""
    polys = list(polys)
    k = polys[0].ambient_dim
    if len(polys) != k:
        raise InputError("need exactly one polytope per dimension")
    if k > polytopes.VOLUME_DIM_CAP:
        raise CapabilityError(
            f"inclusion-exclusion oracle capped at dimension {polytopes.VOLUME_DIM_CAP}"
        )
    total = Fraction(0)
    for size in range(1, k + 1):
        sign = (-1) ** (k - size)
        for subset in itertools.combinations(range(k), size):
            s = polytopes.minkowski_sum_many([polys[i] for i in subset])
            total += sign * polytopes.volume_exact(s)
    return total


# ---------------------------------------------------------------------------
# Graph pipelines


def _base_framework(framework):
    """Relabel so the pinned edge is (1,2); identity when already there."""
    base = default_base(framework.graph)
    if base == edge_key(1, 2):
        return framework
    _, mapping = relabel_with_base(framework.graph, base)
    return framework.relabel(mapping)


def mv_for_graph(framework, form=FORM_SUBSOE, seed=0, oracle=False, deadline=None, threads=1):
    """Mixed volume of a framework's polynomial system.

    Pipeline: build the system, take Newton polytopes, split into
    coordinate blocks, enumerate mixed cells per block (or run the
    inclusion-exclusion oracle when requested), multiply.
    """
    fw = _base_framework(framework)
    if form == FORM_SOE:
        system = build_soe(fw)
    elif form == FORM_SUBSOE:
        system = build_subsoe(fw)
    else:
        raise InputError(f"unknown system form {form!r}")
    polys = newton_polytopes(system)
    blocks = separation_split(polys)
    value = Fraction(1)
    out_blocks = []
    all_cells = []
    for blk in blocks:
        if oracle:
            blk_value = mv_inclusion_exclusion(blk.projected)
            out_blocks.append(
                BlockResult(blk.polytope_indices, blk.coordinates, blk_value, (), None)
            )
        else:
            sub = mixed_volume(
                blk.projected, seed=seed, deadline=deadline, threads=threads
            )
            blk_value = sub.value
            out_blocks.append(
                BlockResult(
                    blk.polytope_indices,
                    blk.coordinates,
                    blk_value,
                    sub.cells,
                    sub.lifting_seed,
                )
            )
            all_cells.extend(sub.cells)
        value *= blk_value
    if oracle:
        method = METHOD_ORACLE
    elif len(blocks) > 1:
        method = METHOD_SEPARATION
    else:
        method = METHOD_ENUMERATION
    if method == METHOD_ENUMERATION:
        cells = out_blocks[0].cells
    else:
        cells = tuple(all_cells)
    return MVResult(
        value=value,
        method=method,
        lifting_seed=None if oracle else seed,
        cells=cells,
        blocks=tuple(out_blocks),
    )


def certify_general_bound(g, deadline=None):
    """Exact mixed volume of the distance system from one verified cell.

    The degree product bounds the mixed volume from above; the explicit
    lifting whose j-th vector dips only in coordinate j certifies the
    diagonal cell [xi_1,0]+..+[xi_4,0]+[2 xi_5,0]+..+[2 xi_2n,0] as
    mixed, so both bounds meet at 4^(n-2). No enumeration is needed.
    """
    if not check_laman(g)["laman"]:
        raise InputError("graph is not Laman")
    fw = Framework.make(g, {e: 1 for e in g.edges})
    fw = _base_framework(fw)
    system = build_soe(fw)
    polys = newton_polytopes(system)
    n = g.n
    k = 2 * n
    big = Fraction(4 * n)
    vectors = []
    for j in range(k):
        mu = [big] * k
        mu[j] = Fraction(1)
        vectors.append(tuple(mu))
    lifting = Lifting(vectors=tuple(vectors))
    zero = tuple(Fraction(0) for _ in range(k))
    edges = []
    for j in range(k):
        scale = 1 if j < 4 else 2
        vertex = tuple(Fraction(scale) if c == j else Fraction(0) for c in range(k))
        if vertex not in polys[j].vertices or zero not in polys[j].vertices:
            raise InternalError("expected cell vertices missing from a polytope")
        if not polytopes.is_edge(polys[j], vertex, zero):
            raise InternalError("expected cell edge is not an edge")
        edges.append((vertex, zero))
    cell = polytopes.EdgeCell(edges=tuple(edges))
    status = is_mixed_cell(cell, polys, lifting)
    if status != YES_STRICT:
        raise InternalError(f"certificate cell rejected: {status}")
    det = polytopes.edge_matrix_det(cell)
    value = abs(det)
    expected = Fraction(4) ** (n - 2)
    if value != expected or Fraction(bezout(system)) != expected:
        raise InternalError("certificate value mismatch")
    record = MixedCellRecord(cell=cell, det=det, strict=True)
    return MVResult(
        value=value,
        method=METHOD_CERTIFICATE,
        lifting_seed=None,
        cells=(record,),
    )


# ---------------------------------------------------------------------------
# Full two-dimensional subdivisions (oracle support for the area identity)


def full_subdivision_2d(polys, lifting):
    """All cells (mixed or not) of the induced subdivision in the plane.

    Returns a list of (face_tuple, area) where face_tuple holds one face
    (as a vertex tuple) per polytope and the face dimensions sum to 2.
    The areas of all cells sum to the area of the Minkowski sum.
    """
    polys = list(polys)
    if any(p.ambient_dim != 2 for p in polys):
        raise InputError("full subdivision recovery is implemented in 2D only")
    face_sets = []
    for p in polys:
        faces = [(0, (v,)) for v in p.vertices]
        faces.extend((1, e) for e in p.edges())
        if p.dim() == 2:
            faces.append((2, tuple(p.vertices)))
        face_sets.append(faces)
    cells = []
    ties = []
    for combo in itertools.product(*face_sets):
        if sum(d for d, _ in combo) != 2:
            continue
        outcome = _touching_margin(polys, lifting, [f for _, f in combo])
        if outcome is None:
            continue
        margin = outcome
        piece = polytopes.minkowski_sum_many(
            [polytopes.RationalPolytope.from_points(f) for _, f in combo]
        )
        area = polytopes.volume_exact(piece)
        if area == 0:
            continue
        if margin == 0:
            ties.append(combo)
            continue
        cells.append((tuple(f for _, f in combo), area))
    if ties:
        raise NonGenericLiftingError("subdivision has tie cells; re-seed")
    return cells


def _touching_margin(polys, lifting, faces):
    """Margin of the functional pinned to the given faces, or None."""
    k = 2
    nvars = k + 1  # alpha components plus the shared margin
    rows = []
    for j, face in enumerate(faces):
        f0 = face[0]
        for v in face[1:]:
            coeff = [f0[c] - v[c] for c in range(k)] + [Fraction(0)]
            rows.append((coeff, linprog.EQ, lifting.value(j, tuple(coeff[:k]))))
        for u in polys[j].vertices:
            if u in face:
                continue
            coeff = [f0[c] - u[c] for c in range(k)] + [Fraction(-1)]
            rows.append((coeff, linprog.GE, lifting.value(j, tuple(coeff[:k]))))
    rows.append(([Fraction(0)] * k + [Fraction(1)], linprog.LE, 1))
    obj = [Fraction(0)] * k + [Fraction(1)]
    out = linprog.solve(linprog.LinearProgram.make(obj, rows))
    if out.status != linprog.OPTIMAL:
        return None
    if out.value < 0:
        return None
    return out.value
