"""Coordinate-block separation of a square polynomial system's supports.

`separation_split` factors the mixed volume of k point sets in k-space
into a product over blocks, each a group of point sets supported on its
own coordinates, and hulls each block's projected point sets. The
mixed-cell search (`mixedvol`) then runs once per distinct block.
"""

from dataclasses import dataclass

from . import polytopes
from .errors import InputError, check_deadline


@dataclass(frozen=True)
class Block:
    polytope_indices: tuple
    coordinates: tuple
    projected: tuple  # projected polytopes, aligned with polytope_indices


def separation_split(polys, deadline=None):
    """Finest factorization into coordinate-supported blocks.

    `polys` holds one point set per polytope and per coordinate, each a
    raw support as sparse monomials (`polysys.Polynomial`).
    Finds a perfect matching between polytopes and coordinates through
    the support relation, then splits along the strongly connected
    components of the dependency digraph: a component's polytopes use no
    coordinates matched outside blocks below it, so the mixed volume is
    the product over blocks of the projected sub-volumes. Returns a
    single block when nothing separates. Every projected point set is
    hulled (`from_points`) once per call, so each `Block.projected` is
    a certified vertex-form polytope and identical projections share one.
    Raises CapabilityError once `deadline` (a time.monotonic() value)
    has passed, checked before each projection and, in the matching,
    before each polytope.
    """
    k = len(polys)
    if not all(polys):
        raise InputError("empty point set")
    uses = [sorted({c for point in s for c, _ in point}) for s in polys]
    if any(u and not 0 <= u[0] <= u[-1] < k for u in uses):
        raise InputError("need exactly one polytope per dimension")
    hulls = {}  # projected point set -> its hull

    def projected(i, position):
        check_deadline(deadline, "coordinate blocks")
        pts = set()
        for point in polys[i]:
            dense = [0] * len(position)
            for c, x in point:
                if c in position:
                    dense[position[c]] = x
            pts.add(tuple(dense))
        pts = frozenset(pts)
        if pts not in hulls:
            hulls[pts] = polytopes.RationalPolytope.from_points(pts, deadline)
        return hulls[pts]

    def block(members, coords):
        position = {c: pos for pos, c in enumerate(coords)}
        return Block(tuple(members), coords, tuple(projected(i, position) for i in members))

    match = _perfect_matching(uses, k, deadline)
    if match is None:
        return [block(range(k), tuple(range(k)))]
    coord_owner = {match[i]: i for i in range(k)}
    adj = {i: set() for i in range(k)}
    for i in range(k):
        for c in uses[i]:
            j = coord_owner[c]
            if j != i:
                adj[i].add(j)
    comps = _sccs(adj, k)
    # Order sinks first so each block only sees its own coordinates once
    # the earlier blocks' coordinates are projected away. Tarjan emits a
    # component after every component it reaches, so one pass in
    # emission order gives each its height (longest path to a sink), and
    # a stable sort by height lists sinks first.
    comp_of, heights = {}, []
    for comp in comps:
        succ = {comp_of[j] for i in comp for j in adj[i] if j in comp_of}
        heights.append(max((heights[c] + 1 for c in succ), default=0))
        comp_of.update((i, len(heights) - 1) for i in comp)
    blocks = []
    for ci in sorted(range(len(comps)), key=heights.__getitem__):
        members = comps[ci]
        blocks.append(block(members, tuple(sorted(match[i] for i in members))))
    return blocks


def _perfect_matching(supports, k, deadline=None):
    """Kuhn's algorithm on the polytope/coordinate support relation.

    Polytope i, in turn, takes its first free coordinate when it has
    one, else searches depth first for an augmenting path: each step
    tries the next coordinate of the path's last polytope not yet seen
    in this search and, when another polytope holds it, goes on from
    that one. The path lives on an explicit stack, which tries the
    coordinates in the order the recursive formulation does, so the
    matching is the same however long the path. Raises CapabilityError
    once `deadline` (a time.monotonic() value) has passed, checked
    before each polytope.
    """
    match_coord = {}
    match_poly = [None] * k
    for i in range(k):
        check_deadline(deadline, "coordinate blocks")
        if supports[i] and supports[i][0] not in match_coord:
            match_coord[supports[i][0]] = i
            match_poly[i] = supports[i][0]
            continue
        seen, tried, stack = set(), [], []
        options = iter(supports[i])
        while True:
            for c in options:
                if c not in seen:
                    break
            else:  # the last polytope on the path is stuck: back up
                if not stack:
                    return None
                options = stack.pop()
                tried.pop()
                continue
            seen.add(c)
            tried.append(c)
            j = match_coord.get(c)
            if j is None:
                break
            stack.append(options)
            options = iter(supports[j])
        # Augment: each polytope on the path takes the coordinate it tried.
        taker = i
        for c in tried:
            match_poly[taker] = c
            match_coord[c], taker = taker, match_coord.get(c)
    return match_poly


def _sccs(adj, n):
    """Tarjan's strongly connected components, iterative."""
    index = {}
    low = {}
    stack = []
    comps = []

    for root in range(n):
        if root in index:
            continue
        work = [(root, iter(sorted(adj[root])))]
        index[root] = low[root] = len(index)
        stack.append(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(sorted(adj[w]))))
                    break
                low[v] = min(low[v], low[w])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        low[w] = n  # off the stack: an edge to w lowers no link
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
    return comps
