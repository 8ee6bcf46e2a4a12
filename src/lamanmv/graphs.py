"""Graphs, frameworks and the constructive machinery around minimal rigidity.

A graph on n vertices with 2n-3 edges is Laman when every k-subset of
vertices spans at most 2k-3 edges. The check is a (2,3)-pebble game.
Each graph decides its Laman verdict and its construction sequence once,
on first use, and keeps both for its lifetime.
The same game, played with the pinned base edge last, also yields the
edge orientation with in-degree 2 everywhere outside the two base
vertices. Construction sequences (vertex additions of degree 2, or
degree 3 with one edge removal) come from one greedy peel: by Laman's
theorem the first candidate vertex never needs undoing. It tests each
degree-3 join on the verdict game's pebbles, carried down the peel, and
the graph is degree-2-built exactly when its sequence has no degree-3
step. The catalog of Laman graphs up to isomorphism grows from the
single edge by the same steps.
"""

import bisect
import heapq
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import CapabilityError, InputError, InternalError, NoSequenceError, SequenceError

ISO_VERTEX_CAP = 9


def edge_key(a, b):
    if a == b:
        raise InputError(f"loop edge ({a},{a}) not allowed")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset

    @staticmethod
    def make(n, edges):
        if n < 1:
            raise InputError("vertex count must be positive")
        keys = set()
        for a, b in edges:
            if not (1 <= a <= n and 1 <= b <= n):
                raise InputError(f"edge ({a},{b}) out of range 1..{n}")
            k = edge_key(a, b)
            if k in keys:
                raise InputError(f"duplicate edge {k}")
            keys.add(k)
        return Graph(n=n, edges=frozenset(keys))

    def sorted_edges(self):
        return sorted(self.edges)

    def relabel(self, mapping):
        """New graph under a vertex bijection old -> new."""
        return Graph.make(self.n, [(mapping[a], mapping[b]) for a, b in self.edges])

    # The memos below live in the instance __dict__; eq, hash and repr read
    # only the fields.

    @cached_property
    def _verdict(self):
        """(laman, witness tuple or None, the game's `out` for a Laman graph, else None)."""
        if self.n < 2:
            return False, None, None
        witness, out = _pebble_game(sorted(self.edges))
        if witness is not None:
            return False, tuple(witness), None
        laman = len(self.edges) == 2 * self.n - 3
        return laman, None, out if laman else None

    @cached_property
    def _decomposition(self):
        """The greedy peel's decomposition, None below the triangle.

        InputError when not Laman; a failed memo is not kept.
        """
        if not self._verdict[0]:
            raise InputError("graph is not Laman")
        if self.n < 3:
            return None
        peels = _peel_search(self)
        surviving = set(range(1, self.n + 1)) - {p[1] for p in peels}
        orig_to_replay = {v: i + 1 for i, v in enumerate(sorted(surviving))}
        steps = []
        for label, (kind, v, anchors, inserted) in enumerate(reversed(peels), start=4):
            orig_to_replay[v] = label
            anchors = [orig_to_replay[x] for x in anchors]
            steps.append(StepI(*anchors) if kind == "I" else
                         StepII(*anchors, removed=tuple(orig_to_replay[x] for x in inserted)))
        relabeling = {r: o for o, r in orig_to_replay.items()}
        return HennebergDecomposition(HennebergSequence(tuple(steps)), relabeling)


@dataclass(frozen=True)
class Framework:
    graph: Graph
    lengths: dict  # edge key -> positive Fraction

    @staticmethod
    def make(graph, lengths):
        norm = {}
        for (a, b), l in lengths.items():
            k = edge_key(a, b)
            if k not in graph.edges:
                raise InputError(f"length given for non-edge {k}")
            l = Fraction(l)
            if l <= 0:
                raise InputError(f"edge length for {k} must be positive")
            norm[k] = l
        missing = graph.edges - set(norm)
        if missing:
            raise InputError(f"missing lengths for edges {sorted(missing)}")
        return Framework(graph=graph, lengths=norm)

    def relabel(self, mapping):
        g = self.graph.relabel(mapping)
        lengths = {
            edge_key(mapping[a], mapping[b]): l for (a, b), l in self.lengths.items()
        }
        return Framework(graph=g, lengths=lengths)


@dataclass(frozen=True)
class StepI:
    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise InputError("degree-2 addition needs two distinct anchors")


@dataclass(frozen=True)
class StepII:
    a: int
    b: int
    c: int
    removed: tuple

    def __post_init__(self):
        trio = {self.a, self.b, self.c}
        if len(trio) != 3:
            raise InputError("degree-3 addition needs three distinct anchors")
        r = edge_key(*self.removed)
        if not set(r) <= trio:
            raise InputError("removed edge must join two of the anchors")
        object.__setattr__(self, "removed", r)


@dataclass(frozen=True)
class HennebergSequence:
    """Base triangle on vertices 1,2,3; step t creates vertex t+3."""

    steps: tuple

    def is_step1_only(self):
        return all(isinstance(s, StepI) for s in self.steps)


@dataclass(frozen=True)
class HennebergDecomposition:
    sequence: HennebergSequence
    relabeling: dict  # replay label -> original label


@dataclass(frozen=True)
class Orientation:
    """Directions on all edges except the designated base edge."""

    base: tuple
    heads: dict  # edge key -> head vertex

    def in_degrees(self, graph):
        indeg = {v: 0 for v in range(1, graph.n + 1)}
        for _, head in self.heads.items():
            indeg[head] += 1
        return indeg

    def check(self, graph):
        base = edge_key(*self.base)
        if set(self.heads) != graph.edges - {base}:
            return False
        indeg = self.in_degrees(graph)
        for v in range(1, graph.n + 1):
            want = 0 if v in base else 2
            if indeg[v] != want:
                return False
        return True


# ---------------------------------------------------------------------------
# Laman checks


def check_laman(g):
    """(2,3)-pebble game; returns dict with 'laman' and optional 'witness'.

    The witness, when present, is a vertex subset spanning more than
    2k-3 edges (including the edge whose insertion failed).
    """
    laman, witness, _ = g._verdict
    return {"laman": laman, "witness": None if witness is None else list(witness)}


def _pebble_game(order):
    """(2,3)-pebble game inserting the edges in `order`.

    Returns (witness, out). The witness is None when every edge was
    accepted, else that of the first edge that was not. out maps each
    vertex that carries an edge to the far ends of the accepted edges it
    pays for: one pebble per edge, two per vertex.
    """
    out = {v: set() for v in sorted({x for e in order for x in e})}
    for u, v in order:
        if (witness := _insert_edge(out, u, v)) is not None:
            return witness, out
    return None, out


def _insert_edge(out, u, v):
    """One pebble-game step: accept (u, v) into `out`, or return its witness.

    A vertex x has 2 - len(out[x]) free pebbles; the edge is accepted once
    u and v hold all four. Otherwise the witness is the sorted closure the
    failed searches reached, which spans too many edges once (u, v) is
    counted, and `out` is a valid state of the same accepted edges.
    """

    def gather(root):
        """Reverse a path from root to a free pebble off {u, v}; else the vertices reached."""
        stack = [root]
        parent = {root: None}
        while stack:
            x = stack.pop()
            for y in sorted(out[x]):
                if y in parent:
                    continue
                parent[y] = x
                if y != u and y != v and len(out[y]) < 2:
                    while y != root:
                        x = parent[y]
                        out[x].discard(y)
                        out[y].add(x)
                        y = x
                    return None
                stack.append(y)
        return parent

    while out[u] or out[v]:
        if (seen := gather(u)) is not None and (more := gather(v)) is not None:
            return sorted(seen.keys() | more.keys())
    out[u].add(v)
    return None


# ---------------------------------------------------------------------------
# Henneberg construction and decomposition


def triangle():
    return Graph.make(3, [(1, 2), (1, 3), (2, 3)])


def henneberg_apply(seq):
    """Replay a construction sequence from the base triangle."""
    g = triangle()
    edges = set(g.edges)
    n = 3
    for idx, step in enumerate(seq.steps):
        new = n + 1
        if isinstance(step, StepI):
            anchors = (step.a, step.b)
        elif isinstance(step, StepII):
            anchors = (step.a, step.b, step.c)
        else:
            raise SequenceError(f"unknown step type {type(step).__name__}")
        for v in anchors:
            if not (1 <= v <= n):
                raise SequenceError(f"step {idx + 1} references missing vertex {v}")
        if isinstance(step, StepII):
            if step.removed not in edges:
                raise SequenceError(
                    f"step {idx + 1} removes non-existent edge {step.removed}"
                )
            edges.remove(step.removed)
        edges.update(edge_key(v, new) for v in anchors)
        n = new
    return Graph.make(n, edges)


def _peel_search(g):
    """Reverse construction of the Laman graph g down to a triangle, with no backtracking.

    Returns peel records (kind, vertex, anchors, inserted) in peel order.
    Each step peels the smallest degree-2 vertex, else the smallest
    degree-3 vertex with the first neighbour pair whose join leaves a
    Laman graph. By Laman's theorem that choice never needs undoing:
    deleting a degree-2 vertex keeps a graph Laman (and degree-2-built
    when it was), and every degree-3 vertex has such a pair. So g is
    degree-2-built exactly when no record is of kind II.
    The verdict game's pebbles are carried down the peel: a peeled
    vertex's edges leave them, and a join fits exactly when the game
    accepts it. Neighbour sets are kept up to date as vertices go, and
    the smallest candidate comes off a heap of (degree, vertex) entries;
    an entry whose vertex has gone or changed degree since it was pushed
    is stale.
    """
    out = {v: set(heads) for v, heads in g._verdict[2].items()}
    adj = {v: set() for v in out}  # the remaining vertices' neighbours
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    heap = [(len(nb), v) for v, nb in adj.items() if len(nb) in (2, 3)]
    heapq.heapify(heap)
    peels = []
    while len(adj) > 3:
        while heap[0][1] not in adj or len(adj[heap[0][1]]) != heap[0][0]:
            heapq.heappop(heap)
        deg, v = heapq.heappop(heap)
        nbrs = tuple(sorted(adj.pop(v)))
        del out[v]
        for u in nbrs:
            adj[u].remove(v)
            out[u].discard(v)
        ins = None
        if deg == 3:
            joins = (edge_key(x, y) for x, y in itertools.combinations(nbrs, 2))
            fits = (e for e in joins if e[1] not in adj[e[0]] and _insert_edge(out, *e) is None)
            ins = next(fits, None)
            if ins is None:
                raise InternalError(
                    f"no neighbour pair of degree-3 vertex {v} leaves a Laman graph"
                )
            adj[ins[0]].add(ins[1])
            adj[ins[1]].add(ins[0])
        for u in nbrs:
            if len(adj[u]) in (2, 3):
                heapq.heappush(heap, (len(adj[u]), u))
        peels.append(("I" if deg == 2 else "II", v, nbrs, ins))
    return peels


def henneberg_decompose(g):
    """Construction sequence plus explicit relabeling for a Laman graph.

    Replaying the returned sequence gives a graph isomorphic to g; the
    relabeling, a fresh copy of the one the graph keeps, maps replay
    labels to the original ones. Raises NoSequenceError below the triangle.
    """
    dec = g._decomposition
    if dec is None:
        raise NoSequenceError("no construction sequence: sequences start at the triangle")
    return HennebergDecomposition(dec.sequence, dict(dec.relabeling))


HENNEBERG_I = "HennebergI"
HENNEBERG_II = "HennebergII"


def h1_decomposition(g):
    """henneberg_decompose(g) when its steps are all degree-2, else None.

    Raises InputError when g is not Laman.
    """
    return henneberg_decompose(g) if classify(g) == HENNEBERG_I else None


def classify(g):
    """HennebergI iff the peel's sequence has only degree-2 steps.

    None for the single edge: every construction starts at the triangle.
    """
    dec = g._decomposition
    if dec is None:
        return None
    return HENNEBERG_I if dec.sequence.is_step1_only() else HENNEBERG_II


# ---------------------------------------------------------------------------
# Orientation with two incoming edges per non-pinned vertex


def default_base(g):
    """The edge pinned when none is chosen: (1, 2) if present, else the smallest."""
    if not g.edges:
        raise InputError("graph has no edges")
    base = edge_key(1, 2)
    return base if base in g.edges else min(g.edges)


def relabel_with_base(g, base):
    """Relabel so the base edge becomes (1, 2); returns (graph, old->new)."""
    base = edge_key(*base)
    if base not in g.edges:
        raise InputError(f"base {base} is not an edge")
    u, v = base
    mapping = {u: 1, v: 2}
    nxt = 3
    for w in range(1, g.n + 1):
        if w not in mapping:
            mapping[w] = nxt
            nxt += 1
    return g.relabel(mapping), mapping


def orient_two_in(g, base):
    """Edge directions with in-degree 2 off the base, 0 on its endpoints.

    The (2,3)-pebble game plays the base edge last. A Laman graph accepts
    it only once both its endpoints hold both their pebbles, so every
    other vertex has paid for exactly two edges; each non-base edge
    points at the vertex that pays for it.
    """
    base = edge_key(*base)
    if base not in g.edges:
        raise InputError(f"base {base} is not an edge")
    witness, out = _pebble_game(sorted(g.edges - {base}) + [base])
    if witness is not None or len(g.edges) != 2 * g.n - 3:
        raise InputError("graph is not Laman")
    heads = {edge_key(x, y): x for x in out for y in out[x]}
    del heads[base]
    orientation = Orientation(base=base, heads=heads)
    if not orientation.check(g):
        raise InternalError("orientation invariant violated")
    return orientation


# ---------------------------------------------------------------------------
# Isomorphism, catalogs, random construction


def canonical_form(g):
    """Minimum edge tuple over the leaves of individualization-refinement (n <= 9).

    Colour refinement splits vertices by the sorted colours of their
    neighbours. A discrete colouring numbers them 1..n; otherwise each vertex
    of the first smallest non-singleton cell is individualized in turn (McKay
    and Piperno, J. Symbolic Comput. 60, 2014). Only colours are read, so
    isomorphic graphs get the same form.
    """
    if g.n > ISO_VERTEX_CAP:
        raise CapabilityError(f"canonical form capped at {ISO_VERTEX_CAP} vertices")
    nbrs = {v: [a + b - v for a, b in g.edges if v in (a, b)] for v in range(1, g.n + 1)}

    def leaves(colour):
        while True:
            sig = {v: (colour[v], tuple(sorted(colour[w] for w in nbrs[v]))) for v in nbrs}
            rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
            stable = len(rank) == len(set(colour.values()))
            colour = {v: rank[sig[v]] for v in nbrs}
            if stable:
                break
        cells = {}
        for v, c in colour.items():
            cells.setdefault(c, []).append(v)
        if len(cells) == g.n:
            yield tuple(sorted(edge_key(colour[a] + 1, colour[b] + 1) for a, b in g.edges))
            return
        _, c = min((len(vs), c) for c, vs in cells.items() if len(vs) > 1)
        for v in cells[c]:
            yield from leaves({w: 2 * colour[w] + (w != v) for w in nbrs})

    return min(leaves({v: 0 for v in nbrs}))


@lru_cache(maxsize=None)
def all_laman_graphs(n):
    """All Laman graphs on n vertices up to isomorphism (n <= 9).

    The single edge grows into every Laman graph by Henneberg steps, so
    the catalog applies every degree-2 and degree-3 step to each graph of
    the n-1 catalog and keeps the first graph of each canonical form.
    """
    if n > ISO_VERTEX_CAP:
        raise CapabilityError(f"catalog capped at {ISO_VERTEX_CAP} vertices")
    if n < 3:
        return (Graph.make(2, [(1, 2)]),) if n == 2 else ()
    found = {}
    for g in all_laman_graphs(n - 1):
        grown = [g.edges | {(a, n), (b, n)} for a, b in itertools.combinations(range(1, n), 2)]
        grown += [
            (g.edges - {(a, b)}) | {(a, n), (b, n), (c, n)}
            for a, b in sorted(g.edges)
            for c in range(1, n)
            if c not in (a, b)
        ]
        for edges in grown:
            h = Graph(n=n, edges=frozenset(edges))
            found.setdefault(canonical_form(h), h)
    return tuple(found.values())


def desargues_graph():
    """Triangular prism: two triangles joined by a perfect matching."""
    return Graph.make(
        6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4), (2, 5), (3, 6)]
    )


def k33_graph():
    """Complete bipartite graph on parts {1,3,5} and {2,4,6}."""
    return Graph.make(6, [(a, b) for a in (1, 3, 5) for b in (2, 4, 6)])


def random_henneberg_sequence(n, seed, step2_probability=0.0):
    """Seeded random construction sequence reaching n vertices."""
    if n < 3:
        raise InputError("need at least three vertices")
    rng = random.Random(seed)
    steps = []
    edges = sorted(triangle().edges)  # the graph built so far, kept sorted
    for new in range(4, n + 1):
        if new >= 5 and rng.random() < step2_probability:
            r, s = rng.choice(edges)
            # The draw of a choice from the vertices 1..new-1 other than
            # r < s: the entry at index i is i + 1, moved up past r, then s.
            c = rng.choice(range(1, new - 2))
            c += c >= r
            c += c >= s
            del edges[bisect.bisect_left(edges, (r, s))]
            anchors, step = (r, s, c), StepII(r, s, c, removed=(r, s))
        else:
            anchors = rng.sample(range(1, new), 2)
            step = StepI(*anchors)
        steps.append(step)
        for v in anchors:
            bisect.insort(edges, (v, new))
    return HennebergSequence(tuple(steps))
