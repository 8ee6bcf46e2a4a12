"""Real planar realizations of degree-2 construction sequences.

Every vertex added with two edges sits on the intersection of two
circles, so a framework built purely from such steps has at most two
choices per vertex and all embeddings are streamed, in canonical order,
out of a depth-first product over those choices (`enumerate_h1`).
`count_h1` walks the same product and only counts its leaves, which is
all that `report` needs. Reflections across the pinned axis count as
distinct embeddings (the pinning kills translations and rotations
only), which is why the triangle has exactly two. Vertices 1 and 2 sit
on that axis, so the whole subtree under the apex's second point is the
mirror image of the subtree under its first, bit for bit, and
`count_h1` walks the first only and doubles its count.

Edge lengths from tight_lengths make every intersection real and
transversal, so the 2^(n-2) bound is attained.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, InputError, check_deadline
from .graphs import Framework, edge_key, henneberg_apply

TANGENCY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Embedding:
    points: dict  # vertex -> (x, y) floats
    residual: float
    choices: tuple  # +1/-1 per circle intersection, 0 at a tangency
    tangent: bool = False  # 0 in choices


def tight_lengths(seq):
    """Edge lengths realizing the full embedding count.

    Base triangle (3, 4, 5); every step's two new lengths exceed the sum
    of everything assigned before, so both circle intersections exist on
    every branch.
    """
    if not seq.is_step1_only():
        raise InputError("tight lengths are defined for degree-2 steps only")
    g = henneberg_apply(seq)
    lengths = {
        edge_key(1, 2): Fraction(3),
        edge_key(1, 3): Fraction(4),
        edge_key(2, 3): Fraction(5),
    }
    total = sum(lengths.values())
    for new_vertex, step in enumerate(seq.steps, start=4):
        a, b = sorted((step.a, step.b))
        lengths[edge_key(a, new_vertex)] = total + 1
        lengths[edge_key(b, new_vertex)] = total + 2
        total += (total + 1) + (total + 2)
    return Framework.make(g, lengths)


def _circle_intersections(c1, r1, c2, r2):
    """Intersection points of two circles, as (point, sign) pairs.

    The sign is -1 or +1, and 0 exactly at a tangency. Coincident centers
    with equal radii are degenerate input; empty intersections give none.
    """
    x1, y1 = float(c1[0]), float(c1[1])
    dx, dy = float(c2[0]) - x1, float(c2[1]) - y1
    d2 = dx * dx + dy * dy
    if d2 == 0.0:
        if abs(r1 - r2) <= TANGENCY_TOLERANCE:
            raise DegenerateInputError("coincident circles: infinitely many points")
        return []
    d = math.sqrt(d2)
    along = (r1 * r1 - r2 * r2 + d2) / (2 * d)
    h2 = r1 * r1 - along * along
    scale = max(r1 * r1, r2 * r2, d2)
    if h2 < -TANGENCY_TOLERANCE * scale:
        return []
    t = along / d
    bx, by = x1 + t * dx, y1 + t * dy
    if h2 <= TANGENCY_TOLERANCE * scale:
        return [((bx, by), 0)]
    h = math.sqrt(h2)
    nx, ny = -dy / d, dx / d
    return [((bx - h * nx, by - h * ny), -1), ((bx + h * nx, by + h * ny), +1)]


def _placements(framework, seq):
    """Validated set-up of both walks: the pinned positions and the placements.

    Vertices 1 and 2 sit at (0,0) and (l12, 0). Each placement is
    (a, b, v, |av|, |bv|), lengths as floats: vertex v goes on the circles
    about its anchors a and b, the apex 3 first, then every added vertex.
    """
    if not seq.is_step1_only():
        raise InputError("enumeration needs a degree-2-only sequence")
    g = henneberg_apply(seq)
    if g.edges != framework.graph.edges or g.n != framework.graph.n:
        raise InputError("framework does not match the sequence's graph")
    try:
        lengths = {e: float(l) for e, l in framework.lengths.items()}
    except OverflowError:
        raise InputError("an edge length exceeds the floating-point range")
    if 0.0 in lengths.values():
        raise InputError("an edge length is below the floating-point range")
    anchors = [(1, 2, 3)] + [(s.a, s.b, 4 + i) for i, s in enumerate(seq.steps)]
    placements = [
        (a, b, v, lengths[edge_key(a, v)], lengths[edge_key(b, v)]) for a, b, v in anchors
    ]
    return {1: (0.0, 0.0), 2: (lengths[edge_key(1, 2)], 0.0)}, placements


def enumerate_h1(framework, seq, deadline=None):
    """All embeddings of a degree-2-step framework, as a generator.

    The apex and every added vertex contribute at most two intersection
    points each (`_placements`). Inputs are validated before this
    returns. The depth-first search visits the -1 intersection first, so
    embeddings come in the canonical order of their choices; a residual
    is the worst relative edge error, each edge measured when its later
    endpoint is placed. Iterating raises CapabilityError once `deadline`
    (a time.monotonic() value) has passed, checked once per placed vertex.
    """
    pos, placements = _placements(framework, seq)

    def error(anchor, pt, length):
        (ux, uy), (vx, vy) = pos[anchor], pt
        return abs(math.hypot(ux - vx, uy - vy) - length) / length

    def walk():
        # Each entry places vertex v at pt, then visits placement idx; the
        # root re-places vertex 1 at the origin. Children are pushed in
        # reverse, so the -1 intersection comes off the stack first.
        stack = [(0, 1, pos[1], (), 0.0)]
        while stack:
            idx, v, pt, choices, residual = stack.pop()
            check_deadline(deadline, "embedding enumeration")
            pos[v] = pt
            if idx == len(placements):
                yield Embedding(
                    points=dict(pos), residual=residual, choices=choices, tangent=0 in choices
                )
                continue
            a, b, w, ra, rb = placements[idx]
            for pt, sign in reversed(_circle_intersections(pos[a], ra, pos[b], rb)):
                worst = max(residual, error(a, pt, ra), error(b, pt, rb))
                stack.append((idx + 1, w, pt, choices + (sign,), worst))

    return walk()


def count_h1(framework, seq, deadline=None):
    """How many embeddings `enumerate_h1` yields, without building them.

    The same validation, errors and deadline checks, and the same
    depth-first walk over the circle intersections, but it only counts
    the leaves: no Embedding, point copy or residual. When the apex has
    two points, only the subtree under the first is walked and its count
    doubled: the second subtree is its mirror image across the pinned
    axis, exactly in floating point (`_circle_intersections` on mirrored
    centres negates every y and swaps the two points, and its tangency
    and emptiness tests read squares only).
    """
    pos, placements = _placements(framework, seq)
    total, weight = 0, 1
    stack = [(0, 1, pos[1])]  # as in `enumerate_h1`
    while stack:
        idx, v, pt = stack.pop()
        check_deadline(deadline, "embedding enumeration")
        pos[v] = pt
        if idx == len(placements):
            total += 1
            continue
        a, b, w, ra, rb = placements[idx]
        pts = _circle_intersections(pos[a], ra, pos[b], rb)
        if idx == 0 and len(pts) == 2:
            pts, weight = pts[:1], 2
        for pt, _ in reversed(pts):
            stack.append((idx + 1, w, pt))
    return weight * total
