import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lamanmv.embeddings import (
    Embedding,
    _circle_intersections,
    count_h1,
    enumerate_h1,
    tight_lengths,
)
from lamanmv.errors import CapabilityError, DegenerateInputError, InputError, LamanMVError
from lamanmv.graphs import (
    Framework,
    HennebergSequence,
    StepI,
    StepII,
    edge_key,
    henneberg_apply,
    random_henneberg_sequence,
)


def reflect(embedding):
    """Mirror image across the pinned axis."""
    pts = {v: (x, -y) for v, (x, y) in embedding.points.items()}
    return Embedding(
        points=pts,
        residual=embedding.residual,
        choices=tuple(-c for c in embedding.choices),
        tangent=embedding.tangent,
    )


def verify_embedding(framework, embedding, tol):
    """True iff every edge length is met within relative tolerance."""
    for (i, j), l in framework.lengths.items():
        if i not in embedding.points or j not in embedding.points:
            return False
        dx = embedding.points[i][0] - embedding.points[j][0]
        dy = embedding.points[i][1] - embedding.points[j][1]
        if abs(math.hypot(dx, dy) - float(l)) / float(l) > float(tol):
            return False
    return True


def test_tight_lengths_base_triangle():
    fw = tight_lengths(HennebergSequence(()))
    assert fw.lengths == {(1, 2): 3, (1, 3): 4, (2, 3): 5}


def test_tight_lengths_first_step():
    fw = tight_lengths(HennebergSequence((StepI(1, 3),)))
    assert fw.lengths[(1, 4)] == 13
    assert fw.lengths[(3, 4)] == 14


def test_tight_lengths_match_the_summing_recipe():
    # The recipe as stated: each step's two lengths exceed the sum of all
    # lengths assigned before, by 1 and 2.
    for n, seed in itertools.product((3, 4, 9, 25), range(4)):
        seq = random_henneberg_sequence(n, seed=seed)
        lengths = {(1, 2): 3, (1, 3): 4, (2, 3): 5}
        for v, step in enumerate(seq.steps, start=4):
            total = sum(lengths.values())
            a, b = sorted((step.a, step.b))
            lengths[(a, v)], lengths[(b, v)] = total + 1, total + 2
        assert tight_lengths(seq).lengths == lengths


def test_tight_lengths_rejects_degree3_steps():
    seq = HennebergSequence((StepI(1, 2), StepII(1, 2, 3, removed=(1, 2))))
    with pytest.raises(InputError):
        tight_lengths(seq)


def test_triangle_two_mirror_embeddings():
    seq = HennebergSequence(())
    embs = list(enumerate_h1(tight_lengths(seq), seq))
    assert len(embs) == 2
    a, b = embs
    assert a.points[3][1] == -b.points[3][1]
    assert a.points[1] == (0.0, 0.0)
    assert a.points[2] == (3.0, 0.0)


def test_tight_counts_up_to_eight():
    for n in range(3, 9):
        seq = random_henneberg_sequence(n, seed=n * 7)
        embs = list(enumerate_h1(tight_lengths(seq), seq))
        assert len(embs) == 2 ** (n - 2)
        assert all(e.residual < 1e-9 for e in embs)


def test_deadline_in_the_past_stops_enumeration():
    seq = random_henneberg_sequence(5, seed=0)
    embs = enumerate_h1(tight_lengths(seq), seq, deadline=time.monotonic() - 1)
    with pytest.raises(CapabilityError):  # raised on iteration
        next(embs)


def test_unreachable_length_gives_zero():
    seq = HennebergSequence((StepI(1, 2),))
    g = henneberg_apply(seq)
    fw = Framework.make(g, {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 100, (2, 4): 1})
    assert list(enumerate_h1(fw, seq)) == []


def test_tangency_flagged_and_counted_once():
    # Anchors at distance 3 with radii 1 and 2: externally tangent.
    seq = HennebergSequence((StepI(1, 2),))
    g = henneberg_apply(seq)
    fw = Framework.make(g, {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 1, (2, 4): 2})
    embs = list(enumerate_h1(fw, seq))
    assert len(embs) == 2  # one tangency point per apex branch
    for e in embs:
        assert e.tangent
        assert e.choices.count(0) == 1


def test_coincident_equal_circles_raise():
    # Vertex 4 duplicates vertex 3 on one branch, so vertex 5 sees two
    # identical circles there.
    seq = HennebergSequence((StepI(1, 2), StepI(3, 4)))
    g = henneberg_apply(seq)
    fw = Framework.make(
        g,
        {
            (1, 2): 3,
            (1, 3): 4,
            (2, 3): 5,
            (1, 4): 4,
            (2, 4): 5,
            (3, 5): 2,
            (4, 5): 2,
        },
    )
    embs = enumerate_h1(fw, seq)
    with pytest.raises(DegenerateInputError):  # raised on iteration
        list(embs)


def test_verify_embedding_and_perturbation():
    seq = HennebergSequence(())
    fw = tight_lengths(seq)
    embs = list(enumerate_h1(fw, seq))
    good = embs[0]
    assert verify_embedding(fw, good, F(1, 10**9))
    bad_points = dict(good.points)
    bad_points[3] = (bad_points[3][0] + 1e-3, bad_points[3][1])
    bad = type(good)(points=bad_points, residual=1.0, choices=good.choices)
    assert not verify_embedding(fw, bad, F(1, 10**9))


def test_reflection_closure():
    seq = random_henneberg_sequence(6, seed=11)
    fw = tight_lengths(seq)
    embs = list(enumerate_h1(fw, seq))
    keys = {tuple(sorted(e.points.items())) for e in embs}

    def rounded(e):
        return tuple(sorted((v, (round(x, 6), round(y, 6))) for v, (x, y) in e.points.items()))

    rounded_keys = {rounded(e) for e in embs}
    for e in embs:
        assert rounded(reflect(e)) in rounded_keys


def test_reflected_embedding_still_verifies():
    seq = random_henneberg_sequence(5, seed=2)
    fw = tight_lengths(seq)
    embs = list(enumerate_h1(fw, seq))
    assert verify_embedding(fw, reflect(embs[0]), F(1, 10**9))


def test_sequence_graph_mismatch_rejected():
    seq = HennebergSequence((StepI(1, 2),))
    other = HennebergSequence((StepI(1, 3),))
    fw = tight_lengths(other)
    with pytest.raises(InputError):  # validated before the first embedding
        enumerate_h1(fw, seq)


def test_count_never_exceeds_substituted_bound():
    from lamanmv.mixedvol import mv_for_graph
    from lamanmv.polysys import FORM_SUBSOE

    for n, seed in ((4, 3), (5, 8)):
        seq = random_henneberg_sequence(n, seed=seed)
        g = henneberg_apply(seq)
        # Non-tight lengths: generic smallish values, possibly unreachable.
        fw = Framework.make(
            g, {e: F(i + 2, 1) for i, e in enumerate(sorted(g.edges))}
        )
        try:
            count = len(list(enumerate_h1(fw, seq)))
        except DegenerateInputError:
            continue
        bound = mv_for_graph(fw, FORM_SUBSOE, seed=0).value
        assert count <= bound == 2 ** (n - 2)


def eager_reference(framework, seq):
    """The former eager definition of `enumerate_h1`.

    Collects every leaf of the depth-first search (visiting +1 before -1,
    so that the sort alone fixes the order), sorts the leaves by their
    choices and takes each residual as the largest relative error over
    all framework edges.
    """
    lengths = {e: float(l) for e, l in framework.lengths.items()}
    anchors = [(1, 2, 3)] + [(s.a, s.b, 4 + i) for i, s in enumerate(seq.steps)]
    leaves = []

    def place(pos, idx, choices, tangent_seen):
        if idx == len(anchors):
            leaves.append((dict(pos), tuple(choices), tangent_seen))
            return
        a, b, v = anchors[idx]
        pts = _circle_intersections(
            pos[a], lengths[edge_key(a, v)], pos[b], lengths[edge_key(b, v)]
        )
        for pt, sign in reversed(pts):
            pos[v] = (float(pt[0]), float(pt[1]))
            place(pos, idx + 1, choices + [sign], tangent_seen or len(pts) == 1)
            del pos[v]

    place({1: (0.0, 0.0), 2: (lengths[(1, 2)], 0.0)}, 0, [], False)
    out = []
    for pos, choices, tangent in sorted(leaves, key=lambda r: r[1]):
        worst = 0.0
        for (i, j), l in framework.lengths.items():
            dx = pos[i][0] - pos[j][0]
            dy = pos[i][1] - pos[j][1]
            worst = max(worst, abs(math.hypot(dx, dy) - float(l)) / float(l))
        out.append(Embedding(points=pos, residual=worst, choices=choices, tangent=tangent))
    return out


def test_stream_matches_eager_reference():
    """Points, choices, tangent flags, residuals and order, exactly; and the count."""
    frameworks = []
    for n in range(3, 10):
        for seed in range(6):
            seq = random_henneberg_sequence(n, seed=seed)
            frameworks.append((tight_lengths(seq), seq))
            # Small random lengths leave many intersections empty.
            rng = random.Random(f"{n}/{seed}")
            g = henneberg_apply(seq)
            lengths = {e: F(rng.randint(1, 20), rng.randint(1, 3)) for e in sorted(g.edges)}
            frameworks.append((Framework.make(g, lengths), seq))
    seq = HennebergSequence((StepI(1, 2),))
    tangent = {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 1, (2, 4): 2}
    frameworks.append((Framework.make(henneberg_apply(seq), tangent), seq))

    total = empty = 0
    for fw, seq in frameworks:
        expected = eager_reference(fw, seq)
        assert list(enumerate_h1(fw, seq)) == expected
        assert count_h1(fw, seq) == len(expected)
        total += len(expected)
        empty += not expected
    assert total > 1500 and empty > 30


def outcome(walk):
    """The walk's result, or the type and message of the error it raised."""
    try:
        return walk()
    except LamanMVError as exc:
        return type(exc), str(exc)


@st.composite
def h1_frameworks(draw):
    """A degree-2-built framework with random rational lengths, and its sequence.

    Thirds between 3 and 9: of 200 draws, about a quarter count some but
    not all 2^(n-2) embeddings and another quarter none.
    """
    n = draw(st.integers(3, 10))
    seq = random_henneberg_sequence(n, seed=draw(st.integers(0, 2**16)))
    g = henneberg_apply(seq)
    length = st.builds(F, st.integers(9, 27), st.just(3))
    lengths = {e: draw(length) for e in sorted(g.edges)}
    return Framework.make(g, lengths), seq


@settings(max_examples=200, deadline=None, derandomize=True)
@given(h1_frameworks())
def test_count_matches_enumeration(case):
    fw, seq = case
    expected = outcome(lambda: len(list(enumerate_h1(fw, seq))))
    assert outcome(lambda: count_h1(fw, seq)) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(h1_frameworks())
def test_second_apex_subtree_mirrors_the_first(case):
    # The premise of the halving in `count_h1`, bit for bit: the embeddings
    # under the apex's second point are those under its first, reflected.
    fw, seq = case

    def key(e):
        return e.choices, tuple(sorted(e.points.items())), e.residual, e.tangent

    try:
        embs = list(enumerate_h1(fw, seq))
    except DegenerateInputError:
        return
    first = {key(reflect(e)) for e in embs if e.choices[0] == -1}
    assert first == {key(e) for e in embs if e.choices[0] == +1}


def test_count_tight_tangent_coincident_and_deadline():
    for n in range(3, 12):
        seq = random_henneberg_sequence(n, seed=n)
        assert count_h1(tight_lengths(seq), seq) == 2 ** (n - 2)
    # Anchors at distance 3 with radii 1 and 2: one tangency point per apex branch.
    seq = HennebergSequence((StepI(1, 2),))
    tangent = {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 1, (2, 4): 2}
    assert count_h1(Framework.make(henneberg_apply(seq), tangent), seq) == 2
    # An apex with one point (tangent) or none is walked whole.
    for step, lengths, count in [
        ((), {(1, 2): 3, (1, 3): 1, (2, 3): 2}, 1),
        ((StepI(1, 2),), {(1, 2): 3, (1, 3): 1, (2, 3): 2, (1, 4): 4, (2, 4): 5}, 2),
        ((), {(1, 2): 3, (1, 3): 1, (2, 3): 1}, 0),
        ((StepI(1, 2),), {(1, 2): 3, (1, 3): 1, (2, 3): 1, (1, 4): 4, (2, 4): 5}, 0),
    ]:
        seq = HennebergSequence(step)
        fw = Framework.make(henneberg_apply(seq), lengths)
        assert count_h1(fw, seq) == len(list(enumerate_h1(fw, seq))) == count
        with pytest.raises(CapabilityError, match="timed out"):
            count_h1(fw, seq, deadline=time.monotonic() - 1)
    # Vertex 4 duplicates vertex 3 on one branch: vertex 5 sees one circle twice.
    seq = HennebergSequence((StepI(1, 2), StepI(3, 4)))
    coincident = {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 4, (2, 4): 5, (3, 5): 2, (4, 5): 2}
    with pytest.raises(DegenerateInputError):
        count_h1(Framework.make(henneberg_apply(seq), coincident), seq)
    seq = random_henneberg_sequence(5, seed=0)
    with pytest.raises(CapabilityError, match="timed out"):
        count_h1(tight_lengths(seq), seq, deadline=time.monotonic() - 1)


def test_count_validates_like_enumeration():
    seq = HennebergSequence((StepI(1, 2),))
    g = henneberg_apply(seq)
    other = tight_lengths(HennebergSequence((StepI(1, 3),)))
    step2 = HennebergSequence((StepI(1, 2), StepII(1, 2, 3, removed=(1, 2))))
    huge = Framework.make(g, {e: F(10) ** 400 for e in g.edges})
    for fw, s in ((other, seq), (tight_lengths(seq), step2), (huge, seq)):
        expected = outcome(lambda: enumerate_h1(fw, s))  # raised before the first embedding
        assert expected[0] is InputError
        assert outcome(lambda: count_h1(fw, s)) == expected
