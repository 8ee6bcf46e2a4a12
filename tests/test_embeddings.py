import time
from fractions import Fraction as F

import pytest

from lamanmv.embeddings import (
    enumerate_h1,
    reflect,
    tight_lengths,
    verify_embedding,
)
from lamanmv.errors import CapabilityError, DegenerateInputError, InputError
from lamanmv.graphs import (
    Framework,
    HennebergSequence,
    StepI,
    StepII,
    henneberg_apply,
    random_henneberg_sequence,
)


def test_tight_lengths_base_triangle():
    fw = tight_lengths(HennebergSequence(()))
    assert fw.lengths == {(1, 2): 3, (1, 3): 4, (2, 3): 5}


def test_tight_lengths_first_step():
    fw = tight_lengths(HennebergSequence((StepI(1, 3),)))
    assert fw.lengths[(1, 4)] == 13
    assert fw.lengths[(3, 4)] == 14


def test_tight_lengths_rejects_degree3_steps():
    seq = HennebergSequence((StepI(1, 2), StepII(1, 2, 3, removed=(1, 2))))
    with pytest.raises(InputError):
        tight_lengths(seq)


def test_triangle_two_mirror_embeddings():
    seq = HennebergSequence(())
    embs = enumerate_h1(tight_lengths(seq), seq)
    assert len(embs) == 2
    a, b = embs
    assert a.points[3][1] == -b.points[3][1]
    assert a.points[1] == (0.0, 0.0)
    assert a.points[2] == (3.0, 0.0)


def test_tight_counts_up_to_eight():
    for n in range(3, 9):
        seq = random_henneberg_sequence(n, seed=n * 7)
        embs = enumerate_h1(tight_lengths(seq), seq)
        assert len(embs) == 2 ** (n - 2)
        assert all(e.residual < 1e-9 for e in embs)


def test_deadline_in_the_past_stops_enumeration():
    seq = random_henneberg_sequence(5, seed=0)
    with pytest.raises(CapabilityError):
        enumerate_h1(tight_lengths(seq), seq, deadline=time.monotonic() - 1)


def test_unreachable_length_gives_zero():
    seq = HennebergSequence((StepI(1, 2),))
    g = henneberg_apply(seq)
    fw = Framework.make(g, {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 100, (2, 4): 1})
    assert enumerate_h1(fw, seq) == []


def test_tangency_flagged_and_counted_once():
    # Anchors at distance 3 with radii 1 and 2: externally tangent.
    seq = HennebergSequence((StepI(1, 2),))
    g = henneberg_apply(seq)
    fw = Framework.make(g, {(1, 2): 3, (1, 3): 4, (2, 3): 5, (1, 4): 1, (2, 4): 2})
    embs = enumerate_h1(fw, seq)
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
    with pytest.raises(DegenerateInputError):
        enumerate_h1(fw, seq)


def test_verify_embedding_and_perturbation():
    seq = HennebergSequence(())
    fw = tight_lengths(seq)
    embs = enumerate_h1(fw, seq)
    good = embs[0]
    assert verify_embedding(fw, good, F(1, 10**9))
    bad_points = dict(good.points)
    bad_points[3] = (bad_points[3][0] + 1e-3, bad_points[3][1])
    bad = type(good)(points=bad_points, residual=1.0, choices=good.choices)
    assert not verify_embedding(fw, bad, F(1, 10**9))


def test_reflection_closure():
    seq = random_henneberg_sequence(6, seed=11)
    fw = tight_lengths(seq)
    embs = enumerate_h1(fw, seq)
    keys = {tuple(sorted(e.points.items())) for e in embs}

    def rounded(e):
        return tuple(sorted((v, (round(x, 6), round(y, 6))) for v, (x, y) in e.points.items()))

    rounded_keys = {rounded(e) for e in embs}
    for e in embs:
        assert rounded(reflect(e)) in rounded_keys


def test_reflected_embedding_still_verifies():
    seq = random_henneberg_sequence(5, seed=2)
    fw = tight_lengths(seq)
    embs = enumerate_h1(fw, seq)
    assert verify_embedding(fw, reflect(embs[0]), F(1, 10**9))


def test_sequence_graph_mismatch_rejected():
    seq = HennebergSequence((StepI(1, 2),))
    other = HennebergSequence((StepI(1, 3),))
    fw = tight_lengths(other)
    with pytest.raises(InputError):
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
            count = len(enumerate_h1(fw, seq))
        except DegenerateInputError:
            continue
        bound = mv_for_graph(fw, FORM_SUBSOE, seed=0).value
        assert count <= bound == 2 ** (n - 2)
