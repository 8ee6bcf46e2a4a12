"""`_linalg.solve` and `_linalg.int_det` against the Fraction reference.

`int_det` is also compared with the reference determinant through
`edge_matrix_det` in test_mixedvol.py.
"""

import random
from fractions import Fraction as F

from reference_linalg import mat_det, mat_solve
from lamanmv._linalg import int_det, scaled, solve


def _random_system(rng, n, singular):
    """n rational rows (coeffs..., rhs), sparse enough to force row swaps."""

    def entry():
        return F(rng.randint(-9, 9), rng.randint(1, 5)) if rng.random() < 0.7 else F(0)

    rows = [[entry() for _ in range(n + 1)] for _ in range(n)]
    if singular:
        # Coefficients: a combination of the other rows; rhs: anything.
        if n == 1:
            rows[0][0] = F(0)
        else:
            weights = [entry() for _ in range(n - 1)]
            rows[-1][:n] = [sum(w * r[c] for w, r in zip(weights, rows)) for c in range(n)]
        rng.shuffle(rows)
    return rows


def test_solve_matches_fraction_reference():
    rng = random.Random(31)
    singular = solved = 0
    for trial in range(150):
        n = trial % 30 + 1
        rows = _random_system(rng, n, singular=trial % 3 == 0)
        # Each row scaled to integers by its own lcm: the same solution.
        int_rows = [scaled([r])[0][0] for r in rows]
        expected = mat_solve([r[:n] for r in rows], [r[n] for r in rows])
        got = solve(int_rows)
        if expected is None:
            assert got is None
            singular += 1
            continue
        den, x = got
        assert den > 0 and all(isinstance(v, int) for v in x)
        assert [F(v, den) for v in x] == expected
        solved += 1
    assert singular >= 50 and solved >= 90


def test_int_det_matches_fraction_reference():
    # Orders 0-8: the closed forms at orders 2 and 3 and Bareiss elsewhere, on
    # sparse rows (zero leading pivots that need a row swap) and on
    # singular matrices (one row a combination of the others).
    rng = random.Random(35)
    zero_pivot = singular = 0
    for trial in range(450):
        n = trial % 9
        rows = [[rng.randint(-9, 9) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
        if n and trial % 4 == 0:
            weights = [rng.randint(-3, 3) for _ in range(n - 1)]
            rows[-1] = [sum(w * r[c] for w, r in zip(weights, rows)) for c in range(n)]
            rng.shuffle(rows)
        det = int_det(rows)
        assert isinstance(det, int) and det == mat_det(rows), rows
        zero_pivot += n > 1 and not rows[0][0]
        singular += n > 0 and not det
    assert zero_pivot >= 100 and singular >= 100


def test_solve_small_cases():
    assert solve([]) == (1, [])
    assert solve([(0, 5)]) is None
    assert solve([(-2, 3)]) == (2, [-3])
    # A zero leading pivot needs a row swap; the determinant is -1.
    assert solve([(0, 1, 4), (1, 0, 7)]) == (1, [7, 4])
    assert int_det([(0, 1), (1, 0)]) == -1
