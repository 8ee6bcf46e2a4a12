import random
from collections import Counter
from fractions import Fraction as F

import pytest
from reference_simplex import solve as reference_solve

from lamanmv import linprog
from lamanmv.linprog import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    feasible,
    solve,
    verify_farkas,
)


def test_margin_at_zero():
    out = solve(LinearProgram.make([1], [([1], "<=", 0), ([1], ">=", 0)]))
    assert out.status == OPTIMAL
    assert out.value == 0
    assert out.point == (F(0),)


def test_simple_max():
    out = solve(LinearProgram.make([1], [([1], "<=", 5)]))
    assert out.status == OPTIMAL and out.value == 5


def test_infeasible_with_farkas():
    lp = LinearProgram.make([0], [([1], "<=", 0), ([1], ">=", 1)])
    out = solve(lp)
    assert out.status == INFEASIBLE
    assert verify_farkas(lp, out.certificate)


def test_feasible_wrapper_empty():
    out = feasible([], 2)
    assert out.status == OPTIMAL
    assert out.point == (F(0), F(0))


def test_feasible_wrapper_simplex_face():
    out = feasible([([1, 1], "=", 1), ([1, 0], ">=", 0), ([0, 1], ">=", 0)], 2)
    assert out.status == OPTIMAL
    x, y = out.point
    assert x + y == 1 and x >= 0 and y >= 0


def test_unbounded_gives_ray():
    out = solve(LinearProgram.make([1], [([1], ">=", 3)]))
    assert out.status == UNBOUNDED
    ray = out.certificate
    assert ray[0] > 0  # improving direction


def test_exact_rational_optimum():
    # max x + y s.t. 3x + y <= 7/2, x + 4y <= 9/5
    lp = LinearProgram.make(
        [1, 1],
        [([3, 1], "<=", F(7, 2)), ([1, 4], "<=", F(9, 5))],
        bounds=[(0, None), (0, None)],
    )
    out = solve(lp)
    assert out.status == OPTIMAL
    x, y = out.point
    assert 3 * x + y <= F(7, 2) and x + 4 * y <= F(9, 5)
    # optimum is at the intersection of both rows
    assert 3 * x + y == F(7, 2) and x + 4 * y == F(9, 5)


def test_duality_exact():
    lp = LinearProgram.make(
        [3, 2], [([1, 1], "<=", 4), ([1, 3], "<=", 6)], bounds=[(0, None), (0, None)]
    )
    out = solve(lp)
    assert out.status == OPTIMAL and out.value == 12
    # dual feasibility and zero gap are asserted inside solve; spot check
    y = out.certificate
    assert all(yi >= 0 for yi in y[:2])


def test_determinism():
    lp = LinearProgram.make(
        [1, 2, 3],
        [([1, 1, 1], "<=", 10), ([1, -1, 0], ">=", -4), ([0, 1, 1], "=", 6)],
    )
    outs = [solve(lp) for _ in range(3)]
    assert all(o.point == outs[0].point for o in outs)
    assert all(o.certificate == outs[0].certificate for o in outs)


def test_degenerate_cycling_guard():
    # Classic degenerate LP; Bland's rule must terminate.
    lp = LinearProgram.make(
        [F(3, 4), -150, F(1, 50), -6],
        [
            ([F(1, 4), -60, F(-1, 25), 9], "<=", 0),
            ([F(1, 2), -90, F(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
        bounds=[(0, None)] * 4,
    )
    out = solve(lp)
    assert out.status == OPTIMAL
    assert out.value == F(1, 20)


def test_bad_relation_rejected():
    from lamanmv.errors import InputError

    with pytest.raises(InputError):
        LinearProgram.make([1], [([1], "<", 0)])


def _random_value(rng):
    if rng.random() < 0.35:
        return 0
    return F(rng.randint(-6, 6), rng.choice([1, 1, 1, 2, 3, 5]))


def _random_bound(rng):
    t = rng.random()
    if t < 0.25:
        return (None, None)
    if t < 0.5:
        return (0, None)
    if t < 0.65:
        return (_random_value(rng), None)
    if t < 0.8:
        return (None, _random_value(rng))
    return (-3, _random_value(rng) + 3)


def _random_lp(rng):
    """Small LP with mixed relations, rational data and sparse rows.

    About one row in seven is a rescaled copy of an earlier row, mostly
    as an equality, so redundant and degenerate systems are common.
    """
    n = rng.randint(1, 5)
    rows = []
    for _ in range(rng.randint(0, 6)):
        if rows and rng.random() < 0.15:
            coeffs, rel, rhs = rng.choice(rows)
            k = rng.choice([F(-2), F(1, 2), F(3)])
            rel = "=" if rng.random() < 0.7 else rel
            rows.append(([k * c for c in coeffs], rel, k * rhs))
        else:
            coeffs = [_random_value(rng) for _ in range(n)]
            rows.append((coeffs, rng.choice(["<=", "=", ">="]), _random_value(rng)))
    kind = rng.random()
    if kind < 0.3:
        bounds = [(0, None)] * n
    elif kind < 0.6:
        bounds = [_random_bound(rng) for _ in range(n)]
    else:
        bounds = None
    return LinearProgram.make([_random_value(rng) for _ in range(n)], rows, bounds)


def test_matches_reference_simplex():
    rng = random.Random(2008)
    statuses = Counter()
    for _ in range(3000):
        lp = _random_lp(rng)
        out = solve(lp)
        assert out == reference_solve(lp), lp
        statuses[out.status] += 1
    assert min(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)) > 500


def test_redundant_equality_drives_out_with_negative_pivot(monkeypatch):
    # -x = 0 and x = 0 leave an artificial basic at level zero whose row
    # has a negative entry, so the drive-out pivot flips the common
    # denominator's sign.
    lp = LinearProgram.make([-2], [([-1], "=", 0), ([1], "=", 0)])
    entries = []
    pivot = linprog._Tableau.pivot

    def recording_pivot(self, leave, enter):
        entries.append(self.rows[leave][enter])
        pivot(self, leave, enter)

    monkeypatch.setattr(linprog._Tableau, "pivot", recording_pivot)
    out = solve(lp)
    assert any(p < 0 for p in entries)
    assert out == reference_solve(lp)
    assert out.status == OPTIMAL and out.value == 0 and out.certificate == (2, 0)
