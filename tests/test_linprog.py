import random
from collections import Counter
from fractions import Fraction as F

import pytest
from conftest import framework_for
from reference_simplex import GE, LinearProgram
from reference_simplex import INFEASIBLE as REF_INFEASIBLE
from reference_simplex import solve as reference_solve

from lamanmv import linprog
from lamanmv.errors import InputError, InternalError
from lamanmv.graphs import desargues_graph, k33_graph
from lamanmv.linprog import FEASIBLE, INFEASIBLE, feasible, verify_farkas
from lamanmv.mixedvol import mixed_volume, separation_split
from lamanmv.polysys import build_subsoe, supports


def _satisfies(rows, x):
    return all(sum(a * v for a, v in zip(r, x)) >= r[-1] for r in rows)


def test_margin_at_zero():
    assert feasible([[1, 0], [-1, 0]], 1).status == FEASIBLE  # x >= 0 and x <= 0
    assert feasible([[1, 0], [-1, F(1, 7)]], 1).status == INFEASIBLE


def test_infeasible_with_farkas():
    rows = [[-1, 0], [1, 1]]  # x <= 0 and x >= 1
    out = feasible(rows, 1)
    assert out.status == INFEASIBLE
    assert verify_farkas(rows, 1, out.certificate)


def test_implicit_artificials_on_a_zero_column():
    # The second variable's coefficient is zero in every row, so its
    # equality row of the Farkas system is all zero and its artificial
    # stays basic at zero. x >= 1 and x <= 0 is infeasible, x >= 1 and
    # x <= 2 is not; each verdict is the reference's, and the Farkas
    # vector is one nonnegative int per row.
    for rows, status in (([[1, 0, 1], [-1, 0, 0]], INFEASIBLE), ([[1, 0, 1], [-1, 0, -2]], FEASIBLE)):
        out = feasible(rows, 2)
        ref = reference_solve(LinearProgram.make([0, 0], [(r[:-1], GE, r[-1]) for r in rows]))
        assert out.status == status
        assert (ref.status == REF_INFEASIBLE) == (status == INFEASIBLE)
        if status == INFEASIBLE:
            y = out.certificate
            assert len(y) == len(rows) and all(type(v) is int for v in y)
            assert verify_farkas(rows, 2, y)
        else:
            assert out.certificate is None


def test_feasible_wrapper_empty():
    assert feasible([], 2) == linprog.LPOutcome(status=FEASIBLE)


def test_feasible_wrapper_simplex_face():
    rows = [[1, 1, 1], [-1, -1, -1], [1, 0, 0], [0, 1, 0]]  # x + y = 1, x, y >= 0
    assert feasible(rows, 2).status == FEASIBLE
    out = feasible(rows + [[-1, 0, F(1, 2)], [0, -1, F(1, 2)]], 2)  # and x, y <= -1/2
    assert out.status == INFEASIBLE


def test_exact_rational_optimum():
    # 3x + y <= 7/2, x + 4y <= 9/5, x, y >= 0 and x + y >= 141/110, the
    # maximum of x + y, reached only at the rational vertex (61/55,
    # 19/110) where both rows are tight; any larger bound is infeasible.
    rows = [[-3, -1, F(-7, 2)], [-1, -4, F(-9, 5)], [1, 0, 0], [0, 1, 0], [1, 1, F(141, 110)]]
    assert feasible(rows, 2).status == FEASIBLE
    rows[-1][-1] += F(1, 10**9)
    out = feasible(rows, 2)
    assert out.status == INFEASIBLE and verify_farkas(rows, 2, out.certificate)


def test_determinism():
    systems = [
        [[-1, -1, -1, -10], [1, -1, 0, -4], [0, 1, 1, 6], [0, -1, -1, -6]],
        [[1, 2, 0, 3], [-1, -2, 0, -2], [0, 0, 1, 0]],
    ]
    for rows in systems:
        outs = [feasible(rows, 3) for _ in range(3)]
        assert all(o == outs[0] for o in outs)
    assert [feasible(rows, 3).status for rows in systems] == [FEASIBLE, INFEASIBLE]


def test_degenerate_cycling_guard():
    # Beale's degenerate LP (max 3/4 x1 - 150 x2 + 1/50 x3 - 6 x4, optimum
    # 1/20) cycles under the textbook pivoting rule; as a feasibility
    # system with the objective pinned at its optimum, Bland's rule must
    # terminate on both sides of it.
    rows = [
        [F(-1, 4), 60, F(1, 25), -9, 0],
        [F(-1, 2), 90, F(1, 50), -3, 0],
        [0, 0, -1, 0, -1],
    ] + [[int(i == j) for j in range(4)] + [0] for i in range(4)]
    objective = [F(3, 4), -150, F(1, 50), -6]
    out = feasible(rows + [objective + [F(1, 20)]], 4)
    assert out.status == FEASIBLE
    out = feasible(rows + [objective + [F(1, 20) + F(1, 10**6)]], 4)
    assert out.status == INFEASIBLE


def test_bad_row_rejected():
    with pytest.raises(InputError):
        feasible([[1]], 1)
    with pytest.raises(InputError):
        feasible([[1, 2, 3]], 1)


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


def _free_ge_rows(lp):
    """The constraints of an LP as rows (coeffs..., rhs) of <a, x> >= b."""
    n = len(lp.objective)
    rows = []
    for coeffs, rel, rhs in lp.constraints:
        if rel != "<=":
            rows.append([*coeffs, rhs])
        if rel != ">=":
            rows.append([*(-c for c in coeffs), -rhs])
    for j, (lo, hi) in enumerate(lp.bounds or ()):
        unit = [F(int(i == j)) for i in range(n)]
        if lo is not None:
            rows.append(unit + [lo])
        if hi is not None:
            rows.append([-u for u in unit] + [-hi])
    return rows


def test_matches_reference_simplex():
    # Each random LP's constraints, bounds included, become free >= rows;
    # the reference's phase 1 on them must give the same verdict, and each
    # verdict's certificate must check out on its own: the int Farkas
    # vector and the reference's (with the opposite sign convention; the
    # two may differ), or the reference's feasible point.
    rng = random.Random(2008)
    statuses = Counter()
    for _ in range(3000):
        lp = _random_lp(rng)
        n = len(lp.objective)
        rows = _free_ge_rows(lp)
        out = feasible(rows, n)
        ref = reference_solve(LinearProgram.make([0] * n, [(r[:-1], GE, r[-1]) for r in rows]))
        assert (out.status == INFEASIBLE) == (ref.status == REF_INFEASIBLE), rows
        if out.status == INFEASIBLE:
            assert all(type(v) is int for v in out.certificate), rows
            assert verify_farkas(rows, n, out.certificate), rows
            assert verify_farkas(rows, n, tuple(-y for y in ref.certificate)), rows
        else:
            assert _satisfies(rows, ref.point), rows
        statuses[out.status] += 1
    assert min(statuses[s] for s in (FEASIBLE, INFEASIBLE)) > 500


def test_matches_reference_on_search_lps(monkeypatch):
    # Every pruning LP of the mixed-cell search on the prism's 9-dim and
    # K33's 12-dim substituted blocks, as the search builds them: integer
    # rows over the columns its chosen edge equalities leave free. The
    # nodes that two opposite rows prune never reach an LP, so neither
    # block alone hands over 50 infeasible ones.
    recorded = []

    def record(rows, nvars):
        recorded.append((rows, nvars))
        return feasible(rows, nvars)

    monkeypatch.setattr(linprog, "feasible", record)
    for graph, dim in ((desargues_graph, 9), (k33_graph, 12)):
        fw = framework_for(graph())
        block = next(b for b in separation_split(supports(build_subsoe(fw)))
                     if len(b.coordinates) == dim)
        mixed_volume(block.projected, seed=0)
    monkeypatch.undo()
    statuses = Counter()
    for rows, nvars in recorded:
        out = feasible(rows, nvars)
        ref = reference_solve(
            LinearProgram.make([0] * nvars, [(r[:-1], GE, r[-1]) for r in rows])
        )
        assert (out.status == INFEASIBLE) == (ref.status == REF_INFEASIBLE), rows
        statuses[out.status] += 1
    assert min(statuses[s] for s in (FEASIBLE, INFEASIBLE)) > 50, statuses


def test_forged_farkas_vector_is_rejected(monkeypatch):
    rows = [[1, 0, 1], [0, 1, 1], [-1, -1, -1]]  # x >= 1, y >= 1, x + y <= 1
    out = feasible(rows, 2)
    assert out.status == INFEASIBLE
    y = out.certificate
    assert verify_farkas(rows, 2, y)
    forged = [
        tuple(-v for v in y),  # wrong sign
        y[:-1],  # wrong length
        (y[0] + 1,) + y[1:],  # combination not zero on x
        (0,) * len(y),  # no contradiction
        tuple(2 * v for v in y),  # rescaled: still valid
    ]
    assert [verify_farkas(rows, 2, f) for f in forged] == [False, False, False, False, True]
    # A kernel that hands back a forged vector is caught before the verdict
    # leaves feasible().
    monkeypatch.setattr(
        linprog, "solve",
        lambda rows, nvars: linprog.LPOutcome(status=INFEASIBLE, certificate=forged[2]),
    )
    with pytest.raises(InternalError):
        feasible(rows, 2)
