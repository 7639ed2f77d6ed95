import numpy as np
import pytest

from gridmarket.optim import (
    INFEASIBLE, LpProblem, OPTIMAL, UNBOUNDED, solve_lp,
)
from helpers import dual_objective, enumerate_lp_optimum, random_feasible_lp


def test_single_bound_constraint_dual():
    # min x s.t. x >= 3 (posed as -x <= -3)
    p = LpProblem(c=[1.0], A_ub=[[-1.0]], b_ub=[-3.0],
                  bounds=[(-np.inf, np.inf)])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    assert s.x[0] == pytest.approx(3.0)
    assert s.duals_ub[0] == pytest.approx(1.0)


def test_textbook_vertex():
    p = LpProblem(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    s = solve_lp(p)
    assert s.objective == pytest.approx(-1.0)
    assert s.duals_ub[0] == pytest.approx(1.0)


def test_infeasible_and_unbounded():
    p = LpProblem(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                  bounds=[(-np.inf, np.inf)])
    assert solve_lp(p).status == INFEASIBLE
    p2 = LpProblem(c=[-1.0], bounds=[(0.0, np.inf)])
    assert solve_lp(p2).status == UNBOUNDED


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        p = random_feasible_lp(rng)
        s = solve_lp(p)
        assert s.status == OPTIMAL
        oracle = enumerate_lp_optimum(p)
        assert oracle is not None
        assert s.objective == pytest.approx(oracle, abs=1e-8)
        checked += 1


def test_strong_duality_and_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = random_feasible_lp(rng)
        s = solve_lp(p)
        assert s.status == OPTIMAL
        # primal feasibility
        assert np.all(p.A_ub @ s.x <= p.b_ub + 1e-8)
        # duals_ub >= 0, complementary slackness on inequality rows
        assert np.all(s.duals_ub >= -1e-12)
        slack = p.b_ub - p.A_ub @ s.x
        assert np.all(np.abs(s.duals_ub * slack) <= 1e-8)
        # dual objective equals primal objective
        assert dual_objective(s, p) == pytest.approx(s.objective, abs=1e-8)


def test_row_scaling_scales_dual():
    p = LpProblem(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    base = solve_lp(p)
    k = 5.0
    scaled = LpProblem(c=[-1.0, -1.0], A_ub=[[k, k]], b_ub=[k])
    s = solve_lp(scaled)
    np.testing.assert_allclose(s.x, base.x, atol=1e-10)
    assert s.duals_ub[0] == pytest.approx(base.duals_ub[0] / k)


def test_solver_deterministic():
    rng = np.random.default_rng(17)
    p = random_feasible_lp(rng)
    s1, s2 = solve_lp(p), solve_lp(p)
    np.testing.assert_array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


def test_bounds_from_list_or_array_are_one_float_array():
    pairs = [(0.0, 1.0), (-np.inf, 2), (3, np.inf)]
    from_list = LpProblem(c=[1.0, 2.0, 3.0], bounds=pairs)
    from_array = LpProblem(c=[1.0, 2.0, 3.0], bounds=np.array(pairs))
    for p in (from_list, from_array):
        assert isinstance(p.bounds, np.ndarray) and p.bounds.dtype == float
        np.testing.assert_array_equal(p.bounds, np.array(pairs, dtype=float))
    # no bounds: every variable in [0, +inf)
    np.testing.assert_array_equal(LpProblem(c=[1.0, 2.0]).bounds,
                                  [[0.0, np.inf], [0.0, np.inf]])


@pytest.mark.parametrize("bounds", [
    [(0.0, 1.0)] * 3,                  # one pair too many
    [(0.0, 1.0)],                      # one pair too few
    np.zeros(4),                       # flat, not (n, 2)
    np.zeros((2, 3)),
])
def test_bounds_length_mismatch_rejected(bounds):
    with pytest.raises(ValueError, match="one \\(lo, hi\\) pair per variable"):
        LpProblem(c=[1.0, 2.0], bounds=bounds)


def test_bounds_lo_above_hi_names_the_first_bad_pair():
    with pytest.raises(ValueError,
                       match=r"^variable 1: bound lo 3\.0 > hi 2\.0$"):
        LpProblem(c=[0.0] * 4,
                  bounds=[(0, 1), (3, 2), (5, 4), (np.inf, 0)])
    # equal bounds fix a variable and are fine
    LpProblem(c=[0.0], bounds=[(2.0, 2.0)])


def test_solve_lp_runs_the_dual_simplex_without_presolve(monkeypatch):
    # solve_lp imports linprog at call time, so the spy sits on scipy's name.
    import scipy.optimize

    calls = []
    linprog = scipy.optimize.linprog

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    assert solve_lp(LpProblem(c=[1.0], bounds=[(2.0, 5.0)])).x[0] == 2.0
    (kwargs,) = calls
    assert kwargs["method"] == "highs-ds"
    assert kwargs["options"] == {"presolve": False}
