import numpy as np
import pytest
from scipy import sparse

import gridmarket.clearing as clearing
from gridmarket.clearing import MarketInput, clear
from gridmarket.curves import Curve, DEMAND, SUPPLY
from gridmarket.dlmp import build_scopf
from gridmarket.optim import (
    INFEASIBLE, LpProblem, NumericalFailure, OPTIMAL, UNBOUNDED, solve_lp,
)
from helpers import (
    capped_gen_exporting_at_limit, demand_filling_a_capped_line,
    dual_objective, enumerate_lp_optimum, idle_gen_behind_full_line,
    random_feasible_lp, random_radial_network,
)


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
    # Read back the options of the HiGHS object solve_lp runs.
    from scipy.optimize._highspy._core import _Highs

    options = []
    run = _Highs.run

    def spy(highs):
        options.append({name: highs.getOptionValue(name)[1] for name in
                        ("output_flag", "presolve", "solver",
                         "simplex_strategy")})
        return run(highs)

    monkeypatch.setattr(_Highs, "run", spy)
    assert solve_lp(LpProblem(c=[1.0], bounds=[(2.0, 5.0)])).x[0] == 2.0
    (seen,) = options
    assert seen == {"output_flag": False, "presolve": "off",
                    "solver": "simplex", "simplex_strategy": 1}   # 1: dual


def linprog_equals_solve_lp(p):
    """Solve `p` with solve_lp and with scipy's public linprog at the same
    settings, and require the same result bit for bit."""
    from scipy.optimize import linprog

    s = solve_lp(p)
    res = linprog(p.c, A_ub=p.A_ub, b_ub=p.b_ub, A_eq=p.A_eq, b_eq=p.b_eq,
                  bounds=p.bounds, method="highs-ds",
                  options={"presolve": False})
    assert s.status == {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]
    if s.status != OPTIMAL:
        assert s.x is None and res.x is None
        return s
    assert s.objective == res.fun
    assert np.array_equal(s.x, res.x)
    assert np.array_equal(s.duals_eq, res.eqlin.marginals)
    assert np.array_equal(s.duals_ub, np.maximum(-res.ineqlin.marginals, 0.0))
    assert np.array_equal(s.duals_lower, res.lower.marginals)
    assert np.array_equal(s.duals_upper, res.upper.marginals)
    return s


def lp_of_clear(monkeypatch, market_input, segments):
    """The LP `clear` solves for `market_input`."""
    problems = []
    monkeypatch.setattr(clearing, "solve_lp",
                        lambda p: problems.append(p) or solve_lp(p))
    clear(market_input, segments=segments)
    (problem,) = problems
    return problem


def test_solve_lp_equals_linprog_on_random_lps():
    rng = np.random.default_rng(1017)
    for _ in range(40):
        p = random_feasible_lp(rng)
        x = linprog_equals_solve_lp(p).x
        as_sparse = LpProblem(c=p.c, A_ub=sparse.csr_array(p.A_ub),
                              b_ub=p.b_ub, bounds=p.bounds)
        linprog_equals_solve_lp(as_sparse)
        # the first row as an equality through the optimum keeps it feasible
        with_eq = LpProblem(c=p.c, A_ub=sparse.csr_array(p.A_ub[1:]),
                            b_ub=p.b_ub[1:], A_eq=p.A_ub[:1],
                            b_eq=p.A_ub[:1] @ x, bounds=p.bounds)
        assert linprog_equals_solve_lp(with_eq).status == OPTIMAL


def test_solve_lp_equals_linprog_when_infeasible_or_unbounded():
    infeasible = LpProblem(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                           bounds=[(-np.inf, np.inf)])
    assert linprog_equals_solve_lp(infeasible).status == INFEASIBLE
    unbounded = LpProblem(c=[-1.0, 0.0], A_ub=[[-1.0, 1.0]], b_ub=[1.0],
                          A_eq=[[0.0, 1.0]], b_eq=[0.0],
                          bounds=[(0.0, np.inf), (-np.inf, np.inf)])
    assert linprog_equals_solve_lp(unbounded).status == UNBOUNDED
    assert linprog_equals_solve_lp(
        LpProblem(c=[-1.0], bounds=[(0.0, np.inf)])).status == UNBOUNDED


def test_solve_lp_equals_linprog_at_the_pinned_degenerate_vertices(
        monkeypatch):
    for si in (idle_gen_behind_full_line(), capped_gen_exporting_at_limit()):
        linprog_equals_solve_lp(build_scopf(si)[0])
    p = lp_of_clear(monkeypatch, demand_filling_a_capped_line(), 10)
    assert linprog_equals_solve_lp(p).duals_ub.tolist() == [0.0, 0.0]


def test_solve_lp_equals_linprog_on_a_200_bus_clear(monkeypatch):
    rng = np.random.default_rng(200)
    net = random_radial_network(rng, 200, limit_lo=5.0, limit_hi=60.0)
    bids = [(f"c{b}", b, Curve(DEMAND, float(rng.uniform(15, 30)),
                               float(rng.uniform(6, 10)),
                               float(rng.uniform(5, 25)), 0.0))
            for b in range(1, 200) if rng.uniform() < 0.65]
    offers = [("feeder", 0, Curve(SUPPLY, 5.0, 5.0, 1e4, 0.0))] + [
        (f"g{b}", b, Curve(SUPPLY, float(rng.uniform(10, 16)),
                           float(rng.uniform(6, 9)),
                           float(rng.uniform(10, 40)), 0.0))
        for b in range(1, 200) if rng.uniform() < 0.1]
    p = lp_of_clear(monkeypatch, MarketInput(bids=bids, offers=offers,
                                             network=net), 20)
    s = linprog_equals_solve_lp(p)
    assert s.status == OPTIMAL and s.duals_ub.any()   # some line binds


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,bad", [
    ("c", NAN), ("c", INF), ("A_ub", NAN), ("A_ub", -INF), ("b_ub", NAN),
    ("b_ub", INF), ("A_eq", NAN), ("A_eq", INF), ("b_eq", NAN),
    ("b_eq", -INF),
])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_solve_lp_rejects_non_finite_inputs(field, bad, as_sparse):
    data = {"c": [1.0, 1.0], "A_ub": [[1.0, 1.0]], "b_ub": [4.0],
            "A_eq": [[1.0, -1.0]], "b_eq": [0.0]}
    data[field] = np.array(data[field])
    data[field].flat[0] = bad
    for name in ("A_ub", "A_eq"):
        if as_sparse:
            data[name] = sparse.csr_array(data[name])
    with pytest.raises(ValueError, match=f"^{field} must not contain"):
        solve_lp(LpProblem(**data))


@pytest.mark.parametrize("model_status", [
    "kUnboundedOrInfeasible", "kIterationLimit", "kSolveError", "kNotset",
])
def test_other_model_statuses_raise_numerical_failure(monkeypatch,
                                                      model_status):
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    monkeypatch.setattr(_Highs, "getModelStatus",
                        lambda highs: getattr(HighsModelStatus, model_status))
    with pytest.raises(NumericalFailure):
        solve_lp(LpProblem(c=[1.0], bounds=[(2.0, 5.0)]))


def test_a_model_highs_refuses_raises_numerical_failure():
    # linprog's wrapper called this (HiGHS kModelError) infeasible
    with pytest.raises(NumericalFailure, match="refused"):
        solve_lp(LpProblem(c=[1.0], bounds=[(np.inf, np.inf)]))


@pytest.mark.parametrize("col_value,row_value,fails", [
    ([2.0, 0.0], [2.0, 2.0], False),
    ([2.0 - 3e-4, 0.0], [2.0, 2.0], False),     # within the tolerance
    ([1.9, 0.0], [1.9, 1.9], True),             # below its lower bound
    ([2.0, 3.0], [5.0, 2.0], True),             # A_ub row above b_ub
    ([2.0, 0.0], [2.0, 3.0], True),             # A_eq row off b_eq
    ([np.nan, 0.0], [2.0, 2.0], True),          # nan in x
])
def test_an_optimal_solution_off_its_constraints_raises(
        monkeypatch, col_value, row_value, fails):
    # linprog's post-solve test at its tolerance sqrt(1e-9) * 10 ~ 3.2e-4
    from scipy.optimize._highspy._core import _Highs

    get_solution = _Highs.getSolution

    def off(highs):
        sol = get_solution(highs)
        sol.col_value, sol.row_value = col_value, row_value
        return sol

    monkeypatch.setattr(_Highs, "getSolution", off)
    p = LpProblem(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[4.0],
                  A_eq=[[1.0, 0.0]], b_eq=[2.0],
                  bounds=[(2.0, 5.0), (0.0, 3.0)])
    if not fails:
        assert solve_lp(p).x.tolist() == col_value
        return
    with pytest.raises(NumericalFailure, match="violates"):
        solve_lp(p)
