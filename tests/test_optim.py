"""The HiGHS solve that `tests/helpers.py` keeps as the twins' solver
(`helpers.solve_lp` on an `LpProblem`), checked against vertex enumeration,
strong duality and scipy's public `linprog`, with its per-thread HiGHS
object, its options, the malloc pin it shares with the recursion
`optim.solve_lp` and the HiGHS module it shares with scipy; and at the
pinned degenerate vertices, the end of the dual interval that the recursion
returns, against the end HiGHS returns. The recursion's own malloc pin and
the page faults it saves are checked here too."""

import json
import os
import platform
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse

import gridmarket.clearing as clearing
import helpers
from gridmarket import optim
from gridmarket.clearing import MarketInput, clear
from gridmarket.curves import Curve, DEMAND, SUPPLY
from gridmarket.dlmp import build_scopf
from gridmarket.optim import InfeasibleLp, NumericalFailure
from helpers import (
    LpProblem, capped_gen_exporting_at_limit, certify,
    demand_filling_a_capped_line, dual_infeasibility, dual_objective,
    enumerate_lp_optimum, idle_gen_behind_full_line, lp_matrix, lp_problem,
    random_feasible_lp, random_radial_network, reduced_costs, run_probe,
    solve_lp, use_ptdf_twin, zone_lp_problem,
)

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def test_single_bound_constraint_dual():
    # min x s.t. x >= 3 (posed as -x <= -3)
    p = lp_problem(c=[1.0], A_ub=[[-1.0]], b_ub=[-3.0],
                   bounds=[(-np.inf, np.inf)])
    s = solve_lp(p)
    assert s.x[0] == pytest.approx(3.0)
    assert -s.row_duals[0] == pytest.approx(1.0)


def test_textbook_vertex():
    p = lp_problem(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    s = solve_lp(p)
    assert s.objective == pytest.approx(-1.0)
    assert -s.row_duals[0] == pytest.approx(1.0)


def test_infeasible_and_unbounded():
    p = lp_problem(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                   bounds=[(-np.inf, np.inf)])
    with pytest.raises(InfeasibleLp, match="^HiGHS model status: Infeasible$"):
        solve_lp(p)
    p2 = lp_problem(c=[-1.0], bounds=[(0.0, np.inf)])
    with pytest.raises(NumericalFailure, match=re.escape(
            "HiGHS model status: Unbounded; largest finite |cost| 1, "
            "largest finite |column bound| 0") + "$"):
        solve_lp(p2)


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 60:
        p = random_feasible_lp(rng)
        s = solve_lp(p)
        oracle = enumerate_lp_optimum(p)
        assert oracle is not None
        assert s.objective == pytest.approx(oracle, abs=1e-8)
        checked += 1


def test_strong_duality_and_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = random_feasible_lp(rng)
        s = solve_lp(p)
        # primal feasibility
        A = lp_matrix(p)
        assert np.all(A @ s.x <= p.row_hi + 1e-8)
        # the shadow prices -row_duals of the <=-rows are >= 0, and
        # complementary slackness holds on them
        assert np.all(-s.row_duals >= -1e-12)
        slack = p.row_hi - A @ s.x
        assert np.all(np.abs(np.maximum(-s.row_duals, 0.0) * slack) <= 1e-8)
        # dual objective equals primal objective
        assert dual_objective(s, p) == pytest.approx(s.objective, abs=1e-8)
        # and the duals are feasible: each has its side's sign
        assert dual_infeasibility(s, p) <= 1e-12


def test_row_scaling_scales_dual():
    p = lp_problem(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0])
    base = solve_lp(p)
    k = 5.0
    scaled = lp_problem(c=[-1.0, -1.0], A_ub=[[k, k]], b_ub=[k])
    s = solve_lp(scaled)
    np.testing.assert_allclose(s.x, base.x, atol=1e-10)
    assert s.row_duals[0] == pytest.approx(base.row_duals[0] / k)


def test_solver_deterministic():
    rng = np.random.default_rng(17)
    p = random_feasible_lp(rng)
    s1, s2 = solve_lp(p), solve_lp(p)
    np.testing.assert_array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective


def one_column(**fields):
    """A one-column LP with one row, min x s.t. x <= 4 and 0 <= x <= 5,
    with `fields` replaced."""
    lp = {"c": [1.0], "lo": [0.0], "hi": [5.0], "indptr": [0, 1],
          "indices": [0], "data": [1.0], "row_lo": [-np.inf], "row_hi": [4.0]}
    return LpProblem(**{**lp, **fields})


def test_bounds_from_list_or_array_are_one_float_array():
    lo, hi = [0.0, -np.inf, 3], [1.0, 2, np.inf]
    ptr, rows, data = [0, 1, 1, 2], [0, 0], [1, 2]
    from_list = LpProblem(c=[1.0, 2.0, 3.0], lo=lo, hi=hi, indptr=ptr,
                          indices=rows, data=data, row_lo=[-np.inf],
                          row_hi=[4])
    from_array = LpProblem(c=np.array([1.0, 2.0, 3.0]), lo=np.array(lo),
                           hi=np.array(hi), indptr=np.array(ptr),
                           indices=np.array(rows), data=np.array(data),
                           row_lo=np.array([-np.inf]), row_hi=np.array([4]))
    for p in (from_list, from_array):
        for name in ("c", "lo", "hi", "data", "row_lo", "row_hi"):
            assert getattr(p, name).dtype == float
        for name in ("indptr", "indices"):      # HiGHS' index type
            assert getattr(p, name).dtype == np.int32
        np.testing.assert_array_equal(p.lo, np.array(lo, dtype=float))
        np.testing.assert_array_equal(p.hi, np.array(hi, dtype=float))
        np.testing.assert_array_equal(p.data, [1.0, 2.0])


@pytest.mark.parametrize("bounds", [
    {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},     # one pair too many
    {"lo": [], "hi": []},                     # one pair too few
    {"lo": [0.0], "hi": [1.0, 1.0]},          # lo and hi differ in length
    {"lo": np.zeros((1, 2)), "hi": [1.0]},    # not flat
])
def test_bounds_length_mismatch_rejected(bounds):
    with pytest.raises(ValueError, match="lo and hi need one entry per column"):
        one_column(**bounds)


def test_bounds_lo_above_hi_names_the_first_bad_pair():
    with pytest.raises(ValueError,
                       match=r"^variable 1: bound lo 3\.0 > hi 2\.0$"):
        LpProblem(c=[0.0] * 4, lo=[0, 3, 5, np.inf], hi=[1, 2, 4, 0],
                  indptr=[0] * 5, indices=[], data=[], row_lo=[], row_hi=[])
    # equal bounds fix a variable and are fine
    one_column(lo=[2.0], hi=[2.0])


@pytest.mark.parametrize("fields", [
    {"indptr": [0]},                          # one pointer per column + 1
    {"indptr": [1, 1]},                       # starts at 0
    {"indptr": [0, 2], "indices": [0, 0], "data": [1.0]},   # data too short
    {"indptr": [0, 1], "indices": [1]},       # row out of range
    {"indptr": [0, 1], "indices": [-1]},
    {"c": [1.0, 1.0], "lo": [0.0, 0.0], "hi": [1.0, 1.0],
     "indptr": [0, 1, 0]},                    # decreasing
])
def test_malformed_csc_rejected(fields):
    with pytest.raises(ValueError, match="malformed CSC matrix"):
        one_column(**fields)


def test_row_bounds_length_mismatch_rejected():
    with pytest.raises(ValueError, match="row_hi one per row"):
        one_column(row_hi=[4.0, 4.0])


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
    # a thread's HiGHS object gets its options when it is made, at its first
    # solve, and keeps them when it is cleared for the next model
    monkeypatch.setattr(helpers, "_solver", threading.local())
    assert solve_lp(lp_problem(c=[1.0], bounds=[(2.0, 5.0)])).x[0] == 2.0
    assert solve_lp(lp_problem(c=[-1.0], bounds=[(2.0, 5.0)])).x[0] == 5.0
    # simplex_strategy 1: the dual simplex
    assert options == 2 * [{"output_flag": False, "presolve": "off",
                            "solver": "simplex", "simplex_strategy": 1}]


@pytest.fixture
def iterations(monkeypatch):
    """The simplex iteration count of each HiGHS run, in order."""
    from scipy.optimize._highspy._core import _Highs

    counts = []
    run = _Highs.run

    def spy(highs):
        status = run(highs)
        counts.append(highs.getInfo().simplex_iteration_count)
        return status

    monkeypatch.setattr(_Highs, "run", spy)
    return counts


def outcome(p, iterations):
    """solve_lp(p) bit for bit: x, objective, row duals and the simplex
    iterations it took."""
    s = solve_lp(p)
    return (s.x.tobytes(), s.objective.hex(), s.row_duals.tobytes(),
            iterations[-1])


def fresh_outcome(monkeypatch, p, iterations):
    """`outcome` of p on a HiGHS object made for it alone."""
    with monkeypatch.context() as m:
        m.setattr(helpers, "_solver", threading.local())
        return outcome(p, iterations)


def case34_lps(monkeypatch):
    """case34's clear LP (bids34.txt, 10 segments) and its SCOPF LP
    (offers34.txt, imports at 4.3), each as the LpProblem of its zone LP."""
    market, scopf = helpers.case34_inputs()
    return (zone_lp_problem(lp_of_clear(monkeypatch, market, 10)),
            zone_lp_problem(build_scopf(scopf)[0]))


@pytest.mark.parametrize("failing,error", [
    (lp_problem(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                bounds=[(-np.inf, np.inf)]), InfeasibleLp),
    (LpProblem(c=[1.0], lo=[0.0], hi=[5.0], indptr=[0, 2], indices=[0, 0],
               data=[1.0, 1.0], row_lo=[-np.inf], row_hi=[4.0]),
     NumericalFailure),                                 # refused
    (lp_problem(c=[-1.0], bounds=[(0.0, np.inf)]), NumericalFailure),
], ids=["infeasible", "refused", "unbounded"])
def test_a_failed_solve_leaves_no_state_behind(monkeypatch, iterations,
                                               failing, error):
    a, b = case34_lps(monkeypatch)
    fresh = fresh_outcome(monkeypatch, a, iterations)
    solve_lp(b)
    with pytest.raises(error):
        solve_lp(failing)
    assert outcome(a, iterations) == fresh


def test_no_solve_warm_starts_from_an_earlier_one(monkeypatch, iterations):
    a, b = case34_lps(monkeypatch)
    fresh = fresh_outcome(monkeypatch, a, iterations)
    assert fresh[3] > 0
    first = outcome(a, iterations)
    outcome(b, iterations)
    assert outcome(a, iterations) == first == fresh
    assert outcome(a, iterations) == fresh      # nor from the same LP


def test_threads_solve_at_once_each_on_its_own_highs(monkeypatch):
    # two threads on each of two LPs, switching as often as they can
    lps = 2 * case34_lps(monkeypatch)

    def bits(s):
        return s.x.tobytes(), s.objective.hex(), s.row_duals.tobytes()

    alone = [bits(solve_lp(p)) for p in lps]
    start = threading.Barrier(len(lps), timeout=60)

    def solve_20(p):
        start.wait()
        results = [bits(solve_lp(p)) for _ in range(20)]
        return results, helpers._solver.highs

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(lps)) as pool:
            done = [f.result(timeout=120) for f in
                    [pool.submit(solve_20, p) for p in lps]]
    finally:
        sys.setswitchinterval(interval)
    assert [results for results, _ in done] == [20 * [r] for r in alone]
    highs = [h for _, h in done] + [helpers._solver.highs]
    assert len({id(h) for h in highs}) == len(lps) + 1


def linprog_form(p):
    """`p` in linprog's form: its <=-rows (row_lo -inf) as A_ub, b_ub and
    its equality rows, which come after them, as A_eq, b_eq."""
    A = lp_matrix(p)
    eq = p.row_lo == p.row_hi
    ub = np.isneginf(p.row_lo)
    assert np.flatnonzero(ub).tolist() + np.flatnonzero(eq).tolist() == list(
        range(p.row_lo.size))
    return {"c": p.c, "A_ub": A[ub], "b_ub": p.row_hi[ub], "A_eq": A[eq],
            "b_eq": p.row_hi[eq], "bounds": np.column_stack([p.lo, p.hi])}


def linprog_result(p):
    """`p` solved by scipy's public linprog at solve_lp's settings."""
    from scipy.optimize import linprog

    return linprog(**linprog_form(p), method="highs-ds",
                   options={"presolve": False})


def linprog_equals_solve_lp(p):
    """Solve `p` with solve_lp and with linprog, and require the same
    optimum bit for bit: HiGHS' row duals are linprog's constraint
    marginals."""
    s, res = solve_lp(p), linprog_result(p)
    assert res.status == 0
    assert s.objective == res.fun
    assert np.array_equal(s.x, res.x)
    assert np.array_equal(s.row_duals, np.concatenate(
        [res.ineqlin.marginals, res.eqlin.marginals]))
    return s


# Solves one zone LP in a fresh interpreter with scipy.optimize imported
# first, or only after solve_lp, by linprog_equals_solve_lp: either way
# solve_lp and linprog share one HiGHS module.
LOAD_ORDER_PROBE = """\
import sys
first = sys.argv[1]
if first == "scipy.optimize":
    import scipy.optimize
import helpers
from gridmarket.dlmp import build_scopf
from helpers import idle_gen_behind_full_line, zone_lp_problem
from test_optim import linprog_equals_solve_lp
p = zone_lp_problem(build_scopf(idle_gen_behind_full_line())[0])
helpers.solve_lp(p)
core = sys.modules["scipy.optimize._highspy._core"]
assert ("scipy.optimize" in sys.modules) == (first == "scipy.optimize")
linprog_equals_solve_lp(p)
import scipy.optimize._highspy._highs_wrapper as wrapper
assert sys.modules["scipy.optimize._highspy._core"] is core is wrapper._h
assert helpers.highs_binding()._Highs is core._Highs
"""


@pytest.mark.parametrize("order", ["solve_lp", "scipy.optimize"])
def test_solve_lp_and_scipy_share_one_highs_module(tmp_path, order):
    run_probe(tmp_path, LOAD_ORDER_PROBE, order)


glibc_only = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
    reason="solve_lp pins malloc's thresholds only where glibc's mallopt is")

# Clears the benchmark's 1000-bus feeder at 20 segments four times in a
# fresh interpreter and prints the minor page faults each clear took.
FAULT_PROBE = """\
import json, resource, sys
from gridmarket.clearing import clear
from helpers import bench_feeder_inputs
market, _ = bench_feeder_inputs(sys.argv[1])
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert clear(market, segments=20).traded
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@glibc_only
def test_a_repeated_feeder_clear_faults_in_no_new_heap(tmp_path):
    # A clear frees ~120 kB block arrays and numpy temporaries. With glibc's
    # thresholds left adaptive, free trimmed them off the heap top and each
    # clear after the first faulted hundreds of pages back in. A fresh
    # process, since earlier frees move those thresholds.
    warm_up, *faults = json.loads(run_probe(tmp_path, FAULT_PROBE,
                                            str(tmp_path)))
    assert max(faults) < 50, faults


# Spies on mallopt in a fresh interpreter: `validate` and a P2P `run` after
# importing the CLI, then four threads' first solves at once, of `clear` in
# src/ or of the HiGHS twin (argv[2]), then one solve of the other. Prints
# the calls before the solves, at the four and at the last.
PIN_PROBE = """\
import ctypes, json, os, sys, threading
calls, real = [], ctypes.CDLL

class Libc:
    def __init__(self, *args, **kwargs):
        self.lib = real(*args, **kwargs)
    def __getattr__(self, name):
        fn = getattr(self.lib, name)
        if name != "mallopt":
            return fn
        return lambda param, value: calls.append([param, value, fn(param, value)])

ctypes.CDLL = Libc
import gridmarket.cli
cases = sys.argv[1]
assert gridmarket.cli.main(["validate", os.path.join(cases, "case34.txt")]) == 0
assert gridmarket.cli.main(["run", "--config", os.path.join(
    cases, "demo_p2p.cfg"), "--out", "p2p"]) == 0
before = list(calls)
import helpers
from gridmarket.clearing import clear
from gridmarket.dlmp import build_scopf
market, _ = helpers.case34_inputs()
p = helpers.zone_lp_problem(build_scopf(helpers.idle_gen_behind_full_line())[0])
solvers = {"clear": lambda: clear(market, segments=10).traded,
           "highs": lambda: helpers.solve_lp(p).objective}
first = solvers.pop(sys.argv[2])
start, solved = threading.Barrier(4, timeout=60), []
def solve():
    start.wait()
    solved.append(first())
threads = [threading.Thread(target=solve) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert len(solved) == 4 and not any(t.is_alive() for t in threads)
solves = calls[len(before):]
(then,) = solvers.values()
then()
print(json.dumps({"before": before, "solves": solves,
                  "then": calls[len(before) + len(solves):]}))
"""


def assert_pinned_once_at_the_first_solve(tmp_path, first):
    report = json.loads(run_probe(tmp_path, PIN_PROBE, CASES, first))
    assert report["before"] == []
    # M_TRIM_THRESHOLD 64 MiB and M_MMAP_THRESHOLD 32 MiB, each set (1) once
    assert report["solves"] == [[-1, 64 << 20, 1], [-3, 32 << 20, 1]]
    assert report["then"] == []


@glibc_only
def test_malloc_is_pinned_once_per_process_at_its_first_solve(tmp_path):
    assert_pinned_once_at_the_first_solve(tmp_path, "clear")


@glibc_only
def test_the_highs_twin_pins_malloc_through_the_same_owner(tmp_path):
    assert_pinned_once_at_the_first_solve(tmp_path, "highs")


def lp_of_clear(monkeypatch, market_input, segments):
    """The LP `clear` solves for `market_input`: a ZoneLp, or the PTDF
    twin's LpProblem under `use_ptdf_twin`."""
    problems = []
    solve = clearing.solve_lp
    monkeypatch.setattr(clearing, "solve_lp",
                        lambda p: problems.append(p) or solve(p))
    clear(market_input, segments=segments)
    (problem,) = problems
    return problem


def test_solve_lp_equals_linprog_on_random_lps():
    rng = np.random.default_rng(1017)
    for _ in range(40):
        p = random_feasible_lp(rng)
        x = linprog_equals_solve_lp(p).x
        lp = linprog_form(p)
        # the first row as an equality through the optimum keeps it feasible
        with_eq = lp_problem(c=p.c, A_ub=sparse.csr_array(lp["A_ub"][1:]),
                             b_ub=lp["b_ub"][1:], A_eq=lp["A_ub"][:1],
                             b_eq=lp["A_ub"][:1] @ x, bounds=lp["bounds"])
        linprog_equals_solve_lp(with_eq)


def test_solve_lp_equals_linprog_when_infeasible_or_unbounded():
    # linprog status 2 (infeasible) is InfeasibleLp, 3 (unbounded) is not
    # an outcome a caller can use: NumericalFailure
    infeasible = lp_problem(c=[1.0], A_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0],
                            bounds=[(-np.inf, np.inf)])
    assert linprog_result(infeasible).status == 2
    with pytest.raises(InfeasibleLp):
        solve_lp(infeasible)
    for unbounded in (
            lp_problem(c=[-1.0, 0.0], A_ub=[[-1.0, 1.0]], b_ub=[1.0],
                       A_eq=[[0.0, 1.0]], b_eq=[0.0],
                       bounds=[(0.0, np.inf), (-np.inf, np.inf)]),
            lp_problem(c=[-1.0], bounds=[(0.0, np.inf)])):
        assert linprog_result(unbounded).status == 3
        with pytest.raises(NumericalFailure, match=re.escape(
                "HiGHS model status: Unbounded; largest finite |cost| 1, "
                "largest finite |column bound| 0") + "$"):
            solve_lp(unbounded)


def test_solve_lp_equals_linprog_at_the_pinned_degenerate_vertices(
        monkeypatch):
    # The zone LP in HiGHS and in the recursion, each end certified. On
    # capped_gen_exporting_at_limit, HiGHS prices bus 2's zone at the high
    # end of its interval, the gen's 1.0, and the recursion at the low end,
    # its parent's 4.3; on the other two both return the low end.
    ends = []
    for si in (idle_gen_behind_full_line(), capped_gen_exporting_at_limit()):
        p = build_scopf(si)[0]
        s = optim.solve_lp(p)
        certify(p, s)
        ends.append((linprog_equals_solve_lp(zone_lp_problem(p)).row_duals
                     .tolist(), s.row_duals.tolist()))
    assert ends == [([-4.3, -4.3], [-4.3, -4.3]), ([-4.3, -1.0], [-4.3, -4.3])]
    p = lp_of_clear(monkeypatch, demand_filling_a_capped_line(), 10)
    # the root zone's row, then line b's zone's
    assert linprog_equals_solve_lp(
        zone_lp_problem(p)).row_duals.tolist() == [-4.3, -4.3]
    s = optim.solve_lp(p)
    certify(p, s)
    assert s.row_duals.tolist() == [-4.3, -4.3]
    # and in the PTDF twin
    use_ptdf_twin(monkeypatch)
    for si in (idle_gen_behind_full_line(), capped_gen_exporting_at_limit()):
        linprog_equals_solve_lp(build_scopf(si)[0])
    p = lp_of_clear(monkeypatch, demand_filling_a_capped_line(), 10)
    # line b's +row and -row, then the balance row
    assert linprog_equals_solve_lp(p).row_duals[:-1].tolist() == [0.0, 0.0]


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
    s = linprog_equals_solve_lp(zone_lp_problem(p))
    assert (s.row_duals[:-1] < 0).any()   # some line binds


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field,bad", [
    ("c", NAN), ("c", INF), ("A_ub", NAN), ("A_ub", -INF), ("b_ub", NAN),
    ("b_ub", INF), ("A_eq", NAN), ("A_eq", INF), ("b_eq", NAN),
    ("b_eq", -INF),
])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_solve_lp_rejects_non_finite_inputs(field, bad, as_sparse):
    # An LP in linprog's form, built from dense or sparse matrices, with one
    # bad value, is refused where the LpProblem is built, so no solve_lp
    # sees it; the error names the array the value lands in. b_ub = inf
    # leaves its row without a finite side.
    data = {"c": [1.0, 1.0], "A_ub": [[1.0, 1.0]], "b_ub": [4.0],
            "A_eq": [[1.0, -1.0]], "b_eq": [0.0]}
    data[field] = np.array(data[field])
    data[field].flat[0] = bad
    for name in ("A_ub", "A_eq"):
        if as_sparse:
            data[name] = sparse.csr_array(data[name])
    lands_in = {"c": "c", "A_ub": "data", "A_eq": "data", "b_ub": "row_hi",
                "b_eq": "row_lo" if np.isnan(bad) else "row_hi"}[field]
    with pytest.raises(ValueError, match=f"^{lands_in} must"):
        lp_problem(**data)


@pytest.mark.parametrize("fields,name", [
    ({"lo": [NAN]}, "lo and hi"), ({"hi": [NAN]}, "lo and hi"),
    ({"row_lo": [INF]}, "row_lo"), ({"row_hi": [-INF]}, "row_hi"),
])
def test_solve_lp_rejects_nan_bounds_and_empty_row_sides(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        one_column(**fields)        # refused where it is built


def test_solve_lp_takes_infinite_bounds_and_ranged_rows():
    p = one_column(c=[-1.0], lo=[-INF], hi=[INF], row_lo=[1.0], row_hi=[4.0])
    s = solve_lp(p)
    assert s.x.tolist() == [4.0]
    assert s.row_duals.tolist() == [-1.0]
    assert reduced_costs(s, p).tolist() == [0.0]


@pytest.mark.parametrize("model_status", [
    "kUnboundedOrInfeasible", "kIterationLimit", "kSolveError", "kNotset",
    "kUnbounded",
])
def test_other_model_statuses_raise_numerical_failure(monkeypatch,
                                                      model_status):
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    status = getattr(HighsModelStatus, model_status)
    monkeypatch.setattr(_Highs, "getModelStatus", lambda highs: status)
    # the message names the largest finite cost and column bound, in
    # magnitude, where a too large one is the likely cause
    with pytest.raises(NumericalFailure, match=re.escape(
            f"HiGHS model status: {_Highs().modelStatusToString(status)}; "
            "largest finite |cost| 7e+18, largest finite |column bound| "
            "2.5e+19") + "$"):
        solve_lp(lp_problem(c=[1.0, -7e18], A_ub=[[1.0, 1.0]], b_ub=[3e19],
                            bounds=[(-2.5e19, 5.0), (-np.inf, np.inf)]))


@pytest.mark.parametrize("fields,message", [
    ({"c": [1e20]}, "variable 0: cost 1e+20 "),
    ({"c": [-3e25]}, "variable 0: cost -3e+25 "),
    ({"hi": [1e21]}, "variable 0: bound hi 1e+21 "),
    ({"lo": [-1e20]}, "variable 0: bound lo -1e+20 "),
    ({"c": [1.0, 2e20], "lo": [0.0, 0.0], "hi": [5.0, 1e30],
      "indptr": [0, 1, 1]}, "variable 1: cost 2e+20 "),
], ids=["cost-at", "cost-negative", "hi", "lo", "first-array-first"])
def test_a_cost_or_bound_highs_reads_as_infinite_is_refused(fields, message):
    with pytest.raises(NumericalFailure, match=re.escape(
            f"{message}is 1e+20 or more in magnitude, "
            "which HiGHS reads as infinite")):
        one_column(**fields)


@pytest.mark.parametrize("fields,message", [
    ({"row_lo": [1e20], "row_hi": [INF]}, "row 0: row_lo 1e+20 "),
    ({"row_hi": [-3e25]}, "row 0: row_hi -3e+25 "),
    ({"row_lo": [-1e25], "row_hi": [-1e25]}, "row 0: row_hi -1e+25 "),
    ({"indices": [1], "row_lo": [-INF, 2e20], "row_hi": [4.0, 3e20]},
     "row 1: row_lo 2e+20 "),
], ids=["lo-at", "hi", "equality", "second-row"])
def test_a_row_side_highs_reads_as_infinite_on_the_wrong_side_is_refused(
        fields, message):
    # A row side of 1e20 or more in magnitude that HiGHS reads as an infinite
    # bound on the side that leaves the row no point: before, HiGHS refused
    # the model without naming the row or the value.
    with pytest.raises(NumericalFailure, match=re.escape(
            f"{message}is 1e+20 or more in magnitude, which HiGHS reads "
            "as infinite") + "$"):
        one_column(**fields)


def test_costs_and_bounds_below_highs_infinity_solve():
    # infinite column bounds mean no bound, and row sides are not limited:
    # a line limit of 1e25 is as good as none
    s = solve_lp(one_column(c=[-9.99e19], lo=[-INF], hi=[9.99e19],
                            row_lo=[-1e25], row_hi=[1e25]))
    assert s.x.tolist() == [9.99e19]
    assert solve_lp(one_column(lo=[-INF], hi=[INF], row_lo=[0.0],
                               row_hi=[1e25])).x.tolist() == [0.0]


def test_a_model_highs_refuses_raises_numerical_failure():
    # linprog's wrapper called this (HiGHS kModelError) infeasible
    with pytest.raises(NumericalFailure, match="^HiGHS refused the model$"):
        solve_lp(lp_problem(c=[1.0], bounds=[(np.inf, np.inf)]))


def test_a_refused_model_names_the_row_a_column_repeats():
    # LpProblem admits a column that gives one row twice: column 2 gives
    # rows 1, 0, 1
    p = LpProblem(c=[1.0, 1.0, 1.0], lo=[0.0] * 3, hi=[5.0] * 3,
                  indptr=[0, 1, 3, 6], indices=[0, 0, 1, 1, 0, 1],
                  data=[1.0] * 6, row_lo=[-np.inf] * 2, row_hi=[4.0] * 2)
    with pytest.raises(NumericalFailure, match="^HiGHS refused the model: "
                       "column 2 repeats row 1$"):
        solve_lp(p)


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
    p = lp_problem(c=[1.0, 1.0], A_ub=[[1.0, 1.0]], b_ub=[4.0],
                   A_eq=[[1.0, 0.0]], b_eq=[2.0],
                   bounds=[(2.0, 5.0), (0.0, 3.0)])
    if not fails:
        assert solve_lp(p).x.tolist() == col_value
        return
    with pytest.raises(NumericalFailure, match="violates"):
        solve_lp(p)
