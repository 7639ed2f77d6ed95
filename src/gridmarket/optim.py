"""Linear-programming core with dual recovery.

Problems are minimizations: min c.x subject to A_eq x = b_eq,
A_ub x <= b_ub and per-variable bounds. Duals are reported as shadow
prices: duals_eq[i] = d objective / d b_eq[i] (unrestricted sign) and
duals_ub[i] = -d objective / d b_ub[i] >= 0 for <=-rows.

Constraint matrices may be dense arrays or scipy.sparse matrices; the
solver gets both blocks as one sparse matrix. Clearing and DLMP both build
theirs with `dispatch_lp`, sparse, from the network's cached sparse PTDF.

The solve is one call into HiGHS' dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) through the binding scipy bundles, `_highspy._core`, not through
`linprog`: on a 1000-bus feeder's clear LP, linprog's input handling and its
per-column Python loop over the bound marginals took 35 of the 43 ms per
call. The model goes in as whole arrays; the checks linprog made stay
(finite inputs, its status mapping, its post-solve feasibility test), and
the results equal linprog's bit for bit, which the tests check, as they
check strong duality and complementary slackness. Presolve is always off:
a dispatch LP (box-bounded blocks, one balance row, PTDF line rows) leaves
it nothing to remove, yet on a 1000-bus feeder it took over 90% of the
solve, and the dual simplex needs about as many iterations without it.

scipy is imported where an LP is built (scipy.sparse) or solved
(scipy.optimize, ~0.4 s of a cold start): `validate` loads no scipy, and a
P2P run, which solves no LP, loads only scipy.sparse for its grid flows.
"""

from dataclasses import dataclass

import numpy as np

from .network import line_limit_rows

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"


class NumericalFailure(Exception):
    """Solver gave up before reaching a certified status."""


@dataclass
class LpProblem:
    c: np.ndarray
    A_eq: np.ndarray = None
    b_eq: np.ndarray = None
    A_ub: np.ndarray = None
    b_ub: np.ndarray = None
    bounds: np.ndarray = None   # (n, 2): per-variable lo, hi; None -> 0, +inf

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.A_eq is not None:
            self.A_eq, self.b_eq = _rows(self.A_eq, self.b_eq, n, "A_eq/b_eq")
        if self.A_ub is not None:
            self.A_ub, self.b_ub = _rows(self.A_ub, self.b_ub, n, "A_ub/b_ub")
        self.bounds = np.asarray([(0.0, np.inf)] * n if self.bounds is None
                                 else self.bounds, dtype=float)
        if self.bounds.shape != (n, 2):
            raise ValueError("one (lo, hi) pair per variable required")
        bad = np.flatnonzero(self.bounds[:, 0] > self.bounds[:, 1])
        if bad.size:
            lo, hi = self.bounds[bad[0]]
            raise ValueError(f"variable {bad[0]}: bound lo {lo} > hi {hi}")

    @property
    def n(self):
        return self.c.size


def _rows(A, b, n, what):
    """Constraint rows (A with n columns, flat b); sparse A stays sparse."""
    from scipy import sparse

    A = (sparse.csr_array(A, dtype=float) if sparse.issparse(A)
         else np.asarray(A, dtype=float)).reshape(-1, n)
    b = np.asarray(b, dtype=float).ravel()
    if A.shape[0] != b.size:
        raise ValueError(f"{what} row mismatch")
    return A, b


def dispatch_lp(H, limits, buses, signs, prices, caps, balance=0.0,
                f_const=None):
    """The dispatch LP of clearing and DLMP over priced blocks.

    Variable j is a block of 0..caps[j] kW at buses[j] that consumes
    (signs[j] = +1) or produces (-1) at prices[j]: minimize the cost of
    production less the value of consumption subject to the balance row
    signs.x = balance and the line limits on the PTDF `H` (`f_const`: flows
    of the constant injections by line id). Returns (problem, row_lines).
    """
    from scipy import sparse

    signs = np.asarray(signs, dtype=float)
    A_ub, b_ub, row_lines = line_limit_rows(
        H, H.injection_map(buses, signs), limits, f_const)
    problem = LpProblem(c=-signs * prices,
                        A_eq=sparse.csr_array(signs.reshape(1, -1)),
                        b_eq=np.array([balance]), A_ub=A_ub, b_ub=b_ub,
                        bounds=np.column_stack([np.zeros(len(caps)), caps]))
    return problem, row_lines


@dataclass
class LpSolution:
    status: str
    x: np.ndarray = None
    objective: float = None
    duals_eq: np.ndarray = None
    duals_ub: np.ndarray = None
    duals_lower: np.ndarray = None   # >= 0, d obj / d lo
    duals_upper: np.ndarray = None   # <= 0, d obj / d hi
    message: str = ""


def solve_lp(problem):
    """Solve an LpProblem, returning a certified primal/dual pair."""
    from scipy import sparse
    from scipy.optimize._highspy._core import (
        HighsModelStatus, HighsStatus, _Highs)

    n = problem.n
    none = (np.zeros((0, n)), np.zeros(0))
    A_ub, b_ub = none if problem.A_ub is None else (problem.A_ub, problem.b_ub)
    A_eq, b_eq = none if problem.A_eq is None else (problem.A_eq, problem.b_eq)
    for name, v in (("c", problem.c), ("A_ub", A_ub), ("b_ub", b_ub),
                    ("A_eq", A_eq), ("b_eq", b_eq)):
        if not np.isfinite(v.data if sparse.issparse(v) else v).all():
            raise ValueError(f"{name} must not contain inf or nan")
    A = sparse.vstack((sparse.coo_array(A_ub), sparse.coo_array(A_eq)),
                      format="csc")
    row_lo = np.concatenate((np.full(b_ub.size, -np.inf), b_eq))
    row_hi = np.concatenate((b_ub, b_eq))
    lo, hi = problem.bounds.T.copy()

    highs = _Highs()
    highs.setOptionValue("output_flag", False)   # first: no banner on stdout
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("solver", "simplex")
    highs.setOptionValue("simplex_strategy", 1)  # dual
    if highs.passModel(n, row_lo.size, A.nnz, 1, 1, 0.0, problem.c, lo, hi,
                       row_lo, row_hi, A.indptr, A.indices, A.data,
                       np.zeros(n, dtype=np.int32)) == HighsStatus.kError:
        raise NumericalFailure("HiGHS refused the model")
    highs.run()
    model_status = highs.getModelStatus()
    message = highs.modelStatusToString(model_status)
    status = {HighsModelStatus.kOptimal: OPTIMAL,
              HighsModelStatus.kInfeasible: INFEASIBLE,
              HighsModelStatus.kUnbounded: UNBOUNDED}.get(model_status)
    if status is None:
        raise NumericalFailure(f"HiGHS model status: {message}")
    if status != OPTIMAL:
        return LpSolution(status=status, message=message)

    sol = highs.getSolution()
    objective = highs.getInfo().objective_function_value
    x, rows = np.array(sol.col_value), np.array(sol.row_value)
    # linprog's post-solve test: bounds and rows met within sqrt(1e-9) * 10
    off = np.concatenate((lo - x, x - hi, row_lo - rows, rows - row_hi))
    if np.isnan(objective) or not np.all(off <= np.sqrt(1e-9) * 10):
        raise NumericalFailure("optimal solution violates its constraints")

    row_dual, col_dual = np.array(sol.row_dual), np.array(sol.col_dual)
    basis = np.array([s.value for s in highs.getBasis().col_status])
    return LpSolution(
        status=OPTIMAL,
        x=x,
        objective=float(objective),
        duals_eq=row_dual[b_ub.size:],
        duals_ub=np.maximum(-row_dual[:b_ub.size], 0.0),
        duals_lower=np.where(basis == 0, col_dual, 0.0),   # kLower
        duals_upper=np.where(basis == 2, col_dual, 0.0),   # kUpper
    )
