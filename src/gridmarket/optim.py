"""Linear-programming core with dual recovery.

Problems are minimizations: min c.x subject to A_eq x = b_eq,
A_ub x <= b_ub and per-variable bounds. Duals are reported as shadow
prices: duals_eq[i] = d objective / d b_eq[i] (unrestricted sign) and
duals_ub[i] = -d objective / d b_ub[i] >= 0 for <=-rows.

Constraint matrices may be dense arrays or scipy.sparse matrices; either
kind goes to the solver as given. Clearing and DLMP both build theirs with
`dispatch_lp`, sparse, from the network's cached sparse PTDF.

The solve itself is delegated to scipy's HiGHS dual simplex, which returns
exact vertex solutions and the full set of constraint/bound marginals; the
strong-duality and complementary-slackness guarantees are verified in tests,
not assumed. HiGHS presolve is always off: a dispatch LP (box-bounded blocks,
one balance row, PTDF line rows) leaves it nothing to remove, yet on a
1000-bus feeder it took over 90% of the solve, and the dual simplex needs
about as many iterations without it.

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
    from scipy.optimize import linprog

    res = linprog(
        problem.c,
        A_ub=problem.A_ub, b_ub=problem.b_ub,
        A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=problem.bounds,
        method="highs-ds",
        options={"presolve": False},
    )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, message=res.message)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, message=res.message)
    if res.status != 0:
        raise NumericalFailure(res.message)

    # HiGHS reports empty marginals for an absent constraint block
    return LpSolution(
        status=OPTIMAL,
        x=np.asarray(res.x),
        objective=float(res.fun),
        duals_eq=np.asarray(res.eqlin.marginals),
        duals_ub=np.maximum(-np.asarray(res.ineqlin.marginals), 0.0),
        duals_lower=np.asarray(res.lower.marginals),
        duals_upper=np.asarray(res.upper.marginals),
    )
