"""Linear-programming core with dual recovery.

Problems are minimizations: min c.x subject to A_eq x = b_eq,
A_ub x <= b_ub and per-variable bounds. Duals are reported as shadow
prices: duals_eq[i] = d objective / d b_eq[i] (unrestricted sign) and
duals_ub[i] = -d objective / d b_ub[i] >= 0 for <=-rows.

Constraint matrices may be dense arrays or scipy.sparse matrices; either
kind goes to the solver as given. Clearing and DLMP build theirs sparse,
from the network's cached sparse PTDF.

The solve itself is delegated to scipy's HiGHS dual simplex, which returns
exact vertex solutions and the full set of constraint/bound marginals; the
strong-duality and complementary-slackness guarantees are verified in tests,
not assumed.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

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
    bounds: list = None     # per-variable (lo, hi); None -> (0, +inf)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        n = self.c.size
        if self.A_eq is not None:
            self.A_eq, self.b_eq = _rows(self.A_eq, self.b_eq, n, "A_eq/b_eq")
        if self.A_ub is not None:
            self.A_ub, self.b_ub = _rows(self.A_ub, self.b_ub, n, "A_ub/b_ub")
        if self.bounds is None:
            self.bounds = [(0.0, np.inf)] * n
        if len(self.bounds) != n:
            raise ValueError("one (lo, hi) pair per variable required")
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"bound lo {lo} > hi {hi}")

    @property
    def n(self):
        return self.c.size


def _rows(A, b, n, what):
    """Constraint rows (A with n columns, flat b); sparse A stays sparse."""
    A = (sparse.csr_array(A, dtype=float) if sparse.issparse(A)
         else np.asarray(A, dtype=float)).reshape(-1, n)
    b = np.asarray(b, dtype=float).ravel()
    if A.shape[0] != b.size:
        raise ValueError(f"{what} row mismatch")
    return A, b


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

    def dual_objective(self, problem):
        """Dual objective from the reported shadow prices.

        Equals the primal objective at every Optimal solve (strong duality);
        infinite bounds contribute nothing because their duals are zero.
        """
        total = 0.0
        if problem.b_eq is not None:
            total += float(self.duals_eq @ problem.b_eq)
        if problem.b_ub is not None:
            total -= float(self.duals_ub @ problem.b_ub)
        lo = np.array([b[0] for b in problem.bounds])
        hi = np.array([b[1] for b in problem.bounds])
        lo_fin, hi_fin = np.isfinite(lo), np.isfinite(hi)
        total += float(self.duals_lower[lo_fin] @ lo[lo_fin])
        total += float(self.duals_upper[hi_fin] @ hi[hi_fin])
        return total


def solve_lp(problem):
    """Solve an LpProblem, returning a certified primal/dual pair."""
    res = linprog(
        problem.c,
        A_ub=problem.A_ub, b_ub=problem.b_ub,
        A_eq=problem.A_eq, b_eq=problem.b_eq,
        bounds=problem.bounds,
        method="highs-ds",
    )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, message=res.message)
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, message=res.message)
    if res.status != 0:
        raise NumericalFailure(res.message)

    n_eq = 0 if problem.A_eq is None else problem.A_eq.shape[0]
    n_ub = 0 if problem.A_ub is None else problem.A_ub.shape[0]
    duals_eq = np.asarray(res.eqlin.marginals) if n_eq else np.zeros(0)
    duals_ub = -np.asarray(res.ineqlin.marginals) if n_ub else np.zeros(0)
    return LpSolution(
        status=OPTIMAL,
        x=np.asarray(res.x),
        objective=float(res.fun),
        duals_eq=duals_eq,
        duals_ub=np.maximum(duals_ub, 0.0),
        duals_lower=np.asarray(res.lower.marginals),
        duals_upper=np.asarray(res.upper.marginals),
    )


def epigraph_max0(problem, var_index):
    """Append an auxiliary variable s with s >= 0 and s >= x[var_index].

    Pricing s in the objective (positive coefficient, set by the caller)
    makes s = max(0, x[var_index]) at the optimum. Returns the extended
    problem and the index of s.
    """
    if not 0 <= var_index < problem.n:
        raise IndexError(f"var_index {var_index} out of range")
    n = problem.n
    c = np.append(problem.c, 0.0)
    bounds = list(problem.bounds) + [(0.0, np.inf)]

    A_eq = problem.A_eq
    A_ub = np.zeros((0, n)) if problem.A_ub is None else problem.A_ub
    b_ub = np.append([] if problem.A_ub is None else problem.b_ub, 0.0)
    # Widen by a zero column for s; A_ub gains the row x - s <= 0.
    if sparse.issparse(A_ub):     # CSR, rebuilt from its arrays
        A_ub = sparse.csr_array(
            (np.append(A_ub.data, [1.0, -1.0]),
             np.append(A_ub.indices, [var_index, n]),
             np.append(A_ub.indptr, A_ub.indptr[-1] + 2)),
            shape=(A_ub.shape[0] + 1, n + 1))
    else:
        row = np.zeros((1, n + 1))
        row[0, var_index] = 1.0
        row[0, n] = -1.0
        A_ub = np.vstack([np.hstack([A_ub, np.zeros((A_ub.shape[0], 1))]), row])
    if sparse.issparse(A_eq):
        A_eq = sparse.csr_array((A_eq.data, A_eq.indices, A_eq.indptr),
                                shape=(A_eq.shape[0], n + 1))
    elif A_eq is not None:
        A_eq = np.hstack([A_eq, np.zeros((A_eq.shape[0], 1))])
    extended = LpProblem(c=c, A_eq=A_eq, b_eq=problem.b_eq,
                         A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    return extended, n

