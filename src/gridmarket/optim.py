"""Linear-programming core with dual recovery.

Problems are minimizations in the one form HiGHS' `passModel` takes:
min c.x subject to row_lo <= A x <= row_hi and lo <= x <= hi, with A held
column-wise (CSC) as `indptr`, `indices` and `data`. A row with
row_lo = -inf is a <=-row, one with row_lo == row_hi an equality. An
`LpProblem` is checked once, where it is built, and `solve_lp` returns an
optimum or raises. The solution carries HiGHS' own duals: row_duals[i] =
d objective / d (active side of row i), and reduced_costs[j] likewise for
column j's bounds.

Clearing and DLMP both build their LP with `dispatch_lp`, from the PTDF
index arrays in whole-array numpy: each bus's column is laid out once and
gathered for every block at that bus, as the int32 arrays HiGHS takes.
`dispatch_duals` reads the prices back, so the row layout lives here alone.
A line-limit row that no dispatch within the blocks' caps can bring to its
limit keeps its place and its side but gets no matrix entries: its dual is
0 either way, and on a 1000-bus feeder 1,940 of the 1,998 line rows are
such rows. Dropping them instead would change the row count and, where
block prices tie, the optimal vertex HiGHS returns.

The solve is one call into HiGHS' dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) through the binding scipy bundles, `_highspy._core`, not
through `linprog`, whose per-column Python took most of a large solve; the
results equal linprog's bit for bit, as the tests check, with strong
duality and complementary slackness. Presolve is always off: a dispatch LP
leaves it nothing to remove, yet on a 1000-bus feeder it took over 90% of
the solve. scipy is imported only where an LP is solved (scipy.optimize,
~0.4 s of a cold start), so `validate` and a P2P run load no scipy.
"""

from dataclasses import dataclass

import numpy as np

# HiGHS reads a cost or bound of this magnitude or more as infinite: its
# options infinite_cost and infinite_bound.
HIGHS_INF = 1e20
# A line-limit row gets matrix entries when the flow the blocks can push
# that way reaches its limit less this share of it and this many kW.
REACH_TOL = 1e-6


class NumericalFailure(Exception):
    """A model HiGHS cannot take, or a solve that ends in no certified
    status."""


class InfeasibleLp(Exception):
    """HiGHS certified that no point meets the constraints."""


@dataclass
class LpProblem:
    c: np.ndarray
    lo: np.ndarray        # column bounds
    hi: np.ndarray
    indptr: np.ndarray    # CSC: column j's entries are indptr[j]:indptr[j + 1]
    indices: np.ndarray   # row of each entry
    data: np.ndarray
    row_lo: np.ndarray
    row_hi: np.ndarray

    def __post_init__(self):
        for name in ("c", "lo", "hi", "data", "row_lo", "row_hi"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("indptr", "indices"):          # HiGHS' index type
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int32))
        n, m = self.c.size, self.row_lo.size
        if not self.lo.shape == self.hi.shape == (n,) or self.row_hi.shape != (m,):
            raise ValueError("lo and hi need one entry per column, "
                             "row_hi one per row")
        ptr = self.indptr
        if (ptr.shape != (n + 1,) or ptr[0] != 0 or np.any(np.diff(ptr) < 0)
                or self.indices.shape != (ptr[-1],)
                or self.data.shape != (ptr[-1],)
                or np.any(self.indices < 0) or np.any(self.indices >= m)):
            raise ValueError("malformed CSC matrix")
        for name in ("c", "data"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must not contain inf or nan")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("lo and hi must not contain nan")
        if (np.isnan(self.row_lo) | (self.row_lo == np.inf)).any():
            raise ValueError("row_lo must not contain nan or +inf")
        if (np.isnan(self.row_hi) | (self.row_hi == -np.inf)).any():
            raise ValueError("row_hi must not contain nan or -inf")
        if not (np.isfinite(self.row_lo) | np.isfinite(self.row_hi)).all():
            raise ValueError("row_hi must be finite where row_lo is -inf")
        bad = np.flatnonzero(self.lo > self.hi)
        if bad.size:
            j = bad[0]
            raise ValueError(
                f"variable {j}: bound lo {self.lo[j]} > hi {self.hi[j]}")
        # HiGHS reads a cost, bound or row side of 1e20 or more in magnitude
        # as infinite. A row side is refused only on the side that empties
        # its row: a line limit of 1e20 or more still means no limit.
        for what, v, far in (
                ("variable {}: cost", self.c, np.abs(self.c) >= HIGHS_INF),
                ("variable {}: bound lo", self.lo, np.isfinite(self.lo)
                 & (np.abs(self.lo) >= HIGHS_INF)),
                ("variable {}: bound hi", self.hi, np.isfinite(self.hi)
                 & (np.abs(self.hi) >= HIGHS_INF)),
                ("row {}: row_lo", self.row_lo, self.row_lo >= HIGHS_INF),
                ("row {}: row_hi", self.row_hi, self.row_hi <= -HIGHS_INF)):
            if far.any():
                j = far.argmax()
                raise NumericalFailure(
                    f"{what.format(j)} {v[j]:g} is {HIGHS_INF:g} or more in "
                    "magnitude, which HiGHS reads as infinite")

    @property
    def n(self):
        return self.c.size


def dispatch_lp(H, limits, buses, signs, prices, caps, balance=0.0,
                f_const=None):
    """The dispatch LP of clearing and DLMP over priced blocks.

    Variable j is a block of 0..caps[j] kW at the bus whose position in the
    network's bus list is buses[j] (an int array, `H.positions`) that consumes
    (signs[j] = +1) or produces (-1) at prices[j]: minimize the cost of
    production less the value of consumption subject to the line limits on
    the PTDF `H` (`f_const`: flows of the constant injections, an array over
    H.line_order) and the balance row signs.x = balance, which comes last.
    Rows 2k and 2k + 1 cap the flow of the k-th finite-limit line from above
    and below: column j holds +signs[j] on the +row and -signs[j] on the
    -row of each such line on its bus's root path, rows ascending, then
    signs[j] on the balance row; a row the blocks cannot bring to its limit
    has no entries. Returns (problem, limited), `limited` marking the
    finite-limit lines of H.line_order.
    """
    signs = np.asarray(signs, dtype=float)
    lims = np.array([limits[lid] for lid in H.line_order], dtype=float)
    f0 = np.zeros(lims.size) if f_const is None else f_const
    limited = np.isfinite(lims)
    k = int(limited.sum())
    # A row binds when the blocks can bring its side of the line's flow
    # within REACH_TOL of the limit: the +row with every consuming block
    # behind the line at its cap, the -row with every producing one. A row
    # that cannot bind gets no entries but keeps its side, which is then
    # positive (the blocks only add to f0 or -f0), so its activity 0 lies
    # strictly inside, its slack is basic and its dual exactly 0.
    n = len(H.bus_order) + 1
    along, against = (H.flows(np.bincount(
        buses, np.where(side, caps, 0.0) * np.abs(signs), n)[1:])
        for side in (signs > 0, signs < 0))
    near = lims * (1.0 - REACH_TOL) - REACH_TOL
    binds = np.column_stack([limited & (f0 + along >= near),
                             limited & (against - f0 >= near)])
    # A column at the bus at position p repeats column p of `bus_rows` (CSC,
    # `bus_ptr`): the binding rows of the limited lines on p's root path,
    # ascending, then the balance row 2k. H's entries keep their order, by
    # bus and then by line, so the t-th binding row, at position p, is entry
    # t + p.
    on = binds[H.path_rows].ravel()
    row = 2 * (np.cumsum(limited, dtype=np.int32) - 1)[H.path_rows]
    at = np.repeat(H.path_cols + 1, 2)[on]
    bus_ptr = np.cumsum(np.append(0, np.bincount(at, minlength=n) + 1))
    at += np.arange(at.size)
    bus_rows = np.full(bus_ptr[-1], 2 * k, dtype=np.int32)
    bus_rows[at] = np.column_stack([row, row + 1]).ravel()[on]
    length = bus_ptr[buses + 1] - bus_ptr[buses]
    indptr = np.cumsum(np.append(0, length), dtype=np.int32)
    indices = bus_rows[np.repeat(bus_ptr[buses] - indptr[:-1], length)
                       + np.arange(indptr[-1])]
    # +rows and the balance row are even, -rows odd
    data = np.where(indices & 1, -1.0, 1.0) * np.repeat(signs, length)
    row_hi = np.append(np.column_stack([lims[limited] - f0[limited],
                                        lims[limited] + f0[limited]]).ravel(),
                       balance)
    row_lo = np.append(np.full(2 * k, -np.inf), balance)
    problem = LpProblem(c=-signs * prices, lo=np.zeros(len(caps)), hi=caps,
                        indptr=indptr, indices=indices, data=data,
                        row_lo=row_lo, row_hi=row_hi)
    return problem, limited


def dispatch_duals(solution, limited):
    """(lam, mu_plus, mu_minus) of a solved `dispatch_lp` that returned
    `limited`: lam = -d objective / d balance, and as arrays over H's lines
    the prices >= 0 of each line's flow limit along and against it (0 if
    none)."""
    y = solution.row_duals
    mu = np.maximum(-y[:-1], 0.0)
    mu_plus, mu_minus = np.zeros((2, limited.size))
    mu_plus[limited], mu_minus[limited] = mu[::2], mu[1::2]
    return -float(y[-1]), mu_plus, mu_minus


@dataclass
class LpSolution:
    x: np.ndarray
    objective: float
    row_duals: np.ndarray       # HiGHS row_dual
    reduced_costs: np.ndarray   # HiGHS col_dual


def solve_lp(problem):
    """Solve an LpProblem to a certified optimum. Raises InfeasibleLp if
    HiGHS certifies that no point is feasible, else NumericalFailure if it
    refuses the model or ends at another status or off the constraints."""
    from scipy.optimize._highspy._core import (
        HighsModelStatus, HighsStatus, _Highs)

    p = problem
    highs = _Highs()
    highs.setOptionValue("output_flag", False)   # first: no banner on stdout
    highs.setOptionValue("presolve", "off")
    highs.setOptionValue("solver", "simplex")
    highs.setOptionValue("simplex_strategy", 1)  # dual
    if highs.passModel(p.n, p.row_lo.size, p.data.size, 1, 1, 0.0, p.c, p.lo,
                       p.hi, p.row_lo, p.row_hi, p.indptr, p.indices, p.data,
                       np.zeros(p.n, dtype=np.int32)) == HighsStatus.kError:
        raise NumericalFailure("HiGHS refused the model")
    highs.run()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kInfeasible:
        raise InfeasibleLp("HiGHS model status: Infeasible")
    if status != HighsModelStatus.kOptimal:
        b = np.abs(np.append(p.lo, p.hi))
        raise NumericalFailure(
            f"HiGHS model status: {highs.modelStatusToString(status)}; largest "
            f"finite |cost| {np.abs(p.c).max(initial=0):g}, largest finite "
            f"|column bound| {b[np.isfinite(b)].max(initial=0):g}")

    sol = highs.getSolution()
    objective = highs.getInfo().objective_function_value
    # with their dtype given, numpy reads HiGHS' lists of floats faster
    x, rows = (np.array(v, dtype=float) for v in (sol.col_value, sol.row_value))
    # linprog's post-solve test: bounds and rows met within sqrt(1e-9) * 10
    off = np.concatenate((p.lo - x, x - p.hi, p.row_lo - rows, rows - p.row_hi))
    if np.isnan(objective) or not np.all(off <= np.sqrt(1e-9) * 10):
        raise NumericalFailure("optimal solution violates its constraints")
    return LpSolution(x=x, objective=float(objective),
                      row_duals=np.array(sol.row_dual, dtype=float),
                      reduced_costs=np.array(sol.col_dual, dtype=float))
