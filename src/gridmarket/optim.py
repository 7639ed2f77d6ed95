"""Linear-programming core with dual recovery.

Problems are minimizations in the one form HiGHS' `passModel` takes:
min c.x subject to row_lo <= A x <= row_hi and lo <= x <= hi, with A held
column-wise (CSC) as `indptr`, `indices` and `data`. A row with
row_lo = -inf is a <=-row, one with row_lo == row_hi an equality. An
`LpProblem` is checked once, where it is built, and `solve_lp` returns an
optimum or raises. The solution carries HiGHS' own duals: row_duals[i] =
d objective / d (active side of row i), and reduced_costs[j] likewise for
column j's bounds.

Clearing and DLMP both build their LP with `dispatch_lp`, straight from the
network's PTDF index arrays with numpy, with no dense or sparse matrix type;
`dispatch_duals` reads its prices back, so its row layout is known only here.

The solve is one call into HiGHS' dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) through the binding scipy bundles, `_highspy._core`, not through
`linprog`: on a 1000-bus feeder's clear LP, linprog's input handling and its
per-column Python loop over the bound marginals took 35 of the 43 ms per
call. The model goes in as whole arrays, linprog's post-solve test stays,
and the results equal linprog's bit for bit, which the tests check, as they
check strong duality and complementary slackness. Presolve is always off:
a dispatch LP (box-bounded blocks, one balance row, PTDF line rows) leaves
it nothing to remove, yet on a 1000-bus feeder it took over 90% of the
solve, and the dual simplex needs about as many iterations without it.

scipy is imported only where an LP is solved (scipy.optimize, ~0.4 s of a
cold start): `validate` and a P2P run, which solve no LP, load no scipy.
"""

from dataclasses import dataclass

import numpy as np

# HiGHS reads a cost or bound of this magnitude or more as infinite: its
# options infinite_cost and infinite_bound.
HIGHS_INF = 1e20


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
        for name, what in (("c", "cost"), ("lo", "bound lo"),
                           ("hi", "bound hi")):
            v = getattr(self, name)
            big = np.flatnonzero(np.isfinite(v) & (np.abs(v) >= HIGHS_INF))
            if big.size:
                j = big[0]
                raise NumericalFailure(
                    f"variable {j}: {what} {v[j]:g} is {HIGHS_INF:g} or more "
                    "in magnitude, which HiGHS reads as infinite")

    @property
    def n(self):
        return self.c.size


def dispatch_lp(H, limits, buses, signs, prices, caps, balance=0.0,
                f_const=None):
    """The dispatch LP of clearing and DLMP over priced blocks.

    Variable j is a block of 0..caps[j] kW at buses[j] that consumes
    (signs[j] = +1) or produces (-1) at prices[j]: minimize the cost of
    production less the value of consumption subject to the line limits on
    the PTDF `H` (`f_const`: flows of the constant injections by line id)
    and the balance row signs.x = balance, which comes last. Rows 2k and
    2k + 1 cap the flow of `limited[k]`, the k-th finite-limit line, from
    above and below: column j holds +signs[j], -signs[j] on the pair of each
    such line on its bus's root path, rows ascending, then signs[j] on the
    balance row. Returns (problem, limited).
    """
    signs = np.asarray(signs, dtype=float)
    lims = np.array([limits[lid] for lid in H.line_order], dtype=float)
    finite = np.isfinite(lims)
    limited = [lid for lid, f in zip(H.line_order, finite) if f]
    k = len(limited)
    # H's entries on limited lines, still by bus and then by line: the pair
    # of each, and where each bus's run starts (none for the root, bus nb)
    on = finite[H.path_rows]
    pair = (np.cumsum(finite) - 1)[H.path_rows[on]]
    nb = len(H.bus_order)
    starts = np.searchsorted(H.path_cols[on], np.arange(nb + 2))
    bus = np.fromiter(map(H.bus_index.get, buses, [nb] * len(signs)),
                      dtype=np.intp, count=len(signs))
    first, depth = starts[bus], starts[bus + 1] - starts[bus]
    # positions in `pair` of each column's lines, column after column
    at = np.arange(depth.sum()) + np.repeat(first - np.cumsum(depth) + depth,
                                            depth)
    indptr = np.append(0, np.cumsum(2 * depth + 1))
    line = np.ones(indptr[-1], dtype=bool)
    line[indptr[1:] - 1] = False                   # the balance entries
    indices = np.full(indptr[-1], 2 * k)
    indices[line] = ((2 * pair[at])[:, None] + [0, 1]).ravel()
    data = np.repeat(signs, 2 * depth + 1)
    data[line] *= np.tile([1.0, -1.0], at.size)

    f0 = 0.0 if f_const is None else np.array([f_const[lid] for lid in limited])
    row_hi = np.append(np.column_stack([lims[finite] - f0,
                                        lims[finite] + f0]).ravel(), balance)
    row_lo = np.append(np.full(2 * k, -np.inf), balance)
    problem = LpProblem(c=-signs * prices, lo=np.zeros(len(caps)), hi=caps,
                        indptr=indptr, indices=indices, data=data,
                        row_lo=row_lo, row_hi=row_hi)
    return problem, limited


def dispatch_duals(solution, limited, lines):
    """(lam, mu_plus, mu_minus) of a solved `dispatch_lp` that returned
    `limited`: lam = -d objective / d balance, and as dicts over `lines` the
    prices >= 0 of each line's flow limit along and against it (0 if none)."""
    y = solution.row_duals
    mu = np.maximum(-y[:-1], 0.0).tolist()
    zero = dict.fromkeys(lines, 0.0)
    return (-float(y[-1]), zero | dict(zip(limited, mu[::2])),
            zero | dict(zip(limited, mu[1::2])))


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
    if status != HighsModelStatus.kOptimal:
        error = (InfeasibleLp if status == HighsModelStatus.kInfeasible
                 else NumericalFailure)
        raise error("HiGHS model status: "
                    + highs.modelStatusToString(status))

    sol = highs.getSolution()
    objective = highs.getInfo().objective_function_value
    x, rows = np.array(sol.col_value), np.array(sol.row_value)
    # linprog's post-solve test: bounds and rows met within sqrt(1e-9) * 10
    off = np.concatenate((p.lo - x, x - p.hi, p.row_lo - rows, rows - p.row_hi))
    if np.isnan(objective) or not np.all(off <= np.sqrt(1e-9) * 10):
        raise NumericalFailure("optimal solution violates its constraints")
    return LpSolution(x=x, objective=float(objective),
                      row_duals=np.array(sol.row_dual),
                      reduced_costs=np.array(sol.col_dual))
