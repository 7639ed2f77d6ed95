"""Linear-programming core with dual recovery.

Problems are minimizations in the one form HiGHS' `passModel` takes:
min c.x subject to row_lo <= A x <= row_hi and lo <= x <= hi, with A held
column-wise (CSC) as `indptr`, `indices` and `data`. A row with
row_lo = -inf is a <=-row, one with row_lo == row_hi an equality. An
`LpProblem` is checked once, where it is built, and `solve_lp` returns an
optimum or raises. The solution carries the primal point, the objective and
HiGHS' row duals, row_duals[i] = d objective / d (active side of row i):
the prices the callers read. A column's reduced cost is c - A^T row_duals.

Clearing and DLMP both build their LP with `dispatch_lp`, in whole-array
numpy from the PTDF and the line limits `network.ptdf` holds beside it:
each bus's column is laid out once and gathered for every block at that
bus, as the int32 arrays HiGHS takes; `dispatch_duals` reads the prices
back. A line-limit row that no dispatch within the blocks' caps can bring
to its limit keeps its place and its side but gets no matrix entries: its
dual is 0 either way, and on a 1000-bus feeder 1,940 of the 1,998 line rows
are such rows. Dropping them instead would change the row count and, where
block prices tie, the optimal vertex HiGHS returns.

The solve is one call into HiGHS' dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) with presolve off, which finds nothing to remove in a dispatch
LP yet took over 90% of a 1000-bus solve. It calls scipy's HiGHS extension,
loaded from its file without scipy.optimize's __init__ (~0.5 s of a cold
start), and equals `linprog` bit for bit without its per-column Python.
Each thread has one HiGHS object, made with its options at its first solve
and cleared before each model: it keeps only its options and never warm-
starts. The first object in a process pins glibc's malloc thresholds at
their 64-bit ceilings (mmap 32 MiB, trim 64 MiB; setting one stops both
adapting), so free no longer trims HiGHS' workspace for the next solve to
fault in again (README gives the fault counts). Other libcs are left as
they are.
"""

import ctypes
import os
import struct
import sys
import threading
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

# HiGHS reads a cost or bound of this magnitude or more as infinite: its
# options infinite_cost and infinite_bound.
HIGHS_INF = 1e20
# A line-limit row gets matrix entries when the flow the blocks can push
# that way reaches its limit less this share of it and this many kW.
REACH_TOL = 1e-6
_solver = threading.local()
_pin_once = threading.Lock()


class NumericalFailure(Exception):
    """HiGHS missing, a model it refuses or a solve in no certified status."""


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
        if (ptr.shape != (n + 1,) or ptr[0] != 0 or (ptr[1:] < ptr[:-1]).any()
                or self.indices.shape != (ptr[-1],)
                or self.data.shape != (ptr[-1],) or self.indices.size and (
                    self.indices.min() < 0 or self.indices.max() >= m)):
            raise ValueError("malformed CSC matrix")
        for name in ("c", "data"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must not contain inf or nan")
        if np.isnan(self.lo).any() or np.isnan(self.hi).any():
            raise ValueError("lo and hi must not contain nan")
        if not (self.row_lo < np.inf).all():         # false for nan too
            raise ValueError("row_lo must not contain nan or +inf")
        if not (self.row_hi > -np.inf).all():
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


def dispatch_lp(H, buses, signs, prices, caps, balance=0.0, f_const=None):
    """The dispatch LP of clearing and DLMP over priced blocks.

    Variable j is a block of 0..caps[j] kW at the bus whose position in the
    network's bus list is buses[j] (an int array, `H.positions`) that consumes
    (signs[j] = +1) or produces (-1) at prices[j]: minimize the cost of
    production less the value of consumption subject to the line limits on
    the PTDF `H` (`f_const`: flows of the constant injections, an array over
    H.line_order) and the balance row signs.x = balance, which comes last.
    Rows 2k and 2k + 1 cap the flow of the k-th finite-limit line
    (`H.limited`) from above and below: column j holds +signs[j] on the
    +row and -signs[j] on the -row of each such line on its bus's root path,
    rows ascending, then signs[j] on the balance row; a row the blocks cannot
    bring to its limit has no entries. Returns the LpProblem.
    """
    signs = np.asarray(signs, dtype=float)
    lims, limited = H.limits, H.limited
    f0 = np.zeros(lims.size) if f_const is None else f_const
    k = int(limited.sum())
    # A row binds when the blocks can bring its side of the line's flow
    # within REACH_TOL of the limit: the +row with every consuming block
    # behind the line at its cap, the -row with every producing one. A row
    # that cannot bind gets no entries but keeps its side, which is then
    # positive (the blocks only add to f0 or -f0), so its activity 0 lies
    # strictly inside, its slack is basic and its dual exactly 0. One bincount
    # sums the caps of both sides, the producing blocks' n positions on.
    n = len(H.bus_order) + 1
    reach = np.bincount(buses + n * (signs < 0),
                        np.where(signs != 0.0, caps, 0.0) * np.abs(signs), 2 * n)
    near = lims * (1.0 - REACH_TOL) - REACH_TOL
    binds = np.column_stack([limited & (f0 + H.flows(reach[1:n]) >= near),
                             limited & (H.flows(reach[n + 1:]) - f0 >= near)])
    # A column at the bus at position p repeats column p of `bus_rows` (CSC,
    # `bus_ptr` and `size`): the binding rows of the limited lines on p's root
    # path, ascending, then the balance row 2k. H's entries keep their order,
    # by bus and then by line, so the t-th binding row, at p, is entry t + p.
    on = np.flatnonzero(binds.take(H.path_rows, axis=0))
    at = H.path_cols[on >> 1] + 1
    size = np.bincount(at, minlength=n).astype(np.int32) + 1
    bus_ptr = np.cumsum(size, dtype=np.int32) - size
    bus_rows = np.full(bus_ptr[-1] + size[-1], 2 * k, dtype=np.int32)
    plus = 2 * np.cumsum(limited, dtype=np.int32) - 2    # limited lines' +rows
    bus_rows[at + np.arange(at.size)] = plus[H.path_rows[on >> 1]] + (on & 1)
    length = size[buses]
    indptr = np.cumsum(np.append(0, length), dtype=np.int32)
    indices = bus_rows[np.repeat(bus_ptr[buses] - indptr[:-1], length)
                       + np.arange(indptr[-1], dtype=np.int32)]
    # +rows and the balance row are even, -rows odd
    data = np.repeat(signs, length) * (1 - 2 * (indices & 1))
    # a side beyond the float range is no limit, as one of 1e20+ is to HiGHS
    with np.errstate(over="ignore"):
        sides = np.column_stack([lims[limited] - f0[limited],
                                 lims[limited] + f0[limited]]).ravel()
    row_hi = np.append(np.minimum(sides, np.finfo(float).max), balance)
    row_lo = np.append(np.full(2 * k, -np.inf), balance)
    return LpProblem(c=-signs * prices, lo=np.zeros(len(caps)), hi=caps,
                     indptr=indptr, indices=indices, data=data, row_lo=row_lo,
                     row_hi=row_hi)


def dispatch_duals(solution, limited):
    """(lam, mu_plus, mu_minus) of a solved `dispatch_lp` on the PTDF H
    whose `limited` is given: lam = -d objective / d balance, and as arrays
    over H's lines the prices >= 0 of each line's flow limit along and
    against it (0 if none)."""
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


def highs_binding():
    """scipy's HiGHS extension, from sys.modules or else loaded from its file
    and registered there, for a later `import scipy.optimize` to reuse."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        scipy_dir = os.path.dirname(util.find_spec("scipy").origin)
        stem = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
        found = [stem + suffix for suffix in machinery.EXTENSION_SUFFIXES
                 if os.path.isfile(stem + suffix)]
        if not found:
            from importlib.metadata import version
            raise NumericalFailure(f"scipy {version('scipy')}: HiGHS not found")
        spec = util.spec_from_file_location(name, found[0])
        sys.modules[name] = util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def solve_lp(problem):
    """Solve an LpProblem to a certified optimum. Raises InfeasibleLp if
    HiGHS certifies that no point is feasible, else NumericalFailure if it is
    missing, refuses the model or ends at another status or off constraints."""
    core = highs_binding()
    p = problem
    highs = getattr(_solver, "highs", None)
    if highs is None:
        if _pin_once.acquire(blocking=False):   # never released: once a process
            mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
            if mallopt:
                mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
                mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD
                mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        highs = _solver.highs = core._Highs()
        highs.setOptionValue("output_flag", False)  # first: no stdout banner
        highs.setOptionValue("presolve", "off")
        highs.setOptionValue("solver", "simplex")
        highs.setOptionValue("simplex_strategy", 1)  # dual
    highs.clearModel()      # keeps the options; drops model, basis, solution
    if highs.passModel(p.n, p.row_lo.size, p.data.size, 1, 1, 0.0, p.c, p.lo,
                       p.hi, p.row_lo, p.row_hi, p.indptr, p.indices, p.data,
                       np.zeros(p.n, np.int32)) == core.HighsStatus.kError:
        pairs, count = np.unique(np.column_stack(
            [np.repeat(np.arange(p.n), np.diff(p.indptr)), p.indices]),
            axis=0, return_counts=True)
        dup = pairs[count > 1]
        why = f": column {dup[0, 0]} repeats row {dup[0, 1]}" if len(dup) else ""
        raise NumericalFailure(f"HiGHS refused the model{why}")
    highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kInfeasible:
        raise InfeasibleLp("HiGHS model status: Infeasible")
    if status != core.HighsModelStatus.kOptimal:
        b = np.abs(np.append(p.lo, p.hi))
        raise NumericalFailure(
            f"HiGHS model status: {highs.modelStatusToString(status)}; largest "
            f"finite |cost| {np.abs(p.c).max(initial=0):g}, largest finite "
            f"|column bound| {b[np.isfinite(b)].max(initial=0):g}")

    sol = highs.getSolution()
    objective = highs.getInfo().objective_function_value
    # struct packs HiGHS' lists of floats in half the time np.fromiter takes
    got = (sol.col_value, sol.row_value, sol.row_dual)
    x, rows, duals = out = [np.empty(len(v)) for v in got]
    for a, v in zip(out, got):
        struct.pack_into(f"{len(v)}d", a, 0, *v)
    # linprog's post-solve test: bounds and rows met within sqrt(1e-9) * 10
    off = (p.lo - x, x - p.hi, p.row_lo - rows, rows - p.row_hi)
    if np.isnan(objective) or not all((d <= np.sqrt(1e-9) * 10).all() for d in off):
        raise NumericalFailure("optimal solution violates its constraints")
    return LpSolution(x=x, objective=float(objective), row_duals=duals)
