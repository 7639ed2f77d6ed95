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
numpy from the PTDF and the line layout `network.ptdf` holds beside it:
lines no dispatch within the blocks' caps can load are contracted, leaving
the lossless branch flow (Baran & Wu, IEEE Trans. Power Delivery, 1989) on
a tree of zones: 52 rows on the benchmark's 1000-bus feeder (README gives
timings). `dispatch_duals` reads prices back.

The solve is one call into HiGHS' dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) with presolve off, which finds nothing to remove in a dispatch
LP yet took over 90% of a 1000-bus solve. It calls scipy's HiGHS extension,
loaded from its file without scipy.optimize's __init__ (~0.5 s of a cold
start), and equals `linprog` bit for bit without its per-column Python.
Each thread has one HiGHS object, made with its options at its first solve
and cleared before each model: it keeps only its options, never warm-
starts, and once a solution is read an empty model frees its copy of the
solved one, for the next model's copy to reuse. The first object in a
process pins glibc's malloc thresholds at their 64-bit ceilings (mmap
32 MiB, trim 64 MiB; setting one stops both adapting), so free no longer
trims HiGHS' workspace for the next solve to fault in again (README gives
the fault counts). Other libcs are left as they are.
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
# A line is loadable when the flow the blocks can push along or against it
# reaches its limit less this share of it and this many kW.
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
        # its row.
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
    """(LpProblem, each bus position's row) of clearing's and DLMP's LP.

    Variable j is a block of 0..caps[j] kW at the bus at position buses[j]
    (`H.positions`) that consumes (signs[j] = +1) or produces (-1) at
    prices[j]: minimize the cost of production less the value of consumption
    subject to balance and the line limits on the PTDF `H` (`f_const`: flows
    of the constant injections, over H.line_order). Row z balances zone z,
    signs.x of its blocks plus the flows out of it less the flow in, to 0;
    row 0, the root zone's, to `balance`. The loadable lines' flows follow
    the blocks in line order, each within -limit - f_const, limit - f_const.
    """
    signs = np.asarray(signs, dtype=float)
    lims = H.limits
    f0 = np.zeros(lims.size) if f_const is None else f_const
    # A line is loadable when the blocks can bring its flow within REACH_TOL
    # of the limit: along it with every consuming block behind it at its
    # cap, or against it with every producing one (one bincount sums both,
    # the producing blocks' n positions on). Dropping the other lines'
    # limits is exact (Andersen & Andersen, Math. Prog. 71, 1995).
    n = len(H.bus_order) + 1
    reach = np.bincount(buses + n * (signs < 0),
                        np.where(signs != 0.0, caps, 0.0) * np.abs(signs), 2 * n)
    near = lims * (1.0 - REACH_TOL) - REACH_TOL
    loadable = H.limited & ((f0 + H.flows(reach[1:n]) >= near)
                            | (H.flows(reach[n + 1:]) - f0 >= near))
    # A bus's zone is headed by the deepest loadable line on its root path;
    # row r is the r-th such line's zone by depth, row 0 the root's.
    head = np.maximum.reduceat(np.where(loadable[H.path_rows], H.path_rank, 0),
                               H.path_start)
    # in HiGHS' index type, so the LP's row indices are gathered, not copied
    zone = np.append(0, np.cumsum(np.append(0, loadable[H.by_depth]))[head]
                     ).astype(np.int32)
    lines = np.flatnonzero(loadable)
    m, k = len(caps), lines.size
    with np.errstate(over="ignore"):        # beyond the float range: no limit
        bounds = np.array([-lims[lines] - f0[lines], lims[lines] - f0[lines]])
    far = np.argwhere(np.isfinite(bounds.T) & (np.abs(bounds.T) >= HIGHS_INF))
    if far.size:
        i, side = far[0]
        raise NumericalFailure(
            f"line {H.line_order[lines[i]]} (limit {lims[lines[i]]:g} kW): "
            f"flow bound {bounds[side, i]:g} is {HIGHS_INF:g} or more in "
            "magnitude, which HiGHS reads as infinite")
    sides = np.append(balance, np.zeros(k))
    return LpProblem(
        c=np.append(-signs * prices, np.zeros(k)),
        lo=np.append(np.zeros(m), bounds[0]), hi=np.append(caps, bounds[1]),
        indptr=np.append(np.arange(m), m + 2 * np.arange(k + 1)),
        indices=np.append(zone[buses], np.column_stack(
            [zone[H.line_from[lines]], zone[H.line_to[lines]]])),
        data=np.append(signs, np.tile([1.0, -1.0], k)),
        row_lo=sides, row_hi=sides), zone


def dispatch_duals(solution, H, zone):
    """(prices, mu_plus, mu_minus) of a solved `dispatch_lp` on the PTDF H
    with bus rows `zone`: each bus position's price, its zone row's negated
    dual, and per line the prices >= 0 of its limit along and against it,
    the price step across it (0 on a contracted line)."""
    price = -solution.row_duals[zone]
    step = price[H.line_to] - price[H.line_from]
    return price, np.maximum(step, 0.0), np.maximum(-step, 0.0)


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
    model = (p.n, p.row_lo.size, p.data.size, 1, 1, 0.0, p.c, p.lo, p.hi,
             p.row_lo, p.row_hi, p.indptr, p.indices, p.data,
             np.zeros(p.n, np.int32))
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
    if highs.passModel(*model) == core.HighsStatus.kError:
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
    highs.passModel(core.HighsLp())     # frees HiGHS' copy; see the docstring
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
