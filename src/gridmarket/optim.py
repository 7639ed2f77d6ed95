"""The dispatch LP of clearing and DLMP, and its exact solve.

Clearing and DLMP both build their LP with `dispatch_lp`, in whole-array
numpy from the PTDF and the line layout `network.ptdf` holds beside it:
lines no dispatch within the blocks' caps can load are contracted, leaving
the lossless branch flow (Baran & Wu, IEEE Trans. Power Delivery, 1989) on
a tree of zones, one balance row each: 52 rows on the benchmark's 1000-bus
feeder. `dispatch_duals` reads prices back.

With one row per zone, the LP allocates blocks under bounds nested along
the zone tree, which a greedy solves exactly (Ibaraki & Katoh, *Resource
Allocation Problems*, 1988; Dvijotham et al., "Graphical models for optimal
power flow", *Constraints* 22, 2017). A block's take is what it consumes,
or what it withholds of its cap if it produces; each is a segment of its
cap's length, ranked by price, highest first, ties in input order (the
lower block index first). `solve_lp` walks the rows from the deepest up:
each zone ranks its own blocks with what its children left free, and its
line's flow bounds fix the top-ranked segments as taken and cut the lowest
ones off, each cut splitting at most one block. The root cuts at the
balance, or lower, where an uncapped producer (the SCOPF's import) ranks,
which then imports the difference; an uncapped consumer (its export) is a
segment of infinite length. Going back down, a zone's cut is its parent's,
held between its own two cuts, and its price is that of the block its cut
splits. A cut within rounding of a segment's end cuts at that end. Ties
are put in input order by re-sorting only the runs of tied prices after
one quicksort.

The first `solve_lp` in a process, and nothing before it, pins glibc's
malloc thresholds (`pin_malloc`): left adaptive, they let each free of a
clear's ~120 kB block arrays trim the heap top, and each clear on the
benchmark feeder faulted hundreds of pages back in (a SCOPF none); pinned,
the median step faults none. CHANGES.md records the solve's times there
against HiGHS' dual simplex on the same LP.
"""

import ctypes
import threading
from dataclasses import dataclass

import numpy as np

# A cost, cap, balance or reachable flow bound of this magnitude or more is
# refused: the solve adds caps and bounds in running sums, where it would
# swamp kW-scale blocks.
TOO_LARGE = 1e20
# A line is loadable when the flow the blocks can push along or against it
# reaches its limit less this share of it and this many kW.
REACH_TOL = 1e-6
# Rounding in the running sums: a bound closer to the take than this share
# of the zone's producing kW (plus 1 kW) reads as met, its cut as unbound.
FEAS_TOL = 1e-9
# held from the first solve on, never released: malloc is pinned once
_pinned = threading.Lock()


class NumericalFailure(Exception):
    """A dispatch too large to solve exactly, or an unbounded one."""


class InfeasibleLp(Exception):
    """No dispatch meets the balance rows within the line limits."""


@dataclass
class ZoneLp:
    """Blocks (`zone` row, sign +1 consuming or -1 producing, price, cap)
    and loadable lines in line order (`child` row, the row of its `parent`
    zone, flow bounds `lo` and `hi`), with row 0's `balance`."""
    zone: np.ndarray
    signs: np.ndarray
    prices: np.ndarray
    caps: np.ndarray
    child: np.ndarray
    parent: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    balance: float


def refuse(what, value):
    raise NumericalFailure(f"{what} {value:g} is {TOO_LARGE:g} or more in "
                           "magnitude: too large beside kW-scale blocks")


def dispatch_lp(H, buses, signs, prices, caps, balance=0.0, f_const=None):
    """(ZoneLp, each bus position's row) of clearing's and DLMP's LP.

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
    prices, caps = np.asarray(prices, dtype=float), np.asarray(caps, float)
    lims = H.limits
    f0 = np.zeros(lims.size) if f_const is None else f_const
    # A line is loadable when the blocks can bring its flow within REACH_TOL
    # of the limit: along it with every consuming block behind it at its
    # cap, or against it with every producing one (one bincount sums both,
    # the producing blocks' n positions on). Dropping the other lines'
    # limits is exact (Andersen & Andersen, Math. Prog. 71, 1995).
    n = len(H.bus_order) + 1
    reach = np.bincount(buses + n * (signs < 0), caps, 2 * n)
    near = lims * (1.0 - REACH_TOL) - REACH_TOL
    loadable = H.limited & ((f0 + H.flows(reach[1:n]) >= near)
                            | (H.flows(reach[n + 1:]) - f0 >= near))
    # A bus's zone is headed by the deepest loadable line on its root path;
    # row r is the r-th such line's zone by depth, row 0 the root's.
    head = np.maximum.reduceat(np.where(loadable[H.path_rows], H.path_rank, 0),
                               H.path_start)
    zone = np.append(0, np.cumsum(np.append(0, loadable[H.by_depth]))[head])
    lines = np.flatnonzero(loadable)
    with np.errstate(over="ignore"):        # beyond the float range: no limit
        bounds = np.array([-lims[lines] - f0[lines], lims[lines] - f0[lines]])
    far = np.argwhere(np.isfinite(bounds.T) & (np.abs(bounds.T) >= TOO_LARGE))
    if far.size:
        i, side = far[0]
        refuse(f"line {H.line_order[lines[i]]} (limit {lims[lines[i]]:g} kW): "
               "flow bound", bounds[side, i])
    for what, v in (("cost", -signs * prices),
                    ("bound hi", np.where(np.isinf(caps), 0.0, caps))):
        far = np.flatnonzero(np.abs(v) >= TOO_LARGE)
        if far.size:
            refuse(f"variable {far[0]}: {what}", v[far[0]])
    if abs(balance) >= TOO_LARGE:
        refuse(f"row 0: row_{'lo' if balance > 0 else 'hi'}", balance)
    return ZoneLp(zone[buses], signs, prices, caps,
                  zone[H.line_to[lines]], zone[H.line_from[lines]],
                  bounds[0], bounds[1], balance), zone


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
    x: np.ndarray               # the blocks, then the flows in line order
    objective: float
    row_duals: np.ndarray       # d objective / d row side: -price


class SolverResult:
    """What `clear` and `solve_dlmp` return. They keep the solve's arrays;
    each dict attribute is a `cached_property` that builds its dict from
    them on its first read, so a step that reads none builds none. `repr`
    and `==` read the attributes named in `_attrs`, in order, as a
    dataclass's would."""

    _attrs = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._attrs)

    def __repr__(self):
        fields = map("{}={!r}".format, self._attrs, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


def pin_malloc():
    """Sets glibc's M_TRIM_THRESHOLD to 64 MiB and M_MMAP_THRESHOLD to 32 MiB
    at its first call in a process, and does nothing at any later call or
    where libc has no `mallopt`. Setting either turns off glibc's adaptive
    thresholds, under which each free of a solve's arrays trimmed the heap
    top and the next solve faulted its pages back in."""
    if _pinned.acquire(blocking=False):
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD
            mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD


def cut_at(cum, a, side, tol=0.0):
    """(index, how far in) of position a along the segments whose running
    lengths are `cum`: side "left" splits the segment ending at a, "right"
    the one starting there. A position within `tol` of a segment's end
    reads as that end."""
    i = int(cum.searchsorted(a, side))
    end = i if side == "right" else i - 1   # the end a may fall short of / pass
    if 0 <= end < cum.size and abs(cum[end] - a) <= tol:
        a = float(cum[end])
        i = int(cum.searchsorted(a, side))
    return i, a - (cum[i - 1] if i else 0.0)


def merged(parts):
    """One ascending rank array of a zone's sorted parts."""
    return parts[0] if len(parts) == 1 else np.sort(np.concatenate(parts))


def solve_lp(p):
    """Solve a ZoneLp exactly (see the module docstring). Raises InfeasibleLp
    if a zone's line bounds or the balance cannot be met, NumericalFailure
    if the optimum is unbounded or an uncapped producer sits off the root."""
    pin_malloc()
    m, k = p.caps.size, p.child.size
    if (np.abs(p.signs) != 1.0).any():
        raise ValueError("signs must be +1 or -1")
    consumes = p.signs > 0
    uncapped = ~consumes & np.isinf(p.caps)
    if uncapped[p.zone > 0].any():
        raise NumericalFailure("an uncapped producer outside the root zone")
    cap = np.where(uncapped, 0.0, p.caps)
    # rank the blocks: quicksort on price, then each run of tied prices in
    # block order, by sorting only the tied ranks' (run, block) keys, a run
    # starting where the rank before differs in price (a stable sort of the
    # float prices takes ~5 times the quicksort)
    order = np.argsort(-p.prices)
    price = p.prices[order]
    tie = np.flatnonzero(price[1:] == price[:-1])
    if tie.size:
        in_run = np.zeros(m, bool)
        in_run[tie] = in_run[tie + 1] = True
        tied = np.flatnonzero(in_run)
        run = np.cumsum(price[tied] != price[tied - 1])
        order[tied] = np.sort(run * m + order[tied]) - run * m
    free, t0 = cap[order], np.zeros(m)
    # each row's own ranks, ascending: a stable sort on the narrowest keys
    zr = p.zone[order]
    grouped = np.argsort(zr.astype(np.min_scalar_type(k)), kind="stable")
    ends = np.cumsum(np.bincount(zr, minlength=k + 1)).tolist()
    parts = [[grouped[a:b]] for a, b in zip([0] + ends, ends)]
    imports = np.flatnonzero(uncapped[order])
    if imports.size:            # ranked, but with no segment to cut
        parts[0][0] = parts[0][0][~uncapped[order[parts[0][0]]]]
    up = np.zeros(k + 1, np.intp)
    up[p.child] = p.parent
    up = up.tolist()
    lo, hi = np.zeros((2, k + 1))
    lo[p.child], hi[p.child] = p.lo, p.hi
    lo, hi = lo.tolist(), hi.tolist()
    # A zone's take T runs from `offset` over its free segments; its line's
    # flow is T less its subtree's producing caps, so the flow bounds cut
    # the segments at lo + offset and hi + offset.
    offset = np.bincount(p.zone, np.where(consumes, 0.0, cap), k + 1).tolist()
    low, high = [(-1, 0.0)] * (k + 1), [(m, 0.0)] * (k + 1)
    for z in range(k, 0, -1):
        ranks = merged(parts[z])
        cum = free[ranks].cumsum()
        width = float(cum[-1]) if ranks.size else 0.0
        a, b = lo[z] + offset[z], hi[z] + offset[z]
        tol = FEAS_TOL * (1.0 + abs(offset[z]))
        if a > width + tol or b < -tol:
            raise InfeasibleLp(f"row {z}: its line's flow bounds leave no "
                               "take between them")
        start, stop = 0, ranks.size
        if b < width - tol:
            stop, keep = cut_at(cum, max(b, 0.0), "right", tol)
            r = ranks[stop]
            high[z], free[r], stop = (int(r), t0[r] + keep), keep, stop + 1
        if a > tol:
            a = min(a, width)
            start, fix = cut_at(cum, a, "left", tol)
            r = ranks[start]
            low[z] = (int(r), t0[r] + fix)
            t0[r] += fix
            free[r] -= fix
            offset[z] -= a
        parts[up[z]].append(ranks[start:stop])
        offset[up[z]] += offset[z]

    # The root cuts at the balance, unless taking more is worth importing:
    # then at the last-ranked uncapped producer, which imports the rest.
    ranks = merged(parts[0])
    cum = free[ranks].cumsum()
    width = float(cum[-1]) if ranks.size else 0.0
    a = p.balance + offset[0]
    take, floor = a, -np.inf
    if imports.size:
        imp = int(imports[-1])
        before = int(ranks.searchsorted(imp))
        floor = float(cum[before - 1]) if before else 0.0
        take = max(a, floor)
        if np.isinf(take):
            raise NumericalFailure("unbounded: an uncapped consumer outbids "
                                   "an uncapped producer")
    tol = FEAS_TOL * (1.0 + abs(offset[0]))
    if take > width + tol or take < -tol:
        raise InfeasibleLp("row 0: the balance leaves no take")
    # any import prices the root; at a tie, the segment after the import.
    # An import within the running sums' rounding, an ulp of their size per
    # ranked segment, is a tie.
    i, t = cut_at(cum, min(max(take, 0.0), width), "right", tol)
    ulps = ranks.size * np.spacing(abs(offset[0]) + abs(p.balance))
    if floor > a + ulps or i == ranks.size and floor >= width - tol:
        cut = (imp, 0.0)
    elif i == ranks.size:           # at the end: the last segment, if any
        i, t = cut_at(cum, width, "left")
        cut = (int(ranks[i]), t0[ranks[i]] + t) if ranks.size else (m, 0.0)
    else:
        cut = (int(ranks[i]), t0[ranks[i]] + t)
    # going down, each zone's cut is its parent's, held within its own
    cuts = [cut] + [None] * k
    for z in range(1, k + 1):
        cuts[z] = min(max(cuts[up[z]], low[z]), high[z])
    at, part = np.array(cuts).T
    at = at.astype(np.intp)
    rank = np.empty(m, np.intp)
    rank[order] = np.arange(m)
    taken = np.where(rank < at[p.zone], cap, 0.0)
    # the block each zone's cut splits, where it is the zone's own
    rows = np.flatnonzero((at >= 0) & (at < m))
    split = order[at[rows]]
    own = p.zone[split] == rows
    taken[split[own]] = part[rows[own]]
    x = np.where(consumes, taken, cap - taken)
    if imports.size:
        x[order[imp]] = take - a
    net = np.bincount(p.zone, p.signs * x, k + 1).tolist()
    for z in range(k, 0, -1):
        net[up[z]] += net[z]
    return LpSolution(x=np.append(x, np.array(net)[p.child]),
                      objective=float(-(p.signs * p.prices) @ x),
                      row_duals=-np.append(price, price[-1:])[at])
