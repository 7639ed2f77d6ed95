"""Shared test oracles: independent implementations used to check the
library, deliberately written against different machinery than the code
under test."""

import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass
from importlib import machinery, util
from itertools import combinations

import numpy as np

from gridmarket.agents import PRODUCER, ucb_select, ucb_update
from gridmarket.clearing import MarketInput, clear, parse_bids
from gridmarket.curves import (
    DOMAIN_TOL, Curve, CurveError, DEMAND, QuantityOutOfRange, SUPPLY,
)
from gridmarket.dlmp import (
    DrOffer, GenOffer, ScopfInput, parse_offers, solve_dlmp,
)
from gridmarket.env import ClearingMarket, DlmpMarket, EnvError, P2pMarket
from gridmarket.network import (
    FLOW_TOL, GridState, UnknownBus, build_network, line_flows, load_case, ptdf,
)
from gridmarket.optim import (
    REACH_TOL, InfeasibleLp, LpSolution, NumericalFailure, pin_malloc,
)
from gridmarket.p2p import (
    P2pRoundResult, match, negotiate, settle_deficiency,
)

INF = float("inf")
HERE = os.path.dirname(__file__)


def line_into(network):
    """The id of the line into each non-root bus, read off the lines, which
    run parent -> child."""
    return {v: lid for lid, _, v, _ in network.lines}


def children(network):
    """The set of child buses of every bus, from the parent map."""
    kids = {b: set() for b in network.buses}
    for b, p in network.parent.items():
        kids[p].add(b)
    return kids


def random_radial_network(rng, n_buses, limit_lo=5.0, limit_hi=50.0):
    """Random tree on buses 0..n-1: each bus attaches to a uniformly chosen
    earlier bus."""
    lines = []
    for b in range(1, n_buses):
        parent = int(rng.integers(0, b))
        if np.isinf(limit_lo) or np.isinf(limit_hi):
            lim = float("inf")
        else:
            lim = float(rng.uniform(limit_lo, limit_hi))
        lines.append((f"l{parent}_{b}", parent, b, lim))
    return build_network(list(range(n_buses)), lines)


def box_flows(a, caps, f):
    """The largest and the smallest of f + a.x over 0 <= x <= caps."""
    return (f + sum(v * cap for v, cap in zip(a, caps) if v > 0),
            f + sum(v * cap for v, cap in zip(a, caps) if v < 0))


def with_limits(net, limits):
    """`net` with its lines' limits replaced by `limits`, line id -> kW."""
    return build_network(net.buses, [(lid, u, v, limits[lid])
                                     for lid, u, v, _ in net.lines])


def random_dispatch(rng, net, unlimited=True):
    """Random dispatch LP inputs on `net`, with some lines made unlimited
    unless `unlimited` is False: the network, a priced import and an unpaid
    export at the root, blocks that consume or produce at random buses (the
    root among them) and random constant flows."""
    if unlimited:
        net = with_limits(net, {lid: INF if rng.random() < 0.3 else lim
                                for lid, lim in net.line_limits().items()})
    k = int(rng.integers(1, 40))
    buses = [net.root] * 2 + rng.integers(0, net.n_buses, k).tolist()
    signs = np.append([-1.0, 1.0], rng.choice([-1.0, 1.0], k))
    prices = np.append([rng.uniform(1.0, 10.0), 0.0], rng.uniform(0.0, 20.0, k))
    caps = np.append([INF, INF], rng.uniform(0.5, 30.0, k))
    f_const = ptdf(net).flows(rng.uniform(-1.0, 1.0, net.n_buses)[1:])
    return net, buses, signs, prices, caps, f_const


def feeder_markets(rng, net):
    """A seeded clearing market and SCOPF on `net`, whose buses are 0..n-1:
    260 consumers and 40 suppliers beside a flat 5-cent feeder, several at
    one bus and in no bus order, curves with and without a q_min gap, some
    flat; 40 gens and 200 DR offers, some of them fixed loads and some with
    blocks that overdraw their baseline. Returns (MarketInput, ScopfInput)."""
    n = net.n_buses

    def curve(side, lo, hi):
        p_min = float(rng.uniform(lo, hi))
        p_max = p_min if rng.random() < 0.1 else p_min + float(rng.uniform(0, 8))
        q_min = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.5, 3.0))
        return Curve(side, p_max, p_min, q_min + float(rng.uniform(2, 20)),
                     q_min)

    buses = rng.integers(1, n, size=260).tolist()
    bids = [(f"c{k}", b, curve(DEMAND, 6, 25)) for k, b in enumerate(buses)]
    offers = [("feeder", 0, Curve(SUPPLY, 5.0, 5.0, 1e4, 0.0))] + [
        (f"g{k}", b, curve(SUPPLY, 4, 12))
        for k, b in enumerate(rng.integers(1, n, size=40).tolist())]
    market = MarketInput(bids=bids, offers=offers, network=net)

    gens = []
    for b in rng.integers(0, n, size=40).tolist():
        p_min = 0.0 if rng.random() < 0.7 else float(rng.uniform(0, 2))
        q = float(rng.uniform(5, 30))
        p1 = float(rng.uniform(3, 10))
        gens.append(GenOffer(bus=b, p_min=p_min, p_max=p_min + q,
                             blocks=[(q / 2, p1), (q / 2, p1 + 2.0)]))
    drs = []
    for b in buses[:200]:
        base = float(rng.uniform(0.2, 3.0))
        k = int(rng.integers(0, 4))          # 0: a fixed load
        cut = base * float(rng.uniform(0.3, 0.6))
        drs.append(DrOffer(bus=b, baseline=base,
                           blocks=[(cut, 8.0 + j) for j in range(k)]))
    scopf = ScopfInput(lmp_source=5.0, gen_offers=gens, dr_offers=drs,
                       network=net)
    return market, scopf


def feeder():
    """(MarketInput, ScopfInput) of a seeded 300-bus feeder, a fifth of its
    lines without a limit: `test_golden`'s `GOLDEN`."""
    rng = np.random.default_rng(2024)
    n = 300
    net = random_radial_network(rng, n, limit_lo=20.0, limit_hi=200.0)
    net = build_network(net.buses, [
        (lid, u, v, float("inf") if rng.random() < 0.2 else lim)
        for lid, u, v, lim in net.lines])
    return feeder_markets(rng, net)


def write_bench_feeder(out_dir):
    """The benchmark's 1000-bus feeder, pool instance 0, written into
    `out_dir` by `perfbench/feeder.py`. Returns its files' paths and its
    SCOPF source price."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_feeder", os.path.join(HERE, "..", "perfbench", "feeder.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write(0, str(out_dir))[0], gen.LMP_SOURCE


def case34_inputs():
    """(MarketInput, ScopfInput) of the shipped case34 files."""
    net = load_case(os.path.join(HERE, "..", "cases", "case34.txt"))
    with open(os.path.join(HERE, "..", "cases", "bids34.txt"),
              encoding="utf-8") as f:
        bids, offers = parse_bids(f.read())
    with open(os.path.join(HERE, "..", "cases", "offers34.txt"),
              encoding="utf-8") as f:
        gens, drs = parse_offers(f.read())
    return (MarketInput(bids=bids, offers=offers, network=net),
            ScopfInput(lmp_source=4.3, gen_offers=gens, dr_offers=drs,
                       network=net))


def bench_feeder_inputs(out_dir):
    """(MarketInput, ScopfInput) of the benchmark's 1000-bus feeder, written
    into `out_dir`."""
    paths, lmp_source = write_bench_feeder(out_dir)
    net = load_case(paths["case"])
    with open(paths["bids"], encoding="utf-8") as f:
        bids, offers = parse_bids(f.read())
    with open(paths["offers"], encoding="utf-8") as f:
        gens, drs = parse_offers(f.read())
    return (MarketInput(bids=bids, offers=offers, network=net),
            ScopfInput(lmp_source=lmp_source, gen_offers=gens, dr_offers=drs,
                       network=net))


def deep_feeder(seed, window, n_buses=300):
    """`feeder_markets` on a seeded radial feeder of `n_buses` in which each
    bus's parent is drawn from the `window` buses before it, so a small
    window makes long paths on which loadable lines nest deep. A fifth of
    the lines have no limit, the others 20-200 kW."""
    rng = np.random.default_rng(seed)
    lines = []
    for b in range(1, n_buses):
        parent = int(rng.integers(max(0, b - window), b))
        lim = INF if rng.random() < 0.2 else float(rng.uniform(20.0, 200.0))
        lines.append((f"l{parent}_{b}", parent, b, lim))
    return feeder_markets(rng, build_network(list(range(n_buses)), lines))


def chain(limits=(INF, INF)):
    """Buses 0 - 1 - 2 joined by lines a and b."""
    return build_network([0, 1, 2], [("a", 0, 1, limits[0]),
                                     ("b", 1, 2, limits[1])])


# At a vertex where a line sits exactly at its limit and the offer or bid
# behind it is at a bound too, every mu in an interval is a valid dual. The
# tests pin the one HiGHS returns, so a solver setting or an LP form that
# picks another vertex of the dual face shows there first. The PTDF twin
# returns the low end, mu = 0, on all three; the zone form does on two, and
# on `capped_gen_exporting_at_limit` returns the high end.

def idle_gen_behind_full_line():
    # 5 kW load behind a 5 kW line, and a gen at 10 > lmp_source behind it:
    # any mu_plus[b] in [0, 10 - 4.3] prices this vertex
    return ScopfInput(
        lmp_source=4.3,
        gen_offers=[GenOffer(bus=2, p_min=0.0, p_max=10.0,
                             blocks=[(10.0, 10.0)])],
        dr_offers=[DrOffer(bus=2, baseline=5.0, blocks=[])],
        network=chain(limits=(INF, 5.0)))


def capped_gen_exporting_at_limit():
    # a 10 kW gen at 1 cent covers its 5 kW bus and exports exactly the
    # 5 kW line limit upstream: any mu_minus[b] in [0, 4.3 - 1] prices it
    return ScopfInput(
        lmp_source=4.3,
        gen_offers=[GenOffer(bus=2, p_min=0.0, p_max=10.0,
                             blocks=[(10.0, 1.0)])],
        dr_offers=[DrOffer(bus=1, baseline=10.0, blocks=[]),
                   DrOffer(bus=2, baseline=5.0, blocks=[])],
        network=chain(limits=(INF, 5.0)))


def demand_filling_a_capped_line():
    # c2 wants exactly the 5 kW line b carries, so at 10 segments its last
    # block sits at its cap and line b at its limit at once: any mu_plus[b]
    # in [0, 95.605] prices this vertex. Blocks: c1, c2 (11 each with the
    # q_min gap), feeder, g2 (10 each).
    return MarketInput(
        bids=[("c1", 1, Curve(DEMAND, 100.0, 99.9, 10.0, 9.9)),
              ("c2", 2, Curve(DEMAND, 100.0, 99.9, 5.0, 4.95))],
        offers=[("feeder", 0, Curve(SUPPLY, 4.3, 4.3, 1000.0, 0.0)),
                ("g2", 2, Curve(SUPPLY, 12.0, 8.0, 3.0, 0.0))],
        network=chain(limits=(INF, 5.0)))


# The HiGHS solve `optim.solve_lp` ran before the zone LP was solved by its
# recursion, kept verbatim but for this comment and its malloc pin, now
# `optim.pin_malloc`: the twin's solver, which every equality test of the
# recursion compares against. Problems are minimizations in the one form
# HiGHS' `passModel` takes: min c.x subject to row_lo <= A x <= row_hi and
# lo <= x <= hi, with A held column-wise (CSC) as `indptr`, `indices` and
# `data`; row_duals[i] = d objective / d (active side of row i). It calls
# scipy's HiGHS extension, loaded from its file without scipy.optimize's
# __init__, in HiGHS' dual simplex with presolve off. Each thread has one
# HiGHS object, cleared before each model, and each new object calls
# `optim.pin_malloc`, which pins glibc's malloc thresholds once a process.

# HiGHS reads a cost or bound of this magnitude or more as infinite: its
# options infinite_cost and infinite_bound.
HIGHS_INF = 1e20
_solver = threading.local()


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
        pin_malloc()
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


def zone_lp_problem(z):
    """The LpProblem of a `ZoneLp`, laid out as `optim.dispatch_lp` laid it
    out before the recursion: the blocks, then one flow column per loadable
    line in line order with +1 on its parent zone's row and -1 on its own;
    row 0 balances to `balance`, the other rows to 0."""
    m, k = z.caps.size, z.child.size
    sides = np.append(z.balance, np.zeros(k))
    return LpProblem(
        c=np.append(-z.signs * z.prices, np.zeros(k)),
        lo=np.append(np.zeros(m), z.lo), hi=np.append(z.caps, z.hi),
        indptr=np.append(np.arange(m), m + 2 * np.arange(k + 1)),
        indices=np.append(z.zone, np.column_stack([z.parent, z.child])),
        data=np.append(z.signs, np.tile([1.0, -1.0], k)),
        row_lo=sides, row_hi=sides)


# `optim.dispatch_lp` and `dispatch_duals` in their PTDF form, before the
# LP was contracted to one row per zone, kept verbatim but for their names:
# the twin every zone-form equality test compares against. Rows 2k and
# 2k + 1 cap the k-th finite-limit line; the balance row comes last.
def ptdf_dispatch_lp(H, buses, signs, prices, caps, balance=0.0, f_const=None):
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


def ptdf_dispatch_duals(solution, limited):
    """(lam, mu_plus, mu_minus) of a solved `dispatch_lp` on the PTDF H
    whose `limited` is given: lam = -d objective / d balance, and as arrays
    over H's lines the prices >= 0 of each line's flow limit along and
    against it (0 if none)."""
    y = solution.row_duals
    mu = np.maximum(-y[:-1], 0.0)
    mu_plus, mu_minus = np.zeros((2, limited.size))
    mu_plus[limited], mu_minus[limited] = mu[::2], mu[1::2]
    return -float(y[-1]), mu_plus, mu_minus


def path_sums(H, y):
    """H^T @ y: per-bus sum of the line values y on its root path."""
    return np.bincount(H.path_cols, weights=y[H.path_rows],
                       minlength=len(H.bus_order))


def use_ptdf_twin(monkeypatch):
    """Make `clear` and `solve_dlmp` solve the PTDF form: the LP of
    `ptdf_dispatch_lp`, solved by HiGHS (`solve_lp` here), with the prices
    of `ptdf_dispatch_duals` and each bus's DLMP as lam plus the path sum of
    mu_plus - mu_minus."""
    from gridmarket import clearing, dlmp

    def lp(H, buses, signs, prices, caps, balance=0.0, f_const=None):
        return ptdf_dispatch_lp(H, buses, signs, prices, caps, balance,
                                f_const), None

    def duals(solution, H, _):
        lam, mu_plus, mu_minus = ptdf_dispatch_duals(solution, H.limited)
        return (np.append(lam, lam + path_sums(H, mu_plus - mu_minus)),
                mu_plus, mu_minus)

    for module in (clearing, dlmp):
        monkeypatch.setattr(module, "dispatch_lp", lp)
        monkeypatch.setattr(module, "solve_lp", solve_lp)
    monkeypatch.setattr(dlmp, "dispatch_duals", duals)


def certify(problem, solution, tol=1e-9):
    """Assert that `solution` is an optimum of the ZoneLp `problem`, by the
    KKT conditions within tol (kW relative to the largest value of x and
    the balance, prices relative to each price), with its zone prices
    -row_duals: every balance row and bound met; each block at its cap
    where its reduced cost -sign * (price - its zone's price) is negative,
    at 0 where it is positive; each line whose price step, child zone less
    parent zone, is positive at its upper flow bound, negative at its
    lower."""
    z = problem
    m, k = z.caps.size, z.child.size
    x, f = solution.x[:m], solution.x[m:]
    price = -solution.row_duals
    assert solution.x.shape == (m + k,) and price.shape == (k + 1,)
    assert np.isfinite(solution.x).all() and np.isfinite(price).all()
    kw = tol * (1.0 + np.abs(solution.x).max(initial=0.0) + abs(z.balance))
    rows = (np.bincount(z.zone, z.signs * x, k + 1)
            + np.bincount(z.parent, f, k + 1) - np.bincount(z.child, f, k + 1))
    assert np.abs(rows - np.append(z.balance, np.zeros(k))).max() <= kw
    assert (x >= -kw).all() and (x <= z.caps + kw).all()
    assert (f >= z.lo - kw).all() and (f <= z.hi + kw).all()
    rc = -z.signs * (z.prices - price[z.zone])
    off = tol * (1.0 + np.abs(z.prices))
    assert (np.abs(x - z.caps)[rc < -off] <= kw).all()
    assert (np.abs(x)[rc > off] <= kw).all()
    step = price[z.child] - price[z.parent]
    off = tol * (1.0 + np.abs(price[z.child]))
    assert (np.abs(f - z.hi)[step > off] <= kw).all()
    assert (np.abs(f - z.lo)[step < -off] <= kw).all()
    assert abs(solution.objective + (z.signs * z.prices) @ x) <= tol * (
        1.0 + abs(solution.objective))


def subtree_sum_flows(network, injections):
    """Oracle for line flows: for every line, sum the injections of the
    buses in the child-side subtree, found by DFS over the raw line list."""
    adj = {}
    for lid, u, v, _ in network.lines:
        adj.setdefault(u, []).append((v, lid))
        adj.setdefault(v, []).append((u, lid))

    def subtree(start, blocked_line):
        seen, stack, total = {start}, [start], 0.0
        while stack:
            b = stack.pop()
            total += injections.get(b, 0.0)
            for nb, lid in adj.get(b, []):
                if lid == blocked_line or nb in seen:
                    continue
                seen.add(nb)
                stack.append(nb)
        return total

    flows = {}
    for lid, u, v, _ in network.lines:
        flows[lid] = subtree(v, lid)
    return flows


def random_feasible_lp(rng, n=None, m=None, box=3.0):
    """Random bounded-feasible LP: box bounds plus inequality rows built
    around an interior point."""
    n = n or int(rng.integers(2, 6))
    m = m or int(rng.integers(2, 13))
    c = rng.normal(size=n)
    lo = -box * np.ones(n)
    hi = box * np.ones(n)
    x0 = rng.uniform(-0.5 * box, 0.5 * box, size=n)
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
    return lp_problem(c, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)))


def lp_problem(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None):
    """The LpProblem of an LP in linprog's form: min c.x subject to
    A_ub x <= b_ub, A_eq x = b_eq and (lo, hi) bounds pairs (None: every
    variable in [0, +inf)). Matrices are dense or scipy.sparse; the rows are
    the A_ub rows, then the A_eq rows, and the CSC keeps the nonzeros,
    rows ascending within each column, as linprog hands them to HiGHS."""
    c = np.asarray(c, dtype=float)
    n = c.size
    blocks, row_lo, row_hi = [np.zeros((0, n))], [], []
    for A, b, eq in ((A_ub, b_ub, False), (A_eq, b_eq, True)):
        if A is None:
            continue
        A = A.toarray() if hasattr(A, "toarray") else A
        b = np.asarray(b, dtype=float).ravel()
        blocks.append(np.asarray(A, dtype=float).reshape(b.size, n))
        row_lo.append(b if eq else np.full(b.size, -np.inf))
        row_hi.append(b)
    A = np.concatenate(blocks)
    cols, rows = np.nonzero(A.T)                  # by column, rows ascending
    bounds = np.array([(0.0, np.inf)] * n if bounds is None else bounds,
                      dtype=float).reshape(-1, 2)
    return LpProblem(c=c, lo=bounds[:, 0], hi=bounds[:, 1],
                     indptr=np.append(0, np.cumsum(np.bincount(cols,
                                                               minlength=n))),
                     indices=rows, data=A[rows, cols],
                     row_lo=np.concatenate([np.zeros(0)] + row_lo),
                     row_hi=np.concatenate([np.zeros(0)] + row_hi))


def lp_matrix(problem):
    """Dense constraint matrix of an LpProblem, from its CSC arrays."""
    A = np.zeros((problem.row_lo.size, problem.n))
    cols = np.repeat(np.arange(problem.n), np.diff(problem.indptr))
    A[problem.indices, cols] = problem.data
    return A


def enumerate_lp_optimum(problem, tol=1e-7):
    """Exhaustive vertex enumeration for LPs with finite box bounds.

    Intersects every choice of n active constraints (equalities always
    active), keeps the feasible points and returns the minimum objective.
    """
    n = problem.n
    M = lp_matrix(problem)
    is_eq = problem.row_lo == problem.row_hi
    eq_rows, eq_rhs = list(M[is_eq]), list(problem.row_hi[is_eq])
    cons, rhs = [], []
    for row, lo, hi in zip(M[~is_eq], problem.row_lo[~is_eq],
                           problem.row_hi[~is_eq]):
        if np.isfinite(hi):
            cons.append(row)
            rhs.append(hi)
        if np.isfinite(lo):
            cons.append(-row)
            rhs.append(-lo)
    for j, (lo, hi) in enumerate(zip(problem.lo, problem.hi)):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lo):
            cons.append(-e)
            rhs.append(-lo)
        if np.isfinite(hi):
            cons.append(e)
            rhs.append(hi)
    cons = np.array(cons).reshape(-1, n)
    rhs = np.array(rhs)

    # One (n, n) system per combination: the equality rows, broadcast, on
    # top of the chosen constraint rows (gathered with one index array).
    need = n - len(eq_rows)
    combos = list(combinations(range(len(cons)), need))
    idx = np.array(combos, dtype=int).reshape(len(combos), need)
    E = np.array(eq_rows).reshape(-1, n)
    A = np.concatenate([np.broadcast_to(E, (len(combos),) + E.shape),
                        cons[idx]], axis=1)
    b = np.concatenate([np.broadcast_to(np.array(eq_rhs, dtype=float),
                                        (len(combos), len(eq_rhs))),
                        rhs[idx]], axis=1)
    det = np.abs(np.linalg.det(A))
    ok = det > 1e-9
    if not np.any(ok):
        return None
    x = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    feas = np.all(x @ cons.T <= rhs + tol, axis=1)
    if eq_rows:
        E = np.array(eq_rows)
        feas &= np.all(np.abs(x @ E.T - np.array(eq_rhs)) <= tol, axis=1)
    if not np.any(feas):
        return None
    vals = x[feas] @ problem.c
    return float(np.min(vals))


def vec_integral(curve, q):
    """Vectorized closed-form integral of the extended curve from 0 to q."""
    q = np.asarray(q, dtype=float)
    p0 = endpoint_price(curve)
    below = np.minimum(q, curve.q_min)
    dq = np.maximum(q - curve.q_min, 0.0)
    return p0 * below + p0 * dq + 0.5 * curve.slope * dq * dq


def brute_force_surplus(bids, offers, network, points=200):
    """Exhaustive welfare search on a quantity lattice, for <= 3 agents with
    a single agent on one side (that side balances the lattice side)."""
    if len(offers) == 1:
        lattice_side, single = bids, offers[0]
        single_is_supply = True
    elif len(bids) == 1:
        lattice_side, single = offers, bids[0]
        single_is_supply = False
    else:
        raise ValueError("oracle needs exactly one agent on one side")

    grids = [np.linspace(0.0, c.q_max, points) for _, _, c in lattice_side]
    mesh = np.meshgrid(*grids, indexing="ij")
    qs = [m.ravel() for m in mesh]
    q_single = sum(qs)
    sc = single[2]
    ok = q_single <= sc.q_max + 1e-12

    H = ptdf(network)
    col = {b: i for i, b in enumerate(H.bus_order)}
    limits = network.line_limits()
    inj = np.zeros((len(H.bus_order), q_single.size))
    for (a, bus, c), qv in zip(lattice_side, qs):
        sign = 1.0 if c.side == "demand" else -1.0
        if bus in col:
            inj[col[bus]] += sign * qv
    sbus = single[1]
    ssign = -1.0 if single_is_supply else 1.0
    if sbus in col:
        inj[col[sbus]] += ssign * q_single
    flows = ptdf_entries(H) @ inj
    for r, lid in enumerate(H.line_order):
        if np.isfinite(limits[lid]):
            ok &= np.abs(flows[r]) <= limits[lid] + 1e-9

    welfare = np.zeros(q_single.size)
    for (a, bus, c), qv in zip(lattice_side, qs):
        term = vec_integral(c, qv)
        welfare += term if c.side == "demand" else -term
    sterm = vec_integral(sc, np.minimum(q_single, sc.q_max))
    welfare += -sterm if single_is_supply else sterm
    welfare[~ok] = -np.inf
    return float(np.max(welfare))


@dataclass
class PiecewiseLinear:
    """Convex/concave PWL function through (0, 0), given as (width, slope)
    segments in quantity order."""

    segments: list

    def __call__(self, q):
        total, x = 0.0, q
        for width, slope in self.segments:
            take = min(x, width)
            if take <= 0:
                break
            total += slope * take
            x -= take
        if x > 1e-9:
            # beyond the last breakpoint: extend the final slope
            total += self.segments[-1][1] * x
        return total


def reward_supply(p, q, cost_fn):
    return p * q - cost_fn(q)


def reward_demand(p, q, utility_fn):
    return utility_fn(q) - p * q


def ucb_select_oracle(state):
    """The argmax loop `ucb_select` ran before the bandit kept its indices:
    every index recomputed from `counts` and `means`, a strict `>` so that
    ties break to the lowest arm and a nan index is never taken."""
    best, best_val = 0, -math.inf
    for i in range(len(state.arms)):
        n = state.counts[i]
        v = (math.inf if n == 0
             else state.means[i] + math.sqrt(state.bonus_c / n))
        if v > best_val:
            best, best_val = i, v
    return best


def ucb_select_and_update(state, rewards_feed):
    """Drive the bandit over a reward feed: choose, observe, update.

    `rewards_feed(arm_index) -> reward`. Returns the chosen arm index.
    """
    i = ucb_select(state)
    ucb_update(state, i, rewards_feed(i))
    return i


def ptdf_entries(H):
    """Dense view of a PtdfMatrix's path-indicator matrix."""
    E = np.zeros((len(H.line_order), len(H.bus_order)))
    E[H.path_rows, H.path_cols] = 1.0
    return E


def priced_sides(duals, values, lo, hi):
    """Sum of duals times the bound side each prices: the side nearer its
    value, where a nonbasic variable or row sits (a basic one's dual is 0).
    An infinite side counts 0."""
    side = np.where(np.abs(values - hi) < np.abs(values - lo), hi, lo)
    finite = np.isfinite(side)
    return float(duals[finite] @ side[finite])


def reduced_costs(solution, problem):
    """Reduced costs c - A^T y of an LpSolution's row duals y."""
    return problem.c - lp_matrix(problem).T @ solution.row_duals


def dual_objective(solution, problem):
    """Dual objective of an Optimal LpSolution from its reported row duals
    and the reduced costs they give.

    Equals the primal objective at every Optimal solve (strong duality).
    """
    return (priced_sides(solution.row_duals, lp_matrix(problem) @ solution.x,
                         problem.row_lo, problem.row_hi)
            + priced_sides(reduced_costs(solution, problem), solution.x,
                           problem.lo, problem.hi))


def dual_infeasibility(solution, problem, tol=1e-9):
    """Largest sign violation of an LpSolution's row duals and reduced
    costs (0.0 for an optimality certificate). A dual is d objective / d
    side: >= 0 where only the lower side is active (within tol), <= 0 where
    only the upper one is, 0 where neither is, and free where both are (an
    equality row or a fixed column)."""
    worst = 0.0
    for duals, values, lo, hi in (
            (solution.row_duals, lp_matrix(problem) @ solution.x,
             problem.row_lo, problem.row_hi),
            (reduced_costs(solution, problem), solution.x, problem.lo,
             problem.hi)):
        at_lo = np.isclose(values, lo, rtol=tol, atol=tol)
        at_hi = np.isclose(values, hi, rtol=tol, atol=tol)
        wrong = np.where(at_lo, np.maximum(-duals, 0.0), np.abs(duals))
        wrong = np.where(at_hi, np.maximum(duals, 0.0), wrong)
        worst = max(worst, float(np.where(at_lo & at_hi, 0.0, wrong)
                                 .max(initial=0.0)))
    return worst


class DictGrid:
    """`network.Grid` as it stepped on dicts: an injection per non-root bus,
    the line limits read from the network and feasibility line by line. The
    reference the array `Grid` must match bit for bit."""

    def __init__(self, network):
        self.network = network
        self.limits = network.line_limits()
        self.state = None
        self.reset()

    def reset(self):
        self.state = GridState(
            t=-1,
            injections={b: 0.0 for b in self.network.non_root_buses()},
            flows={lid: 0.0 for lid, _, _, _ in self.network.lines},
            feasible=True,
        )
        return self.state

    def step(self, grid_actions):
        injections = {b: 0.0 for b in self.network.non_root_buses()}
        bus_set = set(self.network.buses)
        for agent_id, (bus, kw) in grid_actions.items():
            if bus not in bus_set:
                raise UnknownBus(f"agent {agent_id}: unknown bus {bus}")
            if bus == self.network.root:
                continue  # feeder exchange is implicit in the root flow
            injections[bus] += kw
        flows = line_flows(self.network, injections)
        feasible = all(abs(flows[lid]) <= self.limits[lid] + FLOW_TOL
                       for lid in flows)
        self.state = GridState(t=self.state.t + 1, injections=injections,
                               flows=flows, feasible=feasible)
        return self.state


def reference_episode(network, market, agents, seed, grid_steps,
                      market_steps):
    """The episode that `Environment(Grid(network), market, agents, seed)`
    runs, by the loop with no cache: a fresh `clear`, `negotiate` or
    `solve_dlmp` on every market step, `DictGrid`'s flows and one
    `json.dumps(sort_keys=True, allow_nan=False)` per record. `market`, a
    stock market, is read only for its kind and its input. Returns the log's
    bytes and the summary rows, as far as the episode got, and the exception
    that stopped it (None when it ran through)."""
    lines, rows = [], []

    def log(record):
        lines.append(json.dumps(record, sort_keys=True, allow_nan=False)
                     + "\n")
    try:
        _reference_loop(network, market, agents, seed, grid_steps,
                        market_steps, log, rows)
    except Exception as e:      # the same type must stop the environment
        return "".join(lines).encode(), rows, e
    return "".join(lines).encode(), rows, None


def _reference_loop(network, market, agents, seed, grid_steps, market_steps,
                    log, rows):
    rng = np.random.default_rng(seed)
    agent_map = {a.id: a for a in agents}
    grid = DictGrid(network)
    for a in agents:
        a.reset()
    for t_grid in range(grid_steps):
        if isinstance(market, P2pMarket):
            roles = [(a.id, a.current_role(t_grid)) for a in agents]
            consumers = [aid for aid, r in roles if r not in (None, PRODUCER)]
            matched = match([aid for aid, r in roles if r == PRODUCER],
                            consumers, rng)
        for t_market in range(market_steps):
            actions = {a.id: a.market_action(t_grid, t_market)
                       for a in agents}
            if isinstance(market, ClearingMarket):
                submitted = [(aid, agent_map[aid].bus, c)
                             for aid, c in actions.items()
                             if isinstance(c, Curve)]
                bids = [s for s in submitted if s[2].side == DEMAND]
                offers = [s for s in submitted if s[2].side != DEMAND]
                result, fields = None, {}
                if bids and offers:
                    result = clear(MarketInput(bids=bids, offers=offers,
                                               network=network))
                    fields = {"dispatch": result.to_records()}
            elif isinstance(market, P2pMarket):
                outcomes, entries = {}, []
                for producer, consumer in sorted(matched.pairs, key=str):
                    b_p, b_c = actions[producer], actions[consumer]
                    for aid, bid in ((producer, b_p), (consumer, b_c)):
                        if not isinstance(bid, (int, float)):
                            raise EnvError(f"agent {aid!r} bids {bid!r}")
                    out = negotiate(b_p, b_c, market.config)
                    outcomes[producer, consumer] = out
                    entries.append({
                        "producer": producer, "consumer": consumer,
                        "b_p": b_p, "b_c": b_c, "success": out.success,
                        "r_p": round(out.r_p, 9), "r_c": round(out.r_c, 9)})
                    agent_map[producer].observe_reward(out.r_p)
                    agent_map[consumer].observe_reward(out.r_c)
                fields = {"negotiations": entries}
            else:
                assert isinstance(market, DlmpMarket)
                result = solve_dlmp(market.scopf_input)
                fields = {"dlmp": {str(b): round(v, 9)
                                   for b, v in result.dlmp.items()}}
            log({"phase": "market_step", "t_grid": t_grid,
                 "t_market": t_market, **fields})

        # the market clears on its last step
        cleared = {}
        if isinstance(market, ClearingMarket):
            for aid, bus, curve in submitted if result is not None else ():
                q = result.quantities[aid]
                p = result.prices.get(aid, 0.0)
                if curve.side == DEMAND:
                    r = result.values[aid] - p * q
                else:
                    r, q = p * q - result.values[aid], -q
                cleared[aid] = bus, q
                agent_map[aid].observe_reward(r)
        elif isinstance(market, P2pMarket):
            q, price = market.config.trade_quantity, market.config.retail_price
            grid_kw, deficiency = {}, {}
            for (producer, consumer), out in outcomes.items():
                delivered = q if out.success else 0.0
                grid_kw[producer], grid_kw[consumer] = -delivered, q
                if charge := settle_deficiency(delivered, q, price):
                    deficiency[consumer] = charge
            for aid in matched.unmatched:
                if aid in consumers:
                    grid_kw[aid] = q
                    deficiency[aid] = settle_deficiency(0.0, q, price)
            result = P2pRoundResult(outcomes, grid_kw, deficiency,
                                    matched.unmatched)
            fields = {"deficiency": {str(k): round(v, 9)
                                     for k, v in deficiency.items()},
                      "successes": sum(o.success for o in outcomes.values())}
            cleared = {a.id: (a.bus, grid_kw[a.id]) for a in agents
                       if a.id in grid_kw}
        else:
            cleared = {f"dso@{bus}": (bus, p_d - p_g)
                       for bus, (p_g, p_d) in result.dispatch.items()
                       if bus != network.root and p_d != p_g}
            fields["objective"] = round(result.objective, 9)
        log({"phase": "clear", "t_grid": t_grid,
             "cleared": result is not None, **fields})

        actions = {k: v for k, v in cleared.items() if k not in agent_map}
        for a in agents:
            action = a.grid_action(t_grid, result)
            if action is None:
                action = cleared.get(a.id)
            if action is not None:
                actions[a.id] = action
        state = grid.step(actions)
        flows = {str(k): round(v, 9) for k, v in state.flows.items()}
        log({"phase": "grid_step", "t_grid": t_grid,
             "feasible": state.feasible, "flows": flows})
        rows.append({"t_grid": t_grid, "feasible": state.feasible,
                     "max_abs_flow": max(map(abs, flows.values()),
                                         default=0.0)})


def state_fingerprint(env, position=None):
    """JSON fingerprint of the environment's grid state and of `position`,
    the `(t_grid, t_market)` its episode last yielded (None before one)."""
    g = env.grid.state
    return json.dumps({
        "t": g.t,
        "injections": {str(k): round(v, 12) for k, v in g.injections.items()},
        "feasible": g.feasible,
        "position": position,
    }, sort_keys=True)


class Recording:
    """Agent mixin that keeps every reward the agent observes in `rewards`,
    emptied by `reset()`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rewards = []

    def reset(self):
        super().reset()
        self.rewards = []

    def observe_reward(self, r):
        super().observe_reward(r)
        self.rewards.append(r)


def to_jsonl(log):
    """An episode log's records as the JSON lines its sink writes."""
    return "\n".join(json.dumps(r, sort_keys=True) for r in log.records)


def moving_average(values, window=200):
    """Trailing means over `window` consecutive values (over all of them when
    fewer), e.g. of `success` or `r_p` along the `negotiations` entries of an
    episode log."""
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        return x
    width = min(window, x.size)
    return np.convolve(x, np.ones(width) / width, mode="valid")


class NoIntersection(CurveError):
    pass


# The scalar curve formulas: `clearing.curve_params` and `on_curve` must
# equal them bit for bit.
def endpoint_price(curve):
    """Price at q_min: p_min for supply, p_max for demand."""
    return curve.p_min if curve.side == SUPPLY else curve.p_max


def price_at(curve, q):
    """Curve price at quantity q, q_min <= q <= q_max."""
    if q < curve.q_min - DOMAIN_TOL or q > curve.q_max + DOMAIN_TOL:
        raise QuantityOutOfRange(
            f"q={q} outside [{curve.q_min}, {curve.q_max}]")
    q = min(max(q, curve.q_min), curve.q_max)
    return endpoint_price(curve) + curve.slope * (q - curve.q_min)


def price_at_extended(curve, q):
    """price_at extended to [0, q_max]: the gap [0, q_min) takes the
    q_min endpoint price."""
    if q < curve.q_min:
        if q < -DOMAIN_TOL:
            raise QuantityOutOfRange(f"q={q} < 0")
        return endpoint_price(curve)
    return price_at(curve, q)


def integral(curve, q):
    """Closed-form integral of the extended curve from 0 to q."""
    if q < -DOMAIN_TOL or q > curve.q_max + DOMAIN_TOL:
        raise QuantityOutOfRange(f"q={q} outside [0, {curve.q_max}]")
    q = min(max(q, 0.0), curve.q_max)
    p0 = endpoint_price(curve)
    if q <= curve.q_min:
        return p0 * q
    dq = q - curve.q_min
    return p0 * curve.q_min + p0 * dq + 0.5 * curve.slope * dq * dq


def surplus(curve, q, p):
    """Surplus at dispatch (q, p): value minus payment for demand, revenue
    minus cost for supply."""
    if curve.side == DEMAND:
        return integral(curve, q) - p * q
    return p * q - integral(curve, q)


def quantity_at_price(curve, p):
    """Quantity the curve trades at price p over the admissible set
    {0} u [q_min, q_max].

    Outside the curve's price range the unfavourable side trades nothing:
    a supplier offers 0 below p_min, a consumer asks 0 above p_max. Flat
    curves (p_max == p_min) are step functions at the flat level.
    """
    if curve.side == SUPPLY:
        if p < curve.p_min:
            return 0.0
        if curve.p_max == curve.p_min or p >= curve.p_max:
            return curve.q_max
    else:
        if p > curve.p_max:
            return 0.0
        if curve.p_max == curve.p_min or p <= curve.p_min:
            return curve.q_max
    q = curve.q_min + (p - endpoint_price(curve)) / curve.slope
    return min(max(q, curve.q_min), curve.q_max)


def aggregate_intersection(supplies, demands, tol=1e-10, iters=200):
    """Price/quantity where horizontally-summed supply meets summed demand.

    Bisection on price over the union of curve price ranges; the excess-supply
    function is non-decreasing in price. Raises NoIntersection when the
    aggregates never cross within range.
    """
    if not supplies or not demands:
        raise NoIntersection("need at least one supply and one demand curve")

    def excess(p):
        qs = sum(quantity_at_price(c, p) for c in supplies)
        qd = sum(quantity_at_price(c, p) for c in demands)
        return qs - qd

    lo = min(c.p_min for c in supplies + demands)
    hi = max(c.p_max for c in supplies + demands)
    e_lo, e_hi = excess(lo), excess(hi)
    if e_lo > tol or e_hi < -tol:
        raise NoIntersection(
            f"aggregate curves do not cross in price range [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    p_star = 0.5 * (lo + hi)
    # Evaluate supply on the high side and demand on the low side of the
    # bracket so step discontinuities (flat curves) land on the traded branch.
    q_star = min(sum(quantity_at_price(c, hi) for c in supplies),
                 sum(quantity_at_price(c, lo) for c in demands))
    if q_star <= tol:
        raise NoIntersection("aggregate curves only meet at zero trade")
    return p_star, q_star


def run_probe(tmp_path, source, *argv):
    """Runs `source` in a fresh interpreter that imports from src/ and
    tests/; returns its last stdout line, after checking that it exited 0."""
    tests = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(tests, "..", "src"), tests,
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", source, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return (proc.stdout.splitlines() or [""])[-1]
