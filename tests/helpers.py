"""Shared test oracles: independent implementations used to check the
library, deliberately written against different machinery than the code
under test."""

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from gridmarket.agents import ucb_select, ucb_update
from gridmarket.clearing import MarketInput
from gridmarket.curves import Curve, CurveError, DEMAND, SUPPLY, integral
from gridmarket.dlmp import DrOffer, GenOffer, ScopfInput
from gridmarket.network import (
    FLOW_TOL, GridState, UnknownBus, build_network, line_flows,
)
from gridmarket.optim import REACH_TOL, LpProblem

INF = float("inf")


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


def chain(limits=(INF, INF)):
    """Buses 0 - 1 - 2 joined by lines a and b."""
    return build_network([0, 1, 2], [("a", 0, 1, limits[0]),
                                     ("b", 1, 2, limits[1])])


# At a vertex where a line sits exactly at its limit and the offer or bid
# behind it is at a bound too, every mu in an interval is a valid dual. The
# tests pin the one HiGHS returns (the low end, mu = 0), so a solver setting
# that picks another vertex of the dual face shows there first.

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


# `optim.dispatch_lp` as it was before the line layout was cached beside the
# PTDF, kept verbatim but for its name: the oracle that the cached layout
# assembles the same LP, array for array and bit for bit.
def dispatch_lp_twin(H, limits, buses, signs, prices, caps, balance=0.0,
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
    # a side beyond the float range is no limit, as one of 1e20+ is to HiGHS
    with np.errstate(over="ignore"):
        sides = np.column_stack([lims[limited] - f0[limited],
                                 lims[limited] + f0[limited]]).ravel()
    row_hi = np.append(np.minimum(sides, np.finfo(float).max), balance)
    row_lo = np.append(np.full(2 * k, -np.inf), balance)
    problem = LpProblem(c=-signs * prices, lo=np.zeros(len(caps)), hi=caps,
                        indptr=indptr, indices=indices, data=data,
                        row_lo=row_lo, row_hi=row_hi)
    return problem, limited


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
    p0 = curve.endpoint_price()
    below = np.minimum(q, curve.q_min)
    dq = np.maximum(q - curve.q_min, 0.0)
    return p0 * below + p0 * dq + 0.5 * curve.slope * dq * dq


def brute_force_surplus(bids, offers, network, points=200):
    """Exhaustive welfare search on a quantity lattice, for <= 3 agents with
    a single agent on one side (that side balances the lattice side)."""
    from gridmarket.network import ptdf

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


def state_fingerprint(env):
    """JSON fingerprint of the environment's grid state and clock."""
    g = env.grid.state
    return json.dumps({
        "t": g.t,
        "injections": {str(k): round(v, 12) for k, v in g.injections.items()},
        "feasible": g.feasible,
        "clock": list(env.clock),
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
    q = curve.q_min + (p - curve.endpoint_price()) / curve.slope
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
