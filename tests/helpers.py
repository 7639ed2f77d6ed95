"""Shared test oracles: independent implementations used to check the
library, deliberately written against different machinery than the code
under test."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from gridmarket.agents import ucb_select, ucb_update
from gridmarket.network import build_network


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
    from gridmarket.optim import LpProblem

    n = n or int(rng.integers(2, 6))
    m = m or int(rng.integers(2, 13))
    c = rng.normal(size=n)
    lo = -box * np.ones(n)
    hi = box * np.ones(n)
    x0 = rng.uniform(-0.5 * box, 0.5 * box, size=n)
    A = rng.normal(size=(m, n))
    b = A @ x0 + rng.uniform(0.1, 2.0, size=m)
    return LpProblem(c=c, A_ub=A, b_ub=b, bounds=list(zip(lo, hi)))


def enumerate_lp_optimum(problem, tol=1e-7):
    """Exhaustive vertex enumeration for LPs with finite box bounds.

    Intersects every choice of n active constraints (equalities always
    active), keeps the feasible points and returns the minimum objective.
    """
    n = problem.n
    eq_rows = [] if problem.A_eq is None else list(problem.A_eq)
    eq_rhs = [] if problem.A_eq is None else list(problem.b_eq)
    cons, rhs = [], []
    if problem.A_ub is not None:
        for row, b in zip(problem.A_ub, problem.b_ub):
            cons.append(row)
            rhs.append(b)
    for j, (lo, hi) in enumerate(problem.bounds):
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
    flows = H.entries @ inj
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


def ucb_select_and_update(state, rewards_feed):
    """Drive the bandit over a reward feed: choose, observe, update.

    `rewards_feed(arm_index) -> reward`. Returns the chosen arm index.
    """
    i = ucb_select(state)
    ucb_update(state, i, rewards_feed(i))
    return i
