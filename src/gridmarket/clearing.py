"""Surplus-maximizing market clearing with radial line limits.

Two stages. Stage 1 discretizes every curve into equal-width quantity
blocks priced at the block-midpoint curve value and solves a welfare LP:
maximize (demand value taken - supply cost incurred) subject to
supply = demand balance, per-block capacities and PTDF line limits.
Block prices are monotone along each curve, so blocks fill in curve order.
Stage 2 settles per-agent prices in one pass that keeps every consumer at or
below its cap, its average value integral(q)/q, and every supplier at or
above its average cost. If the caps can pay the suppliers' own-curve
revenue, suppliers get their own curve price and one multiplier scales the
consumers' own-curve prices to that revenue; those pushed over their cap are
pinned there and the residual goes to the others' headroom. If not,
consumers pay their caps and supplier prices come down toward average cost
until revenue equals that payment. Both stages take all agents' curves as
arrays at once, by the IEEE operations of the scalar test oracle in
`tests/helpers.py`, so each value equals its bit for bit; stage 2 settles
on the own-curve prices and integrals stage 1 computed for its surplus.
"""

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from . import curves as cv
# `line_flows` is not called here; perfbench's tracer wraps it by this name.
from .network import (  # noqa: F401
    CaseFileError, _bus_id, content_lines, line_flows, ptdf,
)
from .optim import SolverResult, dispatch_lp, solve_lp


# Quantities at or below this many kW do not trade: they are zeroed in the
# dispatch and get no settlement price.
SETTLE_TOL = 1e-9
# A line binds when its flow is within this many kW of its limit: the usual
# primal feasibility tolerance of LP solvers.
BINDING_TOL = 1e-7
# blocks per curve: `clear`'s, the clearing market's and the CLI's default
DEFAULT_SEGMENTS = 100
_fields, _side = attrgetter("p_max", "p_min", "q_max", "q_min"), attrgetter("side")


class ClearingError(Exception):
    pass


@dataclass
class MarketInput:
    bids: list        # (agent_id, bus, demand Curve)
    offers: list      # (agent_id, bus, supply Curve)
    network: object

    def __post_init__(self):
        agents = [a for a, _, _ in self.bids] + [a for a, _, _ in self.offers]
        if not agents:
            raise ClearingError("no bids or offers to clear")
        if len(set(agents)) != len(agents):
            raise ClearingError("each agent may appear once")
        buses = set(self.network.buses)
        for a, bus, _ in self.bids + self.offers:
            if bus not in buses:
                raise ClearingError(f"agent {a}: unknown bus {bus}")
        for _, _, c in self.bids:
            if c.side != cv.DEMAND:
                raise ClearingError("bids must carry demand curves")
        for _, _, c in self.offers:
            if c.side != cv.SUPPLY:
                raise ClearingError("offers must carry supply curves")


class Dispatch(SolverResult):
    """A clear's result. Its dicts are built from the clear's arrays on
    first read and then cached: read-only, and shared by the market steps
    that reuse this Dispatch."""

    _attrs = ("quantities", "values", "prices", "sides", "buses",
              "line_flows", "total_surplus", "traded", "binding_lines")

    def __init__(self, names, q, values, trading, settled, curves,
                 agent_buses, line_order, f, total_surplus, traded,
                 binding_lines):
        self._names, self._q, self._v = names, q, values
        self._trading, self._settled = trading, settled
        self._curves, self._buses = curves, agent_buses
        self._line_order, self._f = line_order, f
        self.total_surplus = total_surplus
        self.traded = traded  # False: no nonzero trade satisfies the limits
        self.binding_lines = binding_lines

    @cached_property
    def quantities(self):
        """agent -> kW"""
        return dict(zip(self._names, self._q.tolist()))

    @cached_property
    def values(self):
        """agent -> integral of its curve from 0 to its kW"""
        return dict(zip(self._names, self._v))

    @cached_property
    def prices(self):
        """agent -> cents/kWh (trading agents only)"""
        return dict(zip(map(self._names.__getitem__, self._trading.tolist()),
                        self._settled.tolist()))

    @cached_property
    def sides(self):
        """agent -> 'supply' | 'demand'"""
        return dict(zip(self._names, map(_side, self._curves)))

    @cached_property
    def buses(self):
        """agent -> bus"""
        return dict(zip(self._names, self._buses))

    @cached_property
    def line_flows(self):
        """line_id -> kW"""
        return dict(zip(self._line_order, self._f.tolist()))

    def to_records(self):
        """JSON-lines records: one per agent plus a summary."""
        recs = [{"agent": a, "bus": self.buses[a], "side": self.sides[a],
                 "q_kw": round(self.quantities[a], 9),
                 "price_c_per_kwh": round(self.prices.get(a, 0.0), 9)}
                for a in sorted(self.quantities, key=str)]
        recs.append({
            "summary": True,
            "total_surplus": round(self.total_surplus, 9),
            "traded": self.traded,
            "binding_lines": sorted(self.binding_lines, key=str),
        })
        return recs

    def to_jsonl(self):
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.to_records())


def parse_bids(text):
    """Parse bid/offer records: `bid <agent> <bus> <S|D> <p_max> <p_min>
    <q_max> <q_min>`; `#` starts a comment. Returns (bids, offers)."""
    bids, offers = [], []
    for ln, stripped in content_lines(text.splitlines()):
        tok = stripped.split()
        if tok[0] != "bid" or len(tok) != 8 or tok[3] not in ("S", "D"):
            raise CaseFileError(
                f"line {ln}: expected `bid <agent> <bus> <S|D> "
                "<p_max> <p_min> <q_max> <q_min>`")
        side = cv.SUPPLY if tok[3] == "S" else cv.DEMAND
        try:
            curve = cv.Curve(side, *map(float, tok[4:8]))
        except ValueError:
            raise CaseFileError(f"line {ln}: bad numeric field") from None
        except cv.CurveError as e:
            raise CaseFileError(f"line {ln}: {e}") from None
        (offers if side == cv.SUPPLY else bids).append(
            (tok[1], _bus_id(tok[2]), curve))
    return bids, offers


def curve_params(curves):
    """(q_min, q_max, endpoint price, slope) of every curve, as four arrays,
    computed from its four fields by `Curve.slope`'s IEEE operations."""
    p_max, p_min, q_max, q_min = np.fromiter(chain.from_iterable(map(
        _fields, curves)), float).reshape(-1, 4).T
    demand = np.fromiter(map(cv.DEMAND.__eq__, map(_side, curves)), bool)
    s = (p_max - p_min) / (q_max - q_min)
    return np.array([q_min, q_max, np.where(demand, p_max, p_min),
                     np.where(demand, -s, s)])


def on_curve(params, q):
    """Price and integral from 0 of each extended curve at its entry of q,
    by the IEEE operations of `price_at_extended` and `integral` in
    `tests/helpers.py`, in their order; a quantity out of [0, q_max] by more
    than DOMAIN_TOL raises QuantityOutOfRange."""
    q_min, q_max, p0, slope = params
    out = np.flatnonzero((q < -cv.DOMAIN_TOL) | (q > q_max + cv.DOMAIN_TOL))
    if out.size:
        k = out[0]
        raise cv.QuantityOutOfRange(f"q={q[k]} outside [0, {q_max[k]}]")
    price = np.where(q < q_min, p0, p0 + slope * (np.minimum(q, q_max) - q_min))
    q = np.minimum(np.where(q < 0.0, 0.0, q), q_max)   # keeps -0.0 as max()
    dq = q - q_min
    return price, np.where(q <= q_min, p0 * q,
                           p0 * q_min + p0 * dq + 0.5 * slope * dq * dq)


def curve_blocks(params, segments):
    """(widths, prices, keep) of the blocks covering [0, q_max] of every
    extended curve, given by its `curve_params`. Row k of the grid `keep`
    (curves x segments + 1) is curve k: the endpoint-priced gap [0, q_min],
    kept where q_min > 0, then `segments` equal blocks over [q_min, q_max]
    priced at their midpoints (exact for affine curves); widths and prices
    list the kept blocks."""
    if segments < 1:
        raise ClearingError(f"segments must be >= 1, got {segments}")
    # built segments x curves, so each operation runs along the curves
    q_min, q_max, p0, slope = params
    w = (q_max - q_min) / segments
    mid = q_min + (np.arange(segments) + 0.5)[:, None] * w
    # the curve price at every midpoint, which lies inside [q_min, q_max]
    prices = np.vstack([p0, p0 + slope * (mid - q_min)]).T
    widths = np.vstack([q_min, np.broadcast_to(w, mid.shape)]).T
    keep = np.vstack([q_min > 0, np.ones(mid.shape, dtype=bool)]).T
    return widths[keep], prices[keep], keep


def clear(market_input, segments=DEFAULT_SEGMENTS):
    """Stage-1 welfare LP + stage-2 price settlement. Returns a Dispatch."""
    net = market_input.network
    bids, offers = market_input.bids, market_input.offers
    names, agent_buses, curves = zip(*bids, *offers)
    H = ptdf(net)

    # Block variables: demand blocks first, then supply blocks.
    params = curve_params(curves)
    widths, block_prices, keep = curve_blocks(params, segments)
    counts = keep.sum(axis=1)
    signs = np.repeat([1.0, -1.0], [len(bids), len(offers)])
    buses = H.positions(agent_buses)
    problem, _ = dispatch_lp(H, np.repeat(buses, counts),
                             np.repeat(signs, counts), block_prices, widths)
    # x = 0 is feasible and the caps are finite: the LP has an optimum
    sol = solve_lp(problem)

    # Each agent's row sum over its blocks laid back on the grid is the same
    # float as np.sum over its span of x; np.add.reduceat rounds otherwise.
    x = np.zeros(keep.shape)
    x[keep] = sol.x[:widths.size]
    q = np.where(keep[:, 0], x.sum(axis=1), x[:, 1:].sum(axis=1))
    q[q <= SETTLE_TOL] = 0.0

    # np.bincount adds each bus's injections in agent order, from 0.0
    injections = np.bincount(buses, weights=signs * q,
                             minlength=len(net.buses))
    f = H.flows(injections[1:])
    binding = [H.line_order[i] for i in np.flatnonzero(
        H.limited & (np.abs(f) >= H.limits - BINDING_TOL)).tolist()]

    price, value = on_curve(params, q)
    v = value.tolist()
    total_surplus = sum(v[:len(bids)]) - sum(v[len(bids):])

    # the trading agents, suppliers in offer order, then consumers
    order = np.append(np.arange(len(bids), len(names)), np.arange(len(bids)))
    t = order[q[order] > SETTLE_TOL]
    settled = settle_prices(price[t], value[t] / q[t], q[t],
                            int((t >= len(bids)).sum()))
    return Dispatch(names, q, v, t, settled, curves, agent_buses,
                    H.line_order, f, total_surplus, bool(t.size), binding)


def spread(prices, bounds, q, residual):
    """Move the array `prices` toward `bounds` in place, each in proportion
    to its headroom (bound - price) * q, so that the payment sum(prices * q)
    changes by `residual`; nothing moves unless the pooled headroom has its
    sign."""
    headroom = (bounds - prices) * q
    free = sum(headroom.tolist())
    if free * residual > 0:
        prices += residual * (headroom / free) / q


def balance_demand_prices(prices, caps, q, target):
    """Scale the array of demand prices in place so payments hit `target`,
    for positive quantities and caps that can pay it: sum(caps * q) >=
    target - SETTLE_TOL. Prices scaled over their cap are pinned there and
    the residual is spread once over the others' headroom, which is
    sum(caps * q) - target + residual >= residual, so no cap is exceeded.
    A payment of at most SETTLE_TOL has nothing to scale: a target above it
    is spread over caps * q instead, and a dust target changes nothing."""
    payment = sum((prices * q).tolist())
    if payment <= SETTLE_TOL:
        if target <= SETTLE_TOL:
            return
        prices[:] = caps
        payment = sum((caps * q).tolist())
    prices *= target / payment
    over = prices > caps + SETTLE_TOL
    if over.any():
        residual = sum(((prices - caps) * q)[over].tolist())
        prices[over] = caps[over]
        spread(prices, caps, q, residual)


def settle_prices(price, average, q, n_supply):
    """Settlement prices of the trading agents, by the rule in the module
    docstring, from their own-curve prices, average values integral(q) / q
    and quantities: arrays over the agents, the n_supply suppliers first.
    Returns a new array in that order.

    Budget rule: total payment equals total revenue to rounding unless both
    the revenue and the consumers' own-curve payment are at most SETTLE_TOL;
    then prices stay on the curves and the two, both dust, need not balance.
    """
    prices = price.copy()
    supply, demand = prices[:n_supply], prices[n_supply:]      # views
    costs, caps = average[:n_supply], average[n_supply:]
    qs, qd = q[:n_supply], q[n_supply:]
    revenue = sum((supply * qs).tolist())
    afford = sum((caps * qd).tolist())
    if afford >= revenue - SETTLE_TOL:
        balance_demand_prices(demand, caps, qd, revenue)
        return prices
    # At the LP optimum each curve's blocks fill in price order, priced at
    # their midpoints (exact for affine curves), so exact consumer value is
    # at least its LP value and exact supplier cost at most its LP cost:
    # afford - sum(costs * q) >= LP welfare >= 0. The suppliers' headroom
    # sum((price - cost) * q) thus covers revenue - afford > SETTLE_TOL, so
    # `spread` divides by a nonzero sum and keeps prices in [cost, price].
    spread(supply, costs, qs, afford - revenue)
    demand[:] = caps
    return prices
