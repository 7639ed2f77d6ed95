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
arrays at once, with the IEEE operations of `curves`' scalar functions in
the same order, so each value equals theirs bit for bit.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import curves as cv
# `line_flows` is not called here; perfbench's tracer wraps it by this name.
from .network import (  # noqa: F401
    CaseFileError, _bus_id, content_lines, line_flows, ptdf,
)
from .optim import dispatch_lp, solve_lp


# Quantities at or below this many kW do not trade: they are zeroed in the
# dispatch and get no settlement price.
SETTLE_TOL = 1e-9
# A line binds when its flow is within this many kW of its limit: HiGHS'
# default primal feasibility tolerance.
BINDING_TOL = 1e-7


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


@dataclass
class Dispatch:
    quantities: dict          # agent -> kW
    prices: dict              # agent -> cents/kWh (trading agents only)
    sides: dict               # agent -> "supply" | "demand"
    buses: dict               # agent -> bus
    line_flows: dict          # line_id -> kW
    total_surplus: float
    traded: bool = True       # False: no nonzero trade satisfies the limits
    binding_lines: list = field(default_factory=list)

    def to_records(self):
        """JSON-lines records: one per agent plus a summary."""
        recs = []
        for a in sorted(self.quantities, key=str):
            recs.append({
                "agent": a, "bus": self.buses[a], "side": self.sides[a],
                "q_kw": round(self.quantities[a], 9),
                "price_c_per_kwh": round(self.prices.get(a, 0.0), 9),
            })
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
    """(q_min, q_max, endpoint price, slope) of every curve, as four arrays."""
    return np.array([v for c in curves for v in (
        c.q_min, c.q_max, c.endpoint_price(), c.slope)]).reshape(-1, 4).T


def on_curve(params, q):
    """(cv.price_at_extended, cv.integral) of each curve at its entry of q,
    by the same IEEE operations in the same order; a quantity out of
    [0, q_max] by more than DOMAIN_TOL raises QuantityOutOfRange."""
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
    q_min, q_max, p0, slope = params[:, :, None]
    w = (q_max - q_min) / segments
    mid = q_min + (np.arange(segments) + 0.5) * w
    # cv.price_at at every midpoint; midpoints lie inside [q_min, q_max]
    prices = np.hstack([p0, p0 + slope * (mid - q_min)])
    widths = np.hstack([q_min, np.broadcast_to(w, mid.shape)])
    keep = np.hstack([q_min > 0, np.ones(mid.shape, dtype=bool)])
    return widths[keep], prices[keep], keep


def clear(market_input, segments=100):
    """Stage-1 welfare LP + stage-2 price settlement. Returns a Dispatch."""
    net = market_input.network
    bids, offers = market_input.bids, market_input.offers
    agents = bids + offers
    H = ptdf(net)
    limits = net.line_limits()

    # Block variables: demand blocks first, then supply blocks.
    params = curve_params([c for _, _, c in agents])
    widths, block_prices, keep = curve_blocks(params, segments)
    counts = keep.sum(axis=1)
    signs = np.repeat([1.0, -1.0], [len(bids), len(offers)])
    buses = H.positions([b for _, b, _ in agents])
    problem, limited = dispatch_lp(H, limits, np.repeat(buses, counts),
                                   np.repeat(signs, counts), block_prices,
                                   widths)
    # x = 0 is feasible and the caps are finite: the LP has an optimum
    sol = solve_lp(problem)

    # Each agent's row sum over its blocks laid back on the grid is the same
    # float as np.sum over its span of x; np.add.reduceat rounds otherwise.
    x = np.zeros(keep.shape)
    x[keep] = sol.x
    q = np.where(keep[:, 0], x.sum(axis=1), x[:, 1:].sum(axis=1))
    q[q <= SETTLE_TOL] = 0.0
    quantities = dict(zip([a for a, _, _ in agents], q.tolist()))
    sides = {a: c.side for a, _, c in agents}
    agent_bus = {a: b for a, b, _ in agents}

    # np.bincount adds each bus's injections in agent order, from 0.0
    injections = np.bincount(buses, weights=signs * q,
                             minlength=len(net.buses))
    f = H.flows(injections[1:])
    lims = np.array([limits[lid] for lid in H.line_order])
    binding = [H.line_order[i] for i in np.flatnonzero(
        limited & (np.abs(f) >= lims - BINDING_TOL))]

    value = on_curve(params, q)[1].tolist()
    total_surplus = sum(value[:len(bids)]) - sum(value[len(bids):])

    traded = bool((q > SETTLE_TOL).any())
    prices = settle_prices(quantities, market_input) if traded else {}
    return Dispatch(quantities=quantities, prices=prices, sides=sides,
                    buses=agent_bus,
                    line_flows=dict(zip(H.line_order, f.tolist())),
                    total_surplus=total_surplus, traded=traded,
                    binding_lines=binding)


def spread(prices, bounds, quantities, residual):
    """Move prices toward their bounds in place, each in proportion to its
    headroom (bound - price) * q, so that the payment sum(price * q) changes
    by `residual`; nothing moves unless the pooled headroom has its sign."""
    headroom = {a: (bounds[a] - prices[a]) * quantities[a] for a in prices}
    free = sum(headroom.values())
    if free * residual > 0:
        for a in prices:
            prices[a] += residual * (headroom[a] / free) / quantities[a]


def balance_demand_prices(provisional, caps, quantities, target):
    """Scale provisional demand prices so payments hit `target`, for
    positive quantities and caps that can pay it: sum(caps * q) >= target -
    SETTLE_TOL. Prices scaled over their cap are pinned there and the
    residual is spread once over the others' headroom, which is
    sum(caps * q) - target + residual >= residual, so no cap is exceeded.
    A payment of at most SETTLE_TOL has nothing to scale: a target above it
    is spread over caps * q instead, and a dust target changes nothing."""
    prices = dict(provisional)
    payment = sum(prices[a] * quantities[a] for a in provisional)
    if payment <= SETTLE_TOL:
        if target <= SETTLE_TOL:
            return prices
        prices = dict(caps)
        payment = sum(caps[a] * quantities[a] for a in provisional)
    lam = target / payment
    prices = {a: lam * prices[a] for a in provisional}
    over = [a for a in provisional if prices[a] > caps[a] + SETTLE_TOL]
    if over:
        residual = sum((prices[a] - caps[a]) * quantities[a] for a in over)
        for a in over:
            prices[a] = caps[a]
        spread(prices, caps, quantities, residual)
    return prices


def on_curves(agents, quantities):
    """Own-curve prices, average prices integral(q) / q and quantities of
    the agents that trade more than SETTLE_TOL, as three dicts."""
    trading = [(a, c) for a, _, c in agents
               if quantities.get(a, 0.0) > SETTLE_TOL]
    names = [a for a, _ in trading]
    q = np.array([quantities[a] for a in names], dtype=float)
    prices, value = on_curve(curve_params([c for _, c in trading]), q)
    return (dict(zip(names, prices.tolist())),
            dict(zip(names, (value / q).tolist())), dict(zip(names, q.tolist())))


def settle_prices(quantities, market_input):
    """Per-agent settlement prices for fixed stage-1 quantities, by the
    rule in the module docstring.

    Budget rule: total payment equals total revenue to rounding unless both
    the revenue and the consumers' own-curve payment are at most SETTLE_TOL;
    then prices stay on the curves and the two, both dust, need not balance.
    """
    supply_prices, costs, qs = on_curves(market_input.offers, quantities)
    provisional, caps, qd = on_curves(market_input.bids, quantities)
    revenue = sum(supply_prices[a] * qs[a] for a in supply_prices)
    afford = sum(caps[a] * qd[a] for a in caps)
    if afford >= revenue - SETTLE_TOL:
        return {**supply_prices,
                **balance_demand_prices(provisional, caps, qd, revenue)}
    # At the LP optimum each curve's blocks fill in price order, priced at
    # their midpoints (exact for affine curves), so exact consumer value is
    # at least its LP value and exact supplier cost at most its LP cost:
    # afford - sum(costs * q) >= LP welfare >= 0. The suppliers' headroom
    # sum((price - cost) * q) thus covers revenue - afford > SETTLE_TOL, so
    # `spread` divides by a nonzero sum and keeps prices in [cost, price].
    spread(supply_prices, costs, qs, afford - revenue)
    return {**supply_prices, **caps}
