import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gridmarket.clearing as clearing
from gridmarket.clearing import (
    SETTLE_TOL, ClearingError, MarketInput,
    balance_demand_prices, clear, curve_blocks, curve_params, parse_bids,
    settle_prices,
)
from gridmarket.curves import Curve, DEMAND, SUPPLY
from gridmarket.network import build_network
from gridmarket.optim import LpSolution
from helpers import (
    INF, aggregate_intersection, brute_force_surplus, certify, chain,
    demand_filling_a_capped_line, endpoint_price, integral, price_at,
    price_at_extended, random_radial_network, reduced_costs, surplus,
    use_ptdf_twin, zone_lp_problem,
)
from helpers import solve_lp as highs_solve_lp


def pair_input(net=None):
    net = net or chain()
    return MarketInput(
        bids=[("d1", 2, Curve(DEMAND, 3.0, 1.0, 10.0, 0.0))],
        offers=[("s1", 1, Curve(SUPPLY, 3.0, 1.0, 10.0, 0.0))],
        network=net)


def settle(quantities, market_input):
    """settle_prices on the agents of `quantities` that trade, suppliers
    first, from the scalar curve functions; as a dict by agent."""
    trading = [(a, c) for a, _, c in market_input.offers + market_input.bids
               if quantities[a] > SETTLE_TOL]
    q = [quantities[a] for a, _ in trading]
    prices = settle_prices(
        np.array([price_at_extended(c, x) for (_, c), x in zip(trading, q)]),
        np.array([integral(c, x) / x for (_, c), x in zip(trading, q)]),
        np.array(q), sum(c.side == SUPPLY for _, c in trading))
    return dict(zip([a for a, _ in trading], prices.tolist()))


def test_single_pair_matches_intersection():
    segments = 100
    d = clear(pair_input(), segments=segments)
    p_star, q_star = aggregate_intersection(
        [Curve(SUPPLY, 3.0, 1.0, 10.0, 0.0)],
        [Curve(DEMAND, 3.0, 1.0, 10.0, 0.0)])
    tol = 2 * (3.0 - 1.0) / segments
    assert d.quantities["d1"] == pytest.approx(q_star, abs=10 * tol)
    assert d.prices["d1"] == pytest.approx(p_star, abs=tol)
    assert d.prices["s1"] == pytest.approx(p_star, abs=tol)


def test_quantity_at_the_settlement_tolerance_does_not_trade(monkeypatch):
    # d2 values energy below every offer, so stage 1 leaves it at 0 kW; the
    # stubbed solve then hands its first block exactly 1e-9 kW
    segments = 10
    market = MarketInput(
        bids=[("d1", 2, Curve(DEMAND, 3.0, 1.0, 10.0, 0.0)),
              ("d2", 2, Curve(DEMAND, 0.5, 0.2, 10.0, 0.0))],
        offers=[("s1", 1, Curve(SUPPLY, 3.0, 1.0, 10.0, 0.0))],
        network=chain())
    solve = clearing.solve_lp

    def stub(problem):
        sol = solve(problem)
        assert np.sum(sol.x[segments:2 * segments]) == 0.0
        sol.x[segments] = 1e-9
        assert np.sum(sol.x[segments:2 * segments]) == 1e-9
        return sol

    monkeypatch.setattr(clearing, "solve_lp", stub)
    d = clear(market, segments=segments)
    # every agent with a quantity has a price, and no other agent has one
    assert {a for a, q in d.quantities.items() if q > 0} == set(d.prices)
    assert d.quantities["d2"] == 0.0 and d.quantities["d1"] > 1.0


def test_budget_balance():
    d = clear(pair_input())
    pay = d.prices["d1"] * d.quantities["d1"]
    rev = d.prices["s1"] * d.quantities["s1"]
    assert pay == pytest.approx(rev, rel=1e-9)


@st.composite
def random_markets(draw):
    """A random tree on 2..12 buses with finite and infinite line limits,
    and 2..6 affine bids and as many offers at random buses."""
    n = draw(st.integers(2, 12))
    limit = st.one_of(st.just(INF), st.floats(0.5, 200.0))
    lines = [(f"l{b}", draw(st.integers(0, b - 1)), b, draw(limit))
             for b in range(1, n)]
    net = build_network(list(range(n)), lines)

    def curves(side, prefix):
        out = []
        for k in range(draw(st.integers(2, 6))):
            p_min = draw(st.floats(0.0, 30.0))
            q_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
            curve = Curve(side, p_max=p_min + draw(st.floats(0.0, 30.0)),
                          p_min=p_min, q_max=q_min + draw(st.floats(0.1, 100.0)),
                          q_min=q_min)
            out.append((f"{prefix}{k}", draw(st.integers(0, n - 1)), curve))
        return out
    segments = draw(st.sampled_from([1, 7, 100]))
    return MarketInput(bids=curves(DEMAND, "d"), offers=curves(SUPPLY, "s"),
                       network=net), segments


def dust_market(supply_price, q):
    """A consumer that values its last kW at 0 takes all q kW (one block,
    valued at its midpoint) from a flat supplier at `supply_price`: revenue
    supply_price * q against a payment of 0."""
    net = build_network([0, 1], [("l1", 0, 1, INF)])
    return MarketInput(
        bids=[("d0", 1, Curve(DEMAND, 5.0, 0.0, q, 0.0))],
        offers=[("s0", 0, Curve(SUPPLY, supply_price, supply_price, 2 * q,
                                0.0))],
        network=net), 1


def coarse_market(segments):
    """A consumer valuing 5 -> 0 c/kWh over 11 kW and a flat supplier at
    1 c/kWh on one bus. At 1 or 2 segments the LP takes all 11 kW, where the
    consumer's own price is 0: revenue 11 against a payment of 0."""
    net = build_network([0, 1], [("l1", 0, 1, INF)])
    bids, offers = parse_bids("bid c 1 D 5 0 11 0\nbid g 1 S 1 1 100 0\n")
    return MarketInput(bids=bids, offers=offers, network=net), segments


def short_caps_market():
    """At 7 segments the LP takes 2.857 kW from s1, whose own price there
    (25.57 c/kWh) is above d0's average value (24.55): the caps cannot pay
    the suppliers' own-curve revenue."""
    net = build_network([0, 1], [("l1", 0, 1, INF)])
    bids, offers = parse_bids("bid d0 1 D 26.25 1.25 21 0\n"
                              "bid s1 1 S 41 23 8 2\n")
    return MarketInput(bids=bids, offers=offers, network=net), 7


@settings(max_examples=200, deadline=None)
@given(random_markets())
@example(dust_market(1e-11, 11.0))     # revenue 1.1e-10 against payment 0
@example(dust_market(4.3e-231, 1.0))   # revenue 4.3e-231 against payment 0
@example(coarse_market(1))             # revenue 11 against payment 0
@example(short_caps_market())          # caps pay less than own-curve revenue
def test_clearing_balances_the_budget(market):
    market_input, segments = market
    d = clear(market_input, segments=segments)
    revenue = sum(d.prices[a] * d.quantities[a] for a in d.prices
                  if d.sides[a] == SUPPLY)
    payment = sum(d.prices[a] * d.quantities[a] for a in d.prices
                  if d.sides[a] == DEMAND)
    # settle_prices' budget rule: balanced to rounding, relative, unless
    # both sides are dust (at most SETTLE_TOL), which need not balance
    if max(revenue, payment) > SETTLE_TOL:
        assert abs(revenue - payment) <= 1e-9 * max(revenue, payment)
    # no consumer pays more than its average value: surplus >= 0; a consumer
    # without a price pays nothing, as in Dispatch.to_records
    for agent, _, curve in market_input.bids:
        q = d.quantities[agent]
        if q > 0:
            assert d.prices.get(agent, 0.0) <= integral(curve, q) / q + 1e-9
    # no supplier is paid less than its cost: profit >= 0
    for agent, _, curve in market_input.offers:
        q = d.quantities[agent]
        if q > 0:
            assert d.prices[agent] * q >= integral(curve, q) - 1e-9


@pytest.mark.parametrize("supply_price,q", [(1e-11, 11.0), (4.3e-231, 1.0)])
def test_dust_budget_stays_unbalanced_on_the_curves(supply_price, q):
    market_input, segments = dust_market(supply_price, q)
    d = clear(market_input, segments=segments)
    assert d.quantities == {"d0": q, "s0": q}
    # both sides at most SETTLE_TOL: no multiplier, own-curve prices
    assert d.prices == {"s0": supply_price, "d0": 0.0}
    assert 0 < supply_price * q <= SETTLE_TOL


@pytest.mark.parametrize("segments", [1, 2])
def test_zero_own_price_payment_is_spread_over_headroom(segments):
    market_input, segments = coarse_market(segments)
    d = clear(market_input, segments=segments)
    assert d.quantities == {"c": 11.0, "g": 11.0}
    # nothing to scale: the revenue of 11 is spread over the consumer's
    # headroom below its cap, integral / q = 2.5
    assert d.prices == {"c": 1.0, "g": 1.0}       # budget balanced
    ((_, _, curve),) = market_input.bids
    cap = integral(curve, 11.0) / 11.0                # average value
    assert cap == 2.5 and d.prices["c"] <= cap


def test_flat_feeder_pins_exact_price():
    net = chain()
    mi = MarketInput(
        bids=[("c1", 1, Curve(DEMAND, 100.0, 99.9, 10.0, 9.9)),
              ("c2", 2, Curve(DEMAND, 100.0, 99.9, 6.0, 5.94))],
        offers=[("feeder", 1, Curve(SUPPLY, 4.3, 4.3, 1000.0, 0.0))],
        network=net)
    d = clear(mi)
    assert d.prices["c1"] == pytest.approx(4.3, abs=1e-9)
    assert d.prices["c2"] == pytest.approx(4.3, abs=1e-9)
    assert d.quantities["c1"] == pytest.approx(10.0)


def test_congestion_splits_prices():
    # pocket at bus 2 behind a 5 kW line; local expensive supply too small,
    # so the pocket consumer is curtailed and pays above the feeder price
    net = chain(limits=(INF, 5.0))
    mi = MarketInput(
        bids=[("c1", 1, Curve(DEMAND, 100.0, 99.9, 10.0, 9.9)),
              ("c2", 2, Curve(DEMAND, 100.0, 99.9, 10.0, 9.9))],
        offers=[("feeder", 0, Curve(SUPPLY, 4.3, 4.3, 1000.0, 0.0)),
                ("g2", 2, Curve(SUPPLY, 12.0, 8.0, 3.0, 0.0))],
        network=net)
    d = clear(mi)
    assert d.quantities["c1"] == pytest.approx(10.0, abs=1e-6)
    assert d.quantities["c2"] == pytest.approx(8.0, abs=0.2)  # 5 import + 3 local
    assert d.prices["c2"] > d.prices["c1"]
    assert "b" in d.binding_lines


def test_line_limit_respected():
    net = chain(limits=(INF, 2.0))
    d = clear(pair_input(net))
    for lid, f in d.line_flows.items():
        assert abs(f) <= net.line_limits()[lid] + 1e-6


def test_no_trade_flag():
    net = chain()
    mi = MarketInput(
        bids=[("d1", 2, Curve(DEMAND, 0.9, 0.1, 5.0, 0.0))],
        offers=[("s1", 1, Curve(SUPPLY, 9.0, 5.0, 5.0, 0.0))],
        network=net)
    d = clear(mi)
    assert not d.traded
    assert all(q == 0.0 for q in d.quantities.values())


def test_dispatch_on_curve_constraints():
    rng = np.random.default_rng(23)
    for _ in range(15):
        net = random_radial_network(rng, 5, limit_lo=3.0, limit_hi=20.0)
        bids, offers = [], []
        for i in range(int(rng.integers(1, 4))):
            pmin, pmax = sorted(rng.uniform(1.0, 8.0, 2))
            bids.append((f"d{i}", int(rng.integers(1, 5)),
                         Curve(DEMAND, pmax + 0.1, pmin, float(rng.uniform(2, 8)), 0.0)))
        for i in range(int(rng.integers(1, 4))):
            pmin, pmax = sorted(rng.uniform(1.0, 8.0, 2))
            offers.append((f"s{i}", int(rng.integers(1, 5)),
                           Curve(SUPPLY, pmax + 0.1, pmin, float(rng.uniform(2, 8)), 0.0)))
        d = clear(MarketInput(bids=bids, offers=offers, network=net),
                  segments=60)
        limits = net.line_limits()
        for lid, f in d.line_flows.items():
            assert abs(f) <= limits[lid] + 1e-6
        # supply settles exactly on-curve; every trading agent keeps a
        # non-negative surplus (demand never pays above its average value)
        for a, bus, c in offers:
            q = d.quantities[a]
            if q > 1e-9:
                assert d.prices[a] == pytest.approx(
                    price_at_extended(c, q), abs=1e-9)
        for a, bus, c in bids:
            q = d.quantities[a]
            if q > 1e-9:
                assert d.prices[a] * q <= integral(c, q) + 1e-6
                assert surplus(c, q, d.prices[a]) >= -1e-6
        # budget balance
        pay = sum(d.prices[a] * d.quantities[a] for a, _, _ in bids
                  if d.quantities[a] > 1e-9)
        rev = sum(d.prices[a] * d.quantities[a] for a, _, _ in offers
                  if d.quantities[a] > 1e-9)
        assert pay == pytest.approx(rev, rel=1e-9, abs=1e-9)


def test_uniform_price_when_uncongested():
    # every curve crosses the clearing price inside its range
    net = chain()
    bids = [("d1", 1, Curve(DEMAND, 8.0, 1.0, 10.0, 0.0)),
            ("d2", 2, Curve(DEMAND, 7.0, 0.5, 12.0, 0.0))]
    offers = [("s1", 1, Curve(SUPPLY, 9.0, 1.0, 10.0, 0.0)),
              ("s2", 2, Curve(SUPPLY, 8.0, 0.8, 12.0, 0.0))]
    segments = 150
    d = clear(MarketInput(bids=bids, offers=offers, network=net),
              segments=segments)
    p_star, _ = aggregate_intersection([c for _, _, c in offers],
                                       [c for _, _, c in bids])
    tol = 2 * max(c.p_max - c.p_min for _, _, c in bids + offers) / segments
    consumer_prices = [d.prices[a] for a, _, _ in bids if d.quantities[a] > 1e-9]
    assert max(consumer_prices) - min(consumer_prices) <= 2 * tol
    for p in consumer_prices:
        assert p == pytest.approx(p_star, abs=2 * tol)


def test_brute_force_small_instance():
    net = chain(limits=(INF, 4.0))
    bids = [("d1", 1, Curve(DEMAND, 6.0, 1.0, 8.0, 0.0)),
            ("d2", 2, Curve(DEMAND, 5.0, 0.5, 6.0, 0.0))]
    offers = [("s1", 1, Curve(SUPPLY, 4.0, 1.0, 12.0, 0.0))]
    d = clear(MarketInput(bids=bids, offers=offers, network=net),
              segments=100)
    oracle = brute_force_surplus(bids, offers, net, points=200)
    tol = sum((c.p_max - c.p_min) * (c.q_max - c.q_min)
              for _, _, c in bids + offers) * (1 / 100 + 1 / 200)
    assert d.total_surplus >= oracle - tol
    assert abs(d.total_surplus - oracle) <= tol


def test_budget_scale_ratio():
    # one multiplier, revenue / payment, scales every demand price
    prices = np.array([9.0, 4.5])
    balance_demand_prices(prices, np.array([100.0, 100.0]),
                          np.array([5.0, 10.0]), 100.0)
    assert prices[0] == pytest.approx(9.0 * 10.0 / 9.0)
    assert prices[1] == pytest.approx(4.5 * 10.0 / 9.0)
    # nothing paid and nothing to pay: prices stay as they are
    prices = np.array([3.0])
    balance_demand_prices(prices, np.array([5.0]), np.array([0.0]), 0.0)
    assert prices.tolist() == [3.0]


def test_zero_payment_spreads_the_target_over_the_caps():
    # nothing to scale: prices proportional to the caps, payment = target
    prices = np.array([0.0, 0.0])
    balance_demand_prices(prices, np.array([4.0, 2.0]), np.array([1.0, 3.0]),
                          5.0)
    assert prices == pytest.approx([2.0, 1.0])
    # c's own price at 11 kW is 0 and its cap 2.5 holds 27.5 in all, short of
    # the suppliers' own-curve revenue 2 * 5.5 + 5 * 5.5 = 38.5: c pays its
    # cap, and g1 and g2 give up the 11 in proportion to their headroom
    # (price - average cost) * q, 5.5 and 8.25
    bids, offers = parse_bids("bid c 1 D 5 0 11 0\nbid g1 1 S 4 0 11 0\n"
                              "bid g2 1 S 8 2 11 0\n")
    market_input = MarketInput(
        bids=bids, offers=offers,
        network=build_network([0, 1], [("l1", 0, 1, INF)]))
    q = {"c": 11.0, "g1": 5.5, "g2": 5.5}
    prices = settle(q, market_input)
    assert prices == pytest.approx({"c": 2.5, "g1": 1.2, "g2": 3.8})
    assert prices["c"] == integral(bids[0][2], 11.0) / 11.0
    for a, _, curve in offers:
        assert (integral(curve, q[a]) / q[a] <= prices[a]
                <= price_at_extended(curve, q[a]))
    assert (prices["g1"] + prices["g2"]) * 5.5 == pytest.approx(27.5,
                                                                rel=1e-12)


def test_settlement_symmetric_pair_identity_scale():
    d = clear(pair_input())
    prices = settle(d.quantities, pair_input())
    assert prices["d1"] == pytest.approx(prices["s1"], rel=1e-9)


def test_residual_shifts_to_consumers_with_headroom():
    # one consumer pinned at its cap: the whole residual lands on the other
    prices = np.array([4.0, 4.0])
    caps = np.array([4.0, 8.0])
    q = np.array([1.0, 1.0])
    target = 10.0   # lam = 1.25 -> a violates its cap
    balance_demand_prices(prices, caps, q, target)
    assert prices[0] == pytest.approx(4.0)
    assert prices[1] == pytest.approx(6.0)
    assert prices @ q == pytest.approx(target)


def test_short_caps_bring_supplier_prices_down_to_balance():
    market_input, segments = short_caps_market()
    d = clear(market_input, segments=segments)
    (_, _, demand), (_, _, supply) = market_input.bids + market_input.offers
    q, qd = d.quantities["s1"], d.quantities["d0"]
    # 20/7 kW each, d0's split block one ulp short of s1's blocks' sum
    assert (qd, q) == (2.857142857142856, 2.857142857142857)
    assert q == pytest.approx(20 / 7)
    # d0 pays its cap; s1 comes down from its own price to the same total
    assert d.prices == {"s1": 24.54931972789115, "d0": 24.54931972789116}
    assert d.prices == settle(d.quantities, market_input)
    assert d.prices["d0"] == integral(demand, qd) / qd
    cost, own = integral(supply, q) / q, price_at_extended(supply, q)
    assert (cost, own) == pytest.approx((23.3857142857, 25.5714285714))
    assert cost < d.prices["s1"] < own
    assert d.prices["s1"] * q == pytest.approx(d.prices["d0"] * qd, rel=1e-15)


def test_parse_bids_roundtrip():
    text = "bid s1 1 S 3 1 10 0\nbid d1 2 D 3 1 10 0\n"
    bids, offers = parse_bids(text)
    assert len(bids) == 1 and len(offers) == 1
    assert bids[0][2].side == DEMAND
    assert offers[0][2].p_max == 3.0


def test_dispatch_jsonl_parses():
    d = clear(pair_input())
    for line in d.to_jsonl().splitlines():
        json.loads(line)


def test_blocks_equal_pointwise_price_at():
    # Reference: per curve, the per-midpoint loop over the scalar price_at,
    # concatenated in curve order.
    rng = np.random.default_rng(61)
    for _ in range(8):
        segments = int(rng.integers(1, 120))
        curves = []
        for k in range(int(rng.integers(1, 12))):
            side = (DEMAND, SUPPLY)[k % 2]
            q_min = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 5.0))
            p_min = float(rng.uniform(0.0, 10.0))
            curves.append(Curve(side, p_min + float(rng.uniform(0.0, 10.0)),
                                p_min, q_min + float(rng.uniform(0.5, 50.0)),
                                q_min))
        ref_w, ref_p, ref_keep = [], [], []
        for curve in curves:
            w = (curve.q_max - curve.q_min) / segments
            if curve.q_min > 0:
                ref_w.append(curve.q_min)
                ref_p.append(endpoint_price(curve))
            ref_w += [w] * segments
            ref_p += [price_at(curve, curve.q_min + (j + 0.5) * w)
                      for j in range(segments)]
            ref_keep.append([curve.q_min > 0] + [True] * segments)
        widths, prices, keep = curve_blocks(curve_params(curves), segments)
        np.testing.assert_array_equal(widths, ref_w)
        np.testing.assert_array_equal(prices, ref_p)
        np.testing.assert_array_equal(keep, ref_keep)


def test_curve_blocks_rejects_fewer_than_one_segment():
    with pytest.raises(ClearingError, match="segments must be >= 1"):
        curve_blocks(curve_params([Curve(DEMAND, 3.0, 1.0, 10.0, 0.0)]), 0)
    with pytest.raises(ClearingError):
        clear(pair_input(), segments=-2)


@pytest.mark.parametrize("segments", [20, 100])
def test_quantities_are_per_span_sums_on_a_feeder_sized_lp(monkeypatch,
                                                           segments):
    # The feeder workload's layout: 1000 buses, 750 curves, half with a
    # q_min gap block. The stubbed solve fills every block to a random
    # fraction, so each agent's sum rounds like a sum of arbitrary floats.
    rng = np.random.default_rng(segments)
    net = random_radial_network(rng, 1000, limit_lo=INF, limit_hi=INF)
    agents = []
    for k in range(750):
        q_min = float(rng.uniform(0.1, 5.0)) if k % 2 else 0.0
        side = DEMAND if k < 650 else SUPPLY
        agents.append((f"a{k}", int(rng.integers(1, 1000)),
                       Curve(side, 30.0, 2.0, q_min + 10.0, q_min)))
    market = MarketInput(bids=agents[:650], offers=agents[650:], network=net)
    solved = []

    def random_fill(problem):
        solved.append(rng.random(problem.caps.size) * problem.caps)
        return LpSolution(x=solved[-1], objective=None, row_duals=None)

    monkeypatch.setattr(clearing, "solve_lp", random_fill)
    monkeypatch.setattr(clearing, "settle_prices", lambda price, *args: price)
    d = clear(market, segments=segments)
    x, = solved
    stop = np.cumsum([segments + (c.q_min > 0) for _, _, c in agents])
    assert stop[-1] == x.size
    for (a, _, _), lo, hi in zip(agents, np.append(0, stop[:-1]), stop):
        assert d.quantities[a] == float(np.sum(x[lo:hi]))


def test_demand_exactly_filling_a_capped_line_pins_its_duals(monkeypatch):
    # Pin the duals and the settlement, first of the zone form, whose rows
    # are the root zone and line b's zone, solved by the recursion and, for
    # its duals, by HiGHS; then of its PTDF twin in HiGHS, whose rows are
    # line b's +row and -row, then the balance row. All price bus 2 at 4.3:
    # line b's price is 0, the low end of its range.
    mi = demand_filling_a_capped_line()
    solved = []
    solve = clearing.solve_lp
    monkeypatch.setattr(clearing, "solve_lp",
                        lambda p: solved.append((p, solve(p))) or solved[-1][1])
    d = clear(mi, segments=10)
    (zone_lp, sol), = solved
    certify(zone_lp, sol)
    assert sol.row_duals.tolist() == [-4.3, -4.3]
    problem = zone_lp_problem(zone_lp)
    assert highs_solve_lp(problem).row_duals.tolist() == [-4.3, -4.3]
    # the consumers' blocks sit at their caps, priced at value - 4.3
    caps = [-95.7] + [-(99.9 + 0.01 * (9.5 - j) - 4.3) for j in range(10)]
    costs = reduced_costs(sol, problem)
    np.testing.assert_allclose(costs[:22], caps * 2, rtol=0, atol=1e-12)
    # the feeder's blocks are free; g2's idle ones cost value + 4.3 more;
    # line b's flow, at its limit, is free too
    assert not costs[22:32].any() and costs[42] == 0.0
    np.testing.assert_allclose(costs[32:42],
                               [8.2 + 0.4 * j - 4.3 for j in range(10)],
                               rtol=0, atol=1e-12)
    assert d.binding_lines == ["b"]
    assert d.quantities == {"c1": 9.999999999999998, "c2": 4.999999999999999,
                            "feeder": 15.0, "g2": 0.0}
    assert d.prices == {"feeder": 4.3, "c1": 4.300000000000001,
                        "c2": 4.300000000000001}
    assert d.total_surplus == 1435.4924999999996

    solved.clear()
    spy = clearing.solve_lp
    use_ptdf_twin(monkeypatch)
    solve = clearing.solve_lp
    monkeypatch.setattr(clearing, "solve_lp", spy)
    d = clear(mi, segments=10)
    (problem, sol), = solved
    assert sol.row_duals.tolist() == [0.0, 0.0, -4.3]
    costs = reduced_costs(sol, problem)
    np.testing.assert_allclose(costs[:22], caps * 2, rtol=0, atol=1e-12)
    assert not costs[22:32].any()
    np.testing.assert_allclose(costs[32:],
                               [8.2 + 0.4 * j - 4.3 for j in range(10)],
                               rtol=0, atol=1e-12)
    assert d.binding_lines == ["b"]
    assert d.quantities == {"c1": 9.999999999999998, "c2": 4.999999999999999,
                            "feeder": 15.000000000000007, "g2": 0.0}
    assert d.prices == {"feeder": 4.3, "c1": 4.3000000000000025,
                        "c2": 4.3000000000000025}
    assert d.total_surplus == 1435.4924999999996
