"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report. Every check uses an oracle independent of the code under test
(DFS subtree sums, exhaustive vertex enumeration, lattice search, closed-form
reward algebra, finite differences) or a directly computable invariant.
"""

import os
import time

import numpy as np
import pytest

from gridmarket.agents import BanditState, ucb_select, ucb_update
from gridmarket.clearing import MarketInput, clear, parse_bids
from gridmarket.curves import Curve, DEMAND, SUPPLY
from gridmarket.dlmp import DrOffer, GenOffer, ScopfInput, solve_dlmp
from gridmarket.network import build_network, line_flows, load_case, ptdf
from gridmarket.p2p import P2pConfig, negotiate
from helpers import (
    aggregate_intersection, brute_force_surplus, dual_infeasibility,
    dual_objective, enumerate_lp_optimum, ptdf_entries, random_feasible_lp,
    random_radial_network, solve_lp, subtree_sum_flows,
)

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")
INF = float("inf")


def report(n, text, ok):
    print(f"criterion {n}: {text}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} failed: {text}"


def test_criterion_1_flow_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        net = random_radial_network(rng, n)
        inj = {b: float(rng.normal(0, 10)) for b in range(1, n)}
        got = line_flows(net, inj)
        oracle = subtree_sum_flows(net, inj)
        H = ptdf(net)
        x = np.array([inj.get(b, 0.0) for b in H.bus_order])
        hx = dict(zip(H.line_order, ptdf_entries(H) @ x))
        scale = max(1.0, max(abs(v) for v in oracle.values()))
        for lid in oracle:
            worst = max(worst,
                        abs(got[lid] - oracle[lid]) / scale,
                        abs(got[lid] - hx[lid]) / scale)
    elapsed = time.perf_counter() - t0
    report(1, "line flows match DFS oracle and H*x on 200 random trees "
              f"(worst rel err {worst:.2e}, {elapsed:.2f}s)",
           worst <= 1e-12 and elapsed < 1.0)


def test_criterion_2_lp_vs_enumeration():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_obj, worst_dual, worst_sign = 0.0, 0.0, 0.0
    checked = 0
    while checked < 500:
        p = random_feasible_lp(rng)
        s = solve_lp(p)
        oracle = enumerate_lp_optimum(p)
        assert oracle is not None
        worst_obj = max(worst_obj, abs(s.objective - oracle))
        worst_dual = max(worst_dual, abs(dual_objective(s, p) - s.objective))
        worst_sign = max(worst_sign, dual_infeasibility(s, p))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(2, f"500 random LPs match vertex enumeration (obj err "
              f"{worst_obj:.2e}, duality gap {worst_dual:.2e}, dual "
              f"infeasibility {worst_sign:.2e}, {elapsed:.1f}s)",
           worst_obj <= 1e-8 and worst_dual <= 1e-8 and worst_sign <= 1e-12
           and elapsed < 30.0)


def test_criterion_3_uncongested_uniform_price():
    rng = np.random.default_rng(303)
    segments = 100
    ok = True
    detail = []
    for _ in range(10):
        net = random_radial_network(rng, 6, limit_lo=INF, limit_hi=INF)
        # wide price ranges so every curve crosses p* in its interior
        bids = [(f"d{i}", int(rng.integers(1, 6)),
                 Curve(DEMAND, 9.0 + rng.uniform(0, 1), 0.5,
                       float(rng.uniform(5, 15)), 0.0))
                for i in range(int(rng.integers(2, 5)))]
        offers = [(f"s{i}", int(rng.integers(1, 6)),
                   Curve(SUPPLY, 9.0 + rng.uniform(0, 1), 0.5,
                         float(rng.uniform(5, 15)), 0.0))
                  for i in range(int(rng.integers(2, 5)))]
        d = clear(MarketInput(bids=bids, offers=offers, network=net),
                  segments=segments)
        p_star, _ = aggregate_intersection([c for _, _, c in offers],
                                           [c for _, _, c in bids])
        tol = 2 * max(c.p_max - c.p_min for _, _, c in bids + offers) / segments
        cons = [d.prices[a] for a, _, _ in bids if d.quantities[a] > 1e-9]
        pay = sum(d.prices[a] * d.quantities[a] for a, _, _ in bids)
        rev = sum(d.prices[a] * d.quantities[a] for a, _, _ in offers
                  if d.quantities[a] > 1e-9)
        uniform = max(abs(p - p_star) for p in cons) <= tol
        balanced = abs(pay - rev) <= 1e-9 * max(1.0, abs(rev))
        ok = ok and uniform and balanced
    # flat feeder with slack capacity: every consumer pays exactly 4.3
    net = random_radial_network(rng, 5, limit_lo=INF, limit_hi=INF)
    bids = [(f"c{i}", i + 1, Curve(DEMAND, 100.0, 99.9, 6.0 + i, 0.99 * (6.0 + i)))
            for i in range(4)]
    offers = [("feeder", 0, Curve(SUPPLY, 4.3, 4.3, 500.0, 0.0))]
    d = clear(MarketInput(bids=bids, offers=offers, network=net))
    flat_ok = all(abs(d.prices[a] - 4.3) <= 1e-9 for a, _, _ in bids)
    report(3, "uncongested clearing is uniform at p*, budget-balanced, and a "
              "flat 4.3 feeder yields exactly 4.3 for every consumer",
           ok and flat_ok)


def test_criterion_4_congestion_splits_prices():
    net = load_case(os.path.join(CASES, "case34.txt"))
    with open(os.path.join(CASES, "bids34.txt")) as f:
        bids, offers = parse_bids(f.read())
    d = clear(MarketInput(bids=bids, offers=offers, network=net))
    feeder_price = d.prices["feeder"]
    pocket = [a for a, _, _ in bids if d.buses[a] in (18, 19, 20, 21)]
    others = [a for a, _, _ in bids
              if d.buses[a] not in (18, 19, 20, 21) and d.quantities[a] > 1e-9]
    consumer_prices = sorted({round(d.prices[a], 6) for a in pocket + others})
    split = len(consumer_prices) >= 2
    pocket_above = all(d.prices[a] > feeder_price + 1e-6 for a in pocket)
    congested = "l8_18" in d.binding_lines
    report(4, "34-bus pocket behind the 25 kW line prices above the feeder "
              f"({min(d.prices[a] for a in pocket):.2f} vs {feeder_price:.2f}) "
              "with distinct consumer prices",
           split and pocket_above and congested)


def _elasticity_instance(rng, elastic_fraction):
    net = load_case(os.path.join(CASES, "case34.txt"))
    offers = [("feeder", 0, Curve(SUPPLY, 4.3, 4.3, 500.0, 0.0)),
              ("g19", 19, Curve(SUPPLY, 12.0, 8.0, 10.0, 0.0)),
              ("g28", 28, Curve(SUPPLY, 9.0, 5.0, 40.0, 0.0))]
    buses = [3, 6, 14, 16, 19, 21, 23, 27, 30, 33]
    n_elastic = max(1, round(elastic_fraction * len(buses)))
    elastic_at = set(rng.choice(len(buses), size=n_elastic, replace=False))
    bids = []
    for i, bus in enumerate(buses):
        q = float(rng.uniform(4, 10)) if bus not in (19, 21) else float(
            rng.uniform(18, 25))
        if i in elastic_at:
            bids.append((f"c{bus}", bus, Curve(DEMAND, 30.0, 2.0, q, 0.0)))
        else:
            bids.append((f"c{bus}", bus,
                         Curve(DEMAND, 100.0, 99.9, q, 0.99 * q)))
    return MarketInput(bids=bids, offers=offers, network=net)


def test_criterion_5_elasticity_lowers_average_price():
    rng = np.random.default_rng(505)
    means = {}
    for frac in (0.75, 0.08):
        avgs = []
        for _ in range(20):
            d = clear(_elasticity_instance(rng, frac), segments=50)
            pay = sum(d.prices[a] * d.quantities[a]
                      for a, s in d.sides.items() if s == DEMAND)
            q = sum(d.quantities[a]
                    for a, s in d.sides.items() if s == DEMAND)
            avgs.append(pay / q)
        means[frac] = float(np.mean(avgs))
    report(5, "quantity-weighted average consumer price with 75% elastic "
              f"bidders ({means[0.75]:.3f}) <= with 8% elastic "
              f"({means[0.08]:.3f})",
           means[0.75] <= means[0.08])


def test_criterion_6_clearing_vs_brute_force():
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    segments, points = 100, 200
    ok = True
    for _ in range(50):
        net = random_radial_network(rng, 4, limit_lo=2.0, limit_hi=15.0)
        n_lattice = int(rng.integers(1, 3))   # 1 or 2 agents vs 1 single
        single_supply = bool(rng.integers(0, 2))
        many, single = [], None
        for i in range(n_lattice):
            pmin, pmax = sorted(rng.uniform(0.5, 8.0, 2))
            side = DEMAND if single_supply else SUPPLY
            many.append((f"m{i}", int(rng.integers(1, 4)),
                         Curve(side, pmax + 0.2, pmin,
                               float(rng.uniform(2, 6)), 0.0)))
        pmin, pmax = sorted(rng.uniform(0.5, 8.0, 2))
        sside = SUPPLY if single_supply else DEMAND
        single = ("solo", int(rng.integers(1, 4)),
                  Curve(sside, pmax + 0.2, pmin, float(rng.uniform(3, 10)), 0.0))
        bids = many if single_supply else [single]
        offers = [single] if single_supply else many
        d = clear(MarketInput(bids=bids, offers=offers, network=net),
                  segments=segments)
        oracle = brute_force_surplus(bids, offers, net, points=points)
        slack = sum((c.p_max - c.p_min) * (c.q_max - c.q_min)
                    for _, _, c in bids + offers)
        tol = slack * (1.0 / segments + 1.0 / points) + 1e-6
        ok = ok and abs(d.total_surplus - oracle) <= tol
    elapsed = time.perf_counter() - t0
    report(6, "stage-1 surplus within discretization tolerance of 200-point "
              f"lattice search on 50 instances ({elapsed:.1f}s)",
           ok and elapsed < 60.0)


def test_criterion_7_p2p_reward_algebra():
    rng = np.random.default_rng(707)
    cfg = P2pConfig(c_service=0.5, c_lose=1.0, ub=10.0)
    ok = True
    for b_p, b_c in zip(rng.uniform(0, 10, 10_000), rng.uniform(0, 10, 10_000)):
        out = negotiate(b_p, b_c, cfg)
        if b_p <= b_c:
            ok = ok and out.success \
                and out.r_p + out.r_c == cfg.ub - 2 * cfg.c_service \
                and out.r_p == b_p - cfg.c_service
        else:
            ok = ok and not out.success \
                and out.r_p == -cfg.c_lose and out.r_c == -cfg.c_lose
    report(7, "reward algebra exact on 10^4 random bid pairs", ok)


def _ucb_pair_converges(seed, rounds=5000, window=500, target=0.95):
    cfg = P2pConfig(c_service=0.5, c_lose=1.0, ub=10.0)
    producer = BanditState(arms=[3.0, 4.0, 5.0, 6.0])
    consumer = BanditState(arms=[4.0, 5.0, 6.0, 7.0])
    successes = []
    for _ in range(rounds):
        ip, ic = ucb_select(producer), ucb_select(consumer)
        out = negotiate(producer.arms[ip], consumer.arms[ic], cfg)
        ucb_update(producer, ip, out.r_p)
        ucb_update(consumer, ic, out.r_c)
        successes.append(out.success)
    return sum(successes[-window:]) / window > target


def test_criterion_8_ucb_convergence():
    t0 = time.perf_counter()
    passed = sum(_ucb_pair_converges(s) for s in range(20))
    elapsed = time.perf_counter() - t0
    report(8, f"trailing-500 negotiation success > 0.95 within 5000 rounds on "
              f"{passed}/20 seeds ({elapsed:.1f}s)",
           passed >= 18 and elapsed < 30.0)


def _random_scopf(rng, tight=False):
    n = int(rng.integers(4, 9))
    net = random_radial_network(rng, n, limit_lo=INF, limit_hi=INF)
    lmp = float(rng.uniform(3, 6))
    drs, gens = [], []
    for b in range(1, n):
        base = float(rng.uniform(2, 10))
        # relief blocks cover the whole baseline at prices above the source
        drs.append(DrOffer(bus=b, baseline=base,
                           blocks=[(base / 2, float(rng.uniform(8, 12))),
                                   (base, float(rng.uniform(12, 20)))]))
    if rng.integers(0, 2):
        cap = float(rng.uniform(2, 6))
        gens.append(GenOffer(bus=int(rng.integers(1, n)), p_min=0.0,
                             p_max=cap,
                             blocks=[(cap, float(rng.uniform(7, 11)))]))
    if tight:
        # cap one or two lines below their baseline flow; DR can always
        # restore feasibility since it covers every baseline entirely
        base_inj = {d.bus: d.baseline for d in drs}
        flows = line_flows(net, base_inj)
        lids = [lid for lid, f in flows.items() if f > 1.0]
        if lids:
            picks = rng.choice(len(lids), size=min(2, len(lids)),
                               replace=False)
            f_max = {lids[i]: flows[lids[i]] * float(rng.uniform(0.5, 0.9))
                     for i in np.atleast_1d(picks)}
            net = build_network(net.buses, [
                (lid, u, v, f_max.get(lid, lim))
                for lid, u, v, lim in net.lines])
    return ScopfInput(lmp_source=lmp, gen_offers=gens, dr_offers=drs,
                      network=net)


def _objective_with_extra_load(si, bus, delta):
    drs = list(si.dr_offers) + [DrOffer(bus=bus, baseline=delta, blocks=[])]
    return solve_dlmp(ScopfInput(
        lmp_source=si.lmp_source, gen_offers=si.gen_offers, dr_offers=drs,
        network=si.network)).objective


def test_criterion_9_dlmp_identities():
    rng = np.random.default_rng(909)
    uniform_err = decomp_err = 0.0
    fd_checked = fd_skipped = 0
    fd_worst = 0.0
    for k in range(100):
        tight = k >= 50
        si = _random_scopf(rng, tight=tight)
        res = solve_dlmp(si)
        H = ptdf(si.network)
        E = ptdf_entries(H)
        for i, bus in enumerate(H.bus_order):
            cong = sum(E[r, i] * (res.mu_plus[lid] - res.mu_minus[lid])
                       for r, lid in enumerate(H.line_order))
            decomp_err = max(decomp_err, abs(res.dlmp[bus] - (res.lam + cong)))
        if not tight:
            # uncongested: every DLMP equals the source marginal price
            for bus in si.network.buses:
                uniform_err = max(uniform_err,
                                  abs(res.dlmp[bus] - si.lmp_source))
        else:
            # finite-difference oracle at one random bus, skipping
            # degenerate points where the LP basis changes within epsilon
            bus = int(rng.integers(1, si.network.n_buses))
            eps = 1e-4
            f0 = res.objective
            f1 = _objective_with_extra_load(si, bus, eps)
            f2 = _objective_with_extra_load(si, bus, 2 * eps)
            d1 = (f1 - f0) / eps
            d2 = (f2 - f0) / (2 * eps)
            if abs(d1 - d2) > 1e-6 * max(1.0, abs(d1)):
                fd_skipped += 1
                continue
            fd_checked += 1
            denom = max(1.0, abs(d1))
            fd_worst = max(fd_worst, abs(res.dlmp[bus] - d1) / denom)
    report(9, f"DLMP identities: uncongested uniform (err {uniform_err:.1e}), "
              f"decomposition (err {decomp_err:.1e}), finite differences on "
              f"{fd_checked} non-degenerate congested instances "
              f"(rel err {fd_worst:.1e}, {fd_skipped} degenerate skipped)",
           uniform_err <= 1e-8 and decomp_err <= 1e-8
           and fd_checked >= 30 and fd_worst <= 1e-4)


def test_criterion_10_determinism_and_speed(tmp_path):
    from gridmarket.cli import EXIT_OK, main
    run = ["run", "--config", os.path.join(CASES, "demo_p2p.cfg"),
           "--set", "grid_steps=24", "--set", "market_steps=50"]
    t0 = time.perf_counter()
    logs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(run + ["--out", out]) == EXIT_OK
        with open(os.path.join(out, "episode.jsonl"), "rb") as f:
            logs.append(f.read())
    elapsed = time.perf_counter() - t0
    identical = logs[0] == logs[1]
    report(10, f"two identical runs of a 24x50-step 34-bus episode are "
               f"byte-identical ({elapsed:.1f}s for both)",
           identical and len(logs[0]) > 0 and elapsed < 2 * 10.0)
