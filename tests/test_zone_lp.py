"""The dispatch LP in its zone form (`optim.dispatch_lp`): one balance row
per zone of buses that lines no dispatch within the caps can load join, and
one flow column per loadable line. Its arrays are checked against a zone map
built here by walking each bus's root path, and its optimum, its prices and
the markets built on it against the PTDF twin (`helpers.ptdf_dispatch_lp`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridmarket import clearing, dlmp
from gridmarket.clearing import MarketInput, clear, curve_blocks, curve_params
from gridmarket.dlmp import DrOffer, InfeasibleBaseline, ScopfInput, solve_dlmp
from gridmarket.network import build_network, line_flows, ptdf
from gridmarket.optim import (
    REACH_TOL, InfeasibleLp, dispatch_duals, dispatch_lp, solve_lp,
)
from helpers import (
    INF, bench_feeder_inputs, box_flows, case34_inputs, chain, deep_feeder,
    feeder, line_into, lp_matrix, path_sums, ptdf_dispatch_duals,
    ptdf_dispatch_lp, ptdf_entries, random_dispatch, random_radial_network,
    use_ptdf_twin,
)


def loadable_lines(net, buses, signs, caps, f_const):
    """Each line's id -> whether the blocks can bring its flow within
    REACH_TOL of its finite limit, by its largest and smallest flow over the
    box 0 <= x <= caps."""
    H = ptdf(net)
    E = ptdf_entries(H)
    col = {b: i for i, b in enumerate(H.bus_order)}
    out = {}
    for r, (lid, _, _, lim) in enumerate(net.lines):
        a = [signs[j] * E[r, col[b]] if b in col else 0.0
             for j, b in enumerate(buses)]
        most, least = box_flows(a, caps, f_const[r])
        near = lim * (1.0 - REACH_TOL) - REACH_TOL
        out[lid] = bool(np.isfinite(lim) and max(most, -least) >= near)
    return out


def zone_map(net, loadable):
    """Each bus -> the child bus of the deepest loadable line on its root
    path (the root if none), found by walking the path from the bus."""
    into = line_into(net)
    heads = {}
    for bus in net.buses:
        b = bus
        while b != net.root and not loadable[into[b]]:
            b = net.parent[b]
        heads[bus] = b
    return heads


def depth(net, bus):
    d = 0
    while bus != net.root:
        bus, d = net.parent[bus], d + 1
    return d


def check_zone_lp(net, buses, signs, prices, caps, balance, f_const):
    """dispatch_lp's arrays against the zone map built by walking paths:
    row 0 for the root zone, then one row per loadable line by depth (and
    line order within a depth), the blocks' one entry each in their bus's
    zone row, the flows' +1 in the parent zone's row and -1 in their own.
    Returns the problem, its bus rows and the loadable map."""
    H = ptdf(net)
    problem, zone = dispatch_lp(H, H.positions(buses), signs, prices, caps,
                                balance, f_const)
    loadable = loadable_lines(net, buses, signs, caps, f_const)
    lines = [(lid, u, v) for lid, u, v, _ in net.lines if loadable[lid]]
    order = sorted(range(len(lines)), key=lambda i: depth(net, lines[i][2]))
    row_of = {net.root: 0}
    row_of.update({lines[i][2]: r + 1 for r, i in enumerate(order)})
    heads = zone_map(net, loadable)
    assert zone.tolist() == [row_of[heads[b]] for b in net.buses]
    k, m = len(lines), len(buses)
    A = np.zeros((1 + k, m + k))
    for j, b in enumerate(buses):
        A[row_of[heads[b]], j] = signs[j]
    for i, (lid, u, v) in enumerate(lines):
        A[row_of[heads[u]], m + i], A[row_of[v], m + i] = 1.0, -1.0
    np.testing.assert_array_equal(lp_matrix(problem), A)
    assert problem.data.size == m + 2 * k         # blocks + 2 x loadable
    assert np.diff(problem.indptr).tolist() == [1] * m + [2] * k
    for j in range(m + k):
        rows = problem.indices[problem.indptr[j]:problem.indptr[j + 1]]
        assert np.all(np.diff(rows) > 0)
    lim = np.array([net.line_limits()[lid] for lid, _, _ in lines])
    f0 = np.array([f_const[H.line_order.index(lid)] for lid, _, _ in lines])
    np.testing.assert_array_equal(problem.lo, np.append(np.zeros(m),
                                                        -lim - f0))
    np.testing.assert_array_equal(problem.hi, np.append(caps, lim - f0))
    np.testing.assert_array_equal(problem.c, np.append(
        -np.asarray(signs) * prices, np.zeros(k)))
    assert problem.row_lo.tolist() == problem.row_hi.tolist() == (
        [balance] + [0.0] * k)
    return problem, zone, loadable


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([2, 5, 1000]),
       balance=st.sampled_from([0.0, 3.0, -7.5]))
def test_zone_lp_matches_the_path_walk_and_the_ptdf_twins_prices(
        seed, window, balance):
    """On random radial markets, some of them deep, the zone LP is laid out
    as the path walk says, and it has the PTDF twin's objective within 1e-9
    relative and each bus's price and each line's mu+ and mu- within 1e-9;
    both are infeasible or neither is."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    net = random_radial_network(rng, n)
    if window < n:                      # each parent among the last few
        net = build_network(net.buses, [
            (lid, int(rng.integers(max(0, v - window), v)), v, lim)
            for lid, _, v, lim in net.lines])
    net, buses, signs, prices, caps, f_const = random_dispatch(rng, net)
    H = ptdf(net)
    problem, zone, _ = check_zone_lp(net, buses, signs, prices, caps, balance,
                                     f_const)
    twin = ptdf_dispatch_lp(H, H.positions(buses), signs, prices, caps,
                            balance, f_const)
    try:
        got = solve_lp(problem)
    except InfeasibleLp:
        got = None
    try:
        ref = solve_lp(twin)
    except InfeasibleLp:
        ref = None
    assert (got is None) == (ref is None)
    if ref is None:
        return
    assert abs(got.objective - ref.objective) <= 1e-9 * max(
        1.0, abs(ref.objective))
    price, mu_plus, mu_minus = dispatch_duals(got, H, zone)
    lam, ref_plus, ref_minus = ptdf_dispatch_duals(ref, H.limited)
    np.testing.assert_allclose(price, np.append(
        lam, lam + path_sums(H, ref_plus - ref_minus)), rtol=0, atol=1e-9)
    np.testing.assert_allclose(mu_plus, ref_plus, rtol=0, atol=1e-9)
    np.testing.assert_allclose(mu_minus, ref_minus, rtol=0, atol=1e-9)


def test_a_contracted_line_has_no_column_and_no_price():
    """Line b can carry all the blocks behind it, so bus 2 joins the root
    zone: one row, no flow column, and b's prices are exactly 0; with a
    limit the consumer can reach, b gets a row, a column and a price."""
    for limit, rows in ((10.0, 1), (4.0, 2)):
        net = chain(limits=(INF, limit))
        H = ptdf(net)
        problem, zone = dispatch_lp(H, H.positions([0, 2]), [-1.0, 1.0],
                                    [1.0, 9.0], [INF, 5.0])
        assert problem.row_lo.size == rows and problem.n == 1 + rows
        price, mu_plus, mu_minus = dispatch_duals(solve_lp(problem), H, zone)
        assert price.tolist() == ([1.0] * 3 if rows == 1 else [1.0, 1.0, 9.0])
        assert mu_plus.tolist() == [0.0, 0.0 if rows == 1 else 8.0]
        assert mu_minus.tolist() == [0.0, 0.0]


def tied_agents(market, segments):
    """Agents one of whose LP block prices equals a block price of another
    agent: where they tie, the vertex HiGHS returns may split the quantity
    between them either way at the same welfare."""
    names = [a for a, _, _ in market.bids + market.offers]
    curves = [c for _, _, c in market.bids + market.offers]
    _, prices, keep = curve_blocks(curve_params(curves), segments)
    owner = np.repeat(np.arange(len(names)), keep.sum(axis=1))
    seen = {}
    for p, a in zip(prices.tolist(), owner.tolist()):
        seen.setdefault(p, set()).add(a)
    return {names[a] for agents in seen.values() if len(agents) > 1
            for a in agents}


def solved(monkeypatch, market, scopf, twin):
    """clear at 20 segments and solve_dlmp, in the zone form or its PTDF
    twin, and the objectives of their LPs."""
    with monkeypatch.context() as m:
        if twin:
            use_ptdf_twin(m)
        objectives = []
        for module in (clearing, dlmp):
            m.setattr(module, "solve_lp", lambda p: (
                objectives.append(solve_lp(p)) or objectives[-1]))
        d, r = clear(market, segments=20), solve_dlmp(scopf)
    return d, r, [s.objective for s in objectives]


def close(a, b, tol=1e-9):
    assert a.keys() == b.keys()
    bad = {k: (a[k], b[k]) for k in a if not abs(a[k] - b[k]) <= tol}
    assert not bad


@pytest.mark.parametrize("inputs", ["golden_feeder", "bench_feeder", "case34",
                                    "deep3", "deep20"])
def test_clear_and_scopf_equal_the_ptdf_twins(inputs, monkeypatch, tmp_path):
    """On test_golden's 300-bus feeder, the benchmark feeder, case34 and two
    deep feeders, the zone form gives what its PTDF twin gives within 1e-9:
    both LP objectives (relative), every DLMP and mu+-, the SCOPF's flows
    and dispatch, the clear's line flows and binding lines, and the
    quantity and price of every agent whose blocks tie with no other
    agent's. Tied agents split the same welfare, so the objective stands
    for them."""
    market, scopf = {
        "golden_feeder": feeder, "case34": case34_inputs,
        "bench_feeder": lambda: bench_feeder_inputs(tmp_path),
        "deep3": lambda: deep_feeder(3, 3),
        "deep20": lambda: deep_feeder(20, 20)}[inputs]()
    d, r, obj = solved(monkeypatch, market, scopf, twin=False)
    d0, r0, obj0 = solved(monkeypatch, market, scopf, twin=True)
    for a, b in zip(obj, obj0):
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))
    for name in ("dlmp", "mu_plus", "mu_minus", "flows"):
        close(getattr(r, name), getattr(r0, name))
    assert r.dispatch.keys() == r0.dispatch.keys()
    for bus, (g, l) in r.dispatch.items():
        assert abs(g - r0.dispatch[bus][0]) <= 1e-9
        assert abs(l - r0.dispatch[bus][1]) <= 1e-9
    assert abs(r.p_source - r0.p_source) <= 1e-9
    assert sorted(d.binding_lines) == sorted(d0.binding_lines)
    tied = tied_agents(market, 20)
    untied = [a for a in d.quantities if a not in tied]
    # the clear's flows differ by what the tied agents' quantities move
    moved = {}
    for a in tied:
        sign = 1.0 if d.sides[a] == "demand" else -1.0
        moved[d.buses[a]] = moved.get(d.buses[a], 0.0) + sign * (
            d.quantities[a] - d0.quantities[a])
    shift = line_flows(market.network, moved)
    close(d.line_flows, {lid: f + shift[lid] for lid, f in
                         d0.line_flows.items()})
    close({a: d.quantities[a] for a in untied},
          {a: d0.quantities[a] for a in untied})
    close({a: d.prices[a] for a in untied if a in d.prices},
          {a: d0.prices[a] for a in untied if a in d0.prices})
    # only case34's round prices tie, across all agents but the feeder
    assert bool(tied) == (inputs == "case34")


@pytest.mark.parametrize("window", [3, 20])
def test_deep_feeders_nest_loadable_lines_and_keep_their_shape(window):
    """On the deep feeders the clear and the SCOPF LPs have one row per
    zone and blocks + 2 x loadable lines nonzeros, loadable lines nest
    several deep on a root path, and a baseline no offer can relieve is
    refused as infeasible, naming the same lines in both forms."""
    market, scopf = deep_feeder(window, window)
    net = market.network
    laid = []
    with pytest.MonkeyPatch.context() as m:
        for module in (clearing, dlmp):
            m.setattr(module, "dispatch_lp", lambda *a, **kw: (
                laid.append(dispatch_lp(*a, **kw)) or laid[-1]))
        clear(market, segments=20)
        solve_dlmp(scopf)
    for problem, zone in laid:
        assert np.unique(zone).tolist() == list(range(problem.row_lo.size))
        k = problem.row_lo.size - 1
        assert problem.data.size == (problem.n - k) + 2 * k
    # a line is loadable where its two buses' zones differ
    zone = dict(zip(net.buses, laid[0][1].tolist()))
    nested = 0
    for bus in net.buses:
        on_path = 0
        while bus != net.root:
            on_path += zone[bus] != zone[net.parent[bus]]
            bus = net.parent[bus]
        nested = max(nested, on_path)
    assert nested >= 3
    deepest = max(net.buses, key=lambda b: depth(net, b))
    overloaded = ScopfInput(
        lmp_source=scopf.lmp_source, gen_offers=scopf.gen_offers,
        dr_offers=scopf.dr_offers + [DrOffer(bus=deepest, baseline=1e4,
                                             blocks=[])],
        network=net)
    named = []
    for twin in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if twin:
                use_ptdf_twin(m)
            with pytest.raises(InfeasibleBaseline) as ei:
                solve_dlmp(overloaded)
            named.append(ei.value.binding_lines)
    assert named[0] == named[1] and len(named[0]) >= 3


def test_a_market_with_every_line_unloadable_is_one_row():
    """case34 with every line limit raised beyond what the blocks can carry
    clears on one row, the balance, with no flow column."""
    market, _ = case34_inputs()
    net = build_network(market.network.buses, [
        (lid, u, v, 1e6) for lid, u, v, _ in market.network.lines])
    problems = []
    solve = clearing.solve_lp
    with pytest.MonkeyPatch.context() as m:
        m.setattr(clearing, "solve_lp",
                  lambda p: problems.append(p) or solve(p))
        d = clear(MarketInput(bids=market.bids, offers=market.offers,
                              network=net), segments=20)
    (problem,) = problems
    assert problem.row_lo.size == 1 and d.binding_lines == []
    assert np.diff(problem.indptr).tolist() == [1] * problem.n
