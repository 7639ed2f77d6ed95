"""The dispatch LP in its zone form (`optim.dispatch_lp`): one balance row
per zone of buses that lines no dispatch within the caps can load join, and
one flow column per loadable line. Its arrays, laid out as an LpProblem by
`helpers.zone_lp_problem`, are checked against a zone map built here by
walking each bus's root path. The recursion that solves it (`optim.solve_lp`)
is checked by an optimality certificate (`helpers.certify`), and its optimum,
its prices and the markets built on it against the PTDF twin
(`helpers.ptdf_dispatch_lp`) solved by HiGHS (`helpers.solve_lp`).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridmarket import clearing, dlmp
from gridmarket.clearing import MarketInput, clear, curve_blocks, curve_params
from gridmarket.dlmp import DrOffer, InfeasibleBaseline, ScopfInput, solve_dlmp
from gridmarket.network import build_network, line_flows, ptdf
from gridmarket.optim import (
    REACH_TOL, InfeasibleLp, NumericalFailure, dispatch_duals, dispatch_lp,
    solve_lp,
)
from helpers import (
    INF, bench_feeder_inputs, box_flows, case34_inputs, certify, chain,
    deep_feeder, feeder, line_into, lp_matrix, path_sums, ptdf_dispatch_duals,
    ptdf_dispatch_lp, ptdf_entries, random_dispatch, random_radial_network,
    use_ptdf_twin, with_limits, zone_lp_problem,
)
from helpers import solve_lp as highs_solve_lp


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
    zone_lp, zone = dispatch_lp(H, H.positions(buses), signs, prices, caps,
                                balance, f_const)
    problem = zone_lp_problem(zone_lp)
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
    return zone_lp, zone, loadable


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([2, 5, 1000]),
       balance=st.sampled_from([0.0, 3.0, -7.5]))
# the root's take rounds to 2 ulp short of the end of an idle producer's
# segment: the price is that of the segment after it, 0, not the producer's
@example(seed=290209, window=2, balance=0.0)
# the idle import's floor sums to 1 ulp above the root's take: that is
# rounding, so the root prices the consumer after the import, not the import
@example(seed=438, window=2, balance=0.0)
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
        ref = highs_solve_lp(twin)
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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), window=st.sampled_from([2, 5, 1000]),
       balance=st.sampled_from([0.0, 3.0, -7.5]),
       root=st.sampled_from(["import+export", "import", "export", "neither"]),
       huge=st.sampled_from([None, 1e25, 1e308]))
# the balance falls where the import ranks, with nothing ranked after it
# (seed 8) or only the export (seed 720): the import's price, or the
# export's, must price the root
@example(seed=8, window=1000, balance=0.0, root="import", huge=None)
@example(seed=720, window=5, balance=0.0, root="import+export", huge=None)
def test_the_recursion_meets_an_optimality_certificate(seed, window, balance,
                                                       root, huge):
    """On random radial dispatches in the style of `random_dispatch`, some
    of them deep, with unlimited lines, constant flows, the root's uncapped
    import and unpaid export or only one or neither of them, and with
    `huge`, some limits of 1e25 or 1e308 kW under constant flows of 0.9 of
    them, which overflow the PTDF twin's row sides and which no block can
    load: solve_lp's blocks, flows and zone prices meet the KKT conditions
    within 1e-9 (`helpers.certify`), its objective is the PTDF twin's in
    HiGHS within 1e-9 relative, and it raises InfeasibleLp exactly when the
    twin does."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 25))
    net = random_radial_network(rng, n)
    if window < n:                      # each parent among the last few
        net = build_network(net.buses, [
            (lid, int(rng.integers(max(0, v - window), v)), v, lim)
            for lid, _, v, lim in net.lines])
    net, buses, signs, prices, caps, f_const = random_dispatch(rng, net)
    if huge:
        net = with_limits(net, {lid: huge if rng.random() < 0.3 else lim
                                for lid, lim in net.line_limits().items()})
        f_const = np.where(ptdf(net).limits == huge, rng.choice(
            [-0.9, 0.9], f_const.size) * huge, f_const)
    keep = {"import+export": [0, 1], "import": [0], "export": [1],
            "neither": []}[root] + list(range(2, len(buses)))
    buses = [buses[j] for j in keep]
    signs, prices, caps = signs[keep], prices[keep], caps[keep]
    H = ptdf(net)
    problem, _ = dispatch_lp(H, H.positions(buses), signs, prices, caps,
                             balance, f_const)
    twin = ptdf_dispatch_lp(H, H.positions(buses), signs, prices, caps,
                            balance, f_const)
    try:
        ref = highs_solve_lp(twin)
    except InfeasibleLp:
        with pytest.raises(InfeasibleLp):
            solve_lp(problem)
        return
    got = solve_lp(problem)
    certify(problem, got)
    assert abs(got.objective - ref.objective) <= 1e-9 * max(
        1.0, abs(ref.objective))


def test_a_contracted_line_has_no_column_and_no_price():
    """Line b can carry all the blocks behind it, so bus 2 joins the root
    zone: one row, no flow column, and b's prices are exactly 0; with a
    limit the consumer can reach, b gets a row, a column and a price."""
    for limit, rows in ((10.0, 1), (4.0, 2)):
        net = chain(limits=(INF, limit))
        H = ptdf(net)
        problem, zone = dispatch_lp(H, H.positions([0, 2]), [-1.0, 1.0],
                                    [1.0, 9.0], [INF, 5.0])
        lp = zone_lp_problem(problem)
        assert lp.row_lo.size == rows and lp.n == 1 + rows
        price, mu_plus, mu_minus = dispatch_duals(solve_lp(problem), H, zone)
        assert price.tolist() == ([1.0] * 3 if rows == 1 else [1.0, 1.0, 9.0])
        assert mu_plus.tolist() == [0.0, 0.0 if rows == 1 else 8.0]
        assert mu_minus.tolist() == [0.0, 0.0]


def test_tied_blocks_are_taken_in_input_order():
    """Blocks tied in price are ranked by block index: of two tied
    consumers the first consumes first, and of two tied producers the first
    withholds first, so the second produces first."""
    H = ptdf(chain())
    # (signs, prices, caps) of three blocks, and the x they solve to
    for blocks, x in (
            (([1, 1, -1], [3, 3, 1], [4, 4, 5]), [4.0, 1.0, 5.0]),
            (([1, -1, -1], [5, 2, 2], [5, 4, 4]), [5.0, 1.0, 4.0])):
        for buses in ([1, 2, 0], [2, 1, 0], [0, 1, 2]):
            problem, _ = dispatch_lp(H, H.positions(buses), *blocks)
            s = solve_lp(problem)
            certify(problem, s)
            assert s.x.tolist() == x


@pytest.mark.parametrize("signs, prices, caps, limit", [
    # line b's hi bound, 0.7 kW plus the producer's 0.1, rounds to 1 ulp
    # short of the end of the consumer's 0.8 kW segment
    ([-1, 1, -1], [5.0, 10.0, 1.0], [INF, 0.8, 0.1], 0.7),
    # its lo bound, the producer's 0.4 kW less 0.3, rounds to 1 ulp past
    # the end of the consumer's 0.1 kW segment
    ([1, 1, -1], [3.0, 10.0, 1.0], [INF, 0.1, 0.4], 0.3)])
def test_a_zone_cut_a_rounding_off_a_segment_end_cuts_at_that_end(
        signs, prices, caps, limit):
    """A zone's line bound within rounding of the end of a segment cuts at
    that end, as it would have unrounded: line b, exactly full, is not
    priced, and bus 2 has the root's price, as in the PTDF twin."""
    H = ptdf(chain(limits=(INF, limit)))
    buses = H.positions([0, 2, 2])
    problem, zone = dispatch_lp(H, buses, signs, prices, caps)
    s = solve_lp(problem)
    certify(problem, s)
    price, mu_plus, mu_minus = dispatch_duals(s, H, zone)
    assert price.tolist() == [prices[0]] * 3
    assert mu_plus.tolist() == mu_minus.tolist() == [0.0, 0.0]
    ref = highs_solve_lp(ptdf_dispatch_lp(H, buses, signs, prices, caps))
    assert ptdf_dispatch_duals(ref, H.limited)[0] == prices[0]


@settings(max_examples=200, deadline=None)
@given(prices=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2,
                       max_size=40),
       data=st.data())
def test_tied_runs_are_taken_in_input_order_like_a_stable_argsort(prices,
                                                                  data):
    """One zone of consumers with prices in {0, 1, 2}, so several tied runs
    of different lengths, caps > 0, and a balance that cuts mid-ranking:
    the fully taken blocks are exactly the leading ones in a stable
    argsort's order of the prices, highest first, and the split block is
    the next one."""
    m = len(prices)
    caps = data.draw(st.lists(st.integers(1, 9), min_size=m, max_size=m))
    k = data.draw(st.integers(0, m - 1))         # the block the cut splits
    rank = np.argsort(-np.array(prices), kind="stable")
    cum = np.cumsum(np.array(caps, float)[rank])
    balance = cum[k] - 0.5
    H = ptdf(chain())
    problem, _ = dispatch_lp(H, H.positions([0] * m), [1] * m, prices, caps,
                             balance)
    x = solve_lp(problem).x
    assert x[rank[:k]].tolist() == np.array(caps)[rank[:k]].tolist()
    assert x[rank[k]] == caps[rank[k]] - 0.5
    assert not x[rank[k + 1:]].any()


@pytest.mark.parametrize("buses, signs, prices, caps, message", [
    # the feeder's import is the only uncapped producer the root prices
    ([1, 1], [-1.0, 1.0], [1.0, 10.0], [INF, 10.0],
     "an uncapped producer outside the root zone"),
    ([0, 0], [1.0, -1.0], [10.0, 5.0], [INF, INF],
     "unbounded: an uncapped consumer outbids an uncapped producer"),
], ids=["producer-off-root", "consumer-outbids"])
def test_an_uncapped_block_the_recursion_cannot_solve_is_refused(
        buses, signs, prices, caps, message):
    H = ptdf(build_network([0, 1], [("a", 0, 1, 5.0)]))
    problem, _ = dispatch_lp(H, H.positions(buses), np.array(signs),
                             np.array(prices), np.array(caps))
    with pytest.raises(NumericalFailure) as e:
        solve_lp(problem)
    assert str(e.value) == message


def test_a_sign_other_than_one_is_refused():
    """The recursion ranks takes of whole kW: a block weighted 0.5 on its
    row, which it would solve wrongly, is refused."""
    H = ptdf(chain())
    problem, _ = dispatch_lp(H, H.positions([0, 2]), [-1.0, 0.5], [1.0, 9.0],
                             [INF, 4.0])
    with pytest.raises(ValueError, match="^signs must be"):
        solve_lp(problem)


def tied_agents(market, segments):
    """Agents one of whose LP block prices equals a block price of another
    agent: where they tie, the recursion and HiGHS may split the quantity
    between them differently at the same welfare."""
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
    twin, and the objectives of their LPs; the zone form's optima are
    certified."""
    with monkeypatch.context() as m:
        if twin:
            use_ptdf_twin(m)
        objectives = []

        def spy(solve):
            def solve_and_keep(p):
                objectives.append(solve(p))
                if not twin:
                    certify(p, objectives[-1])
                return objectives[-1]
            return solve_and_keep

        for module in (clearing, dlmp):
            m.setattr(module, "solve_lp", spy(module.solve_lp))
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
    for zone_lp, zone in laid:
        problem = zone_lp_problem(zone_lp)
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
    problem = zone_lp_problem(*problems)
    assert problem.row_lo.size == 1 and d.binding_lines == []
    assert np.diff(problem.indptr).tolist() == [1] * problem.n
