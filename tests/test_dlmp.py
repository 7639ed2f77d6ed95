import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridmarket.dlmp import (
    DlmpError, DrOffer, GenOffer, InfeasibleBaseline, NonConvexCost,
    ScopfInput, build_scopf, parse_offers, solve_dlmp,
)
from gridmarket.network import build_network
from gridmarket.optim import solve_lp
from helpers import (
    INF, capped_gen_exporting_at_limit, certify, chain, dual_objective,
    idle_gen_behind_full_line, ptdf_entries, random_radial_network,
    use_ptdf_twin, zone_lp_problem,
)


def test_offer_validation():
    with pytest.raises(NonConvexCost):
        GenOffer(bus=1, p_min=0.0, p_max=10.0,
                 blocks=[(5.0, 8.0), (5.0, 6.0)])
    with pytest.raises(DlmpError):
        GenOffer(bus=1, p_min=0.0, p_max=10.0, blocks=[(4.0, 5.0)])
    with pytest.raises(DlmpError):
        DrOffer(bus=1, baseline=-2.0, blocks=[])


def test_uncongested_uniform_price():
    net = chain()
    si = ScopfInput(lmp_source=4.3, gen_offers=[],
                    dr_offers=[DrOffer(bus=2, baseline=10.0, blocks=[])],
                    network=net)
    res = solve_dlmp(si)
    assert res.lam == pytest.approx(4.3, abs=1e-8)
    for bus in net.buses:
        assert res.dlmp[bus] == pytest.approx(4.3, abs=1e-8)
    assert res.p_source == pytest.approx(10.0, abs=1e-8)


def test_congestion_raises_downstream_price():
    # 10 kW fixed load behind a 6 kW line: 4 kW of relief is needed, so the
    # second DR block (18 cents) is marginal and prices the pocket
    net = chain(limits=(INF, 6.0))
    si = ScopfInput(
        lmp_source=4.3, gen_offers=[],
        dr_offers=[DrOffer(bus=2, baseline=10.0,
                           blocks=[(3.0, 15.0), (7.0, 18.0)])],
        network=net)
    res = solve_dlmp(si)
    assert res.dlmp[2] == pytest.approx(18.0, abs=1e-8)  # DR marginal price
    assert res.dlmp[0] == pytest.approx(4.3, abs=1e-8)
    assert res.dlmp[1] == pytest.approx(4.3, abs=1e-8)
    assert res.flows["b"] == pytest.approx(6.0, abs=1e-8)
    assert res.dispatch[2][1] == pytest.approx(6.0, abs=1e-8)  # load after DR
    assert res.mu_plus["b"] > 0


def test_cheap_local_gen_sets_marginal_price():
    net = chain()
    si = ScopfInput(
        lmp_source=4.3,
        gen_offers=[GenOffer(bus=1, p_min=0.0, p_max=50.0,
                             blocks=[(50.0, 2.0)])],
        dr_offers=[DrOffer(bus=2, baseline=10.0, blocks=[])],
        network=net)
    res = solve_dlmp(si)
    assert res.lam == pytest.approx(2.0, abs=1e-8)
    assert res.p_source == pytest.approx(0.0, abs=1e-8)
    assert res.dispatch[1][0] == pytest.approx(10.0, abs=1e-8)


def test_mandatory_generation_floor_respected():
    net = chain()
    si = ScopfInput(
        lmp_source=4.3,
        gen_offers=[GenOffer(bus=2, p_min=4.0, p_max=8.0,
                             blocks=[(4.0, 9.0)])],
        dr_offers=[DrOffer(bus=2, baseline=10.0, blocks=[])],
        network=net)
    res = solve_dlmp(si)
    assert res.dispatch[2][0] >= 4.0 - 1e-9
    # the 9-cent blocks stay off: the feeder at 4.3 covers the rest
    assert res.dispatch[2][0] == pytest.approx(4.0, abs=1e-8)
    assert res.p_source == pytest.approx(6.0, abs=1e-8)


def test_source_import_is_priced_at_lmp_source():
    # uncongested, and DR at 9 cents is dearer than imports at 4.3
    si = ScopfInput(lmp_source=4.3, gen_offers=[],
                    dr_offers=[DrOffer(bus=2, baseline=10.0,
                                       blocks=[(10.0, 9.0)])],
                    network=chain())
    res = solve_dlmp(si)
    assert res.p_source > 0
    assert res.p_source == pytest.approx(10.0, abs=1e-9)
    assert res.lam == pytest.approx(4.3, abs=1e-12)
    assert res.objective == pytest.approx(4.3 * 10.0, abs=1e-9)
    problem, _ = build_scopf(si)
    sol = solve_lp(problem)
    assert sol.x[0] == pytest.approx(10.0, abs=1e-9)   # import
    assert sol.x[1] == 0.0                             # export


def test_source_import_cost_in_objective():
    # 1.5 kW imported at 3 cents contributes 4.5
    si = ScopfInput(lmp_source=3.0, gen_offers=[],
                    dr_offers=[DrOffer(bus=2, baseline=1.5, blocks=[])],
                    network=chain())
    assert solve_dlmp(si).objective == pytest.approx(4.5, abs=1e-12)
    # with 2 kW of 1-cent local generation, 3 kW are imported at 3 cents
    si = ScopfInput(lmp_source=3.0,
                    gen_offers=[GenOffer(bus=1, p_min=0.0, p_max=2.0,
                                         blocks=[(2.0, 1.0)])],
                    dr_offers=[DrOffer(bus=2, baseline=5.0, blocks=[])],
                    network=chain())
    res = solve_dlmp(si)
    assert res.p_source == pytest.approx(3.0, abs=1e-9)
    assert res.objective == pytest.approx(3.0 * 3.0 + 2.0 * 1.0, abs=1e-9)


def test_source_export_is_unpaid():
    # 8 kW of must-run generation behind a 5 kW load: 3 kW flow back to the
    # source, which neither pays nor charges for them
    si = ScopfInput(lmp_source=4.3,
                    gen_offers=[GenOffer(bus=1, p_min=8.0, p_max=12.0,
                                         blocks=[(4.0, 9.0)])],
                    dr_offers=[DrOffer(bus=2, baseline=5.0, blocks=[])],
                    network=chain())
    res = solve_dlmp(si)
    assert res.p_source < 0
    assert res.p_source == pytest.approx(-3.0, abs=1e-9)
    assert res.lam == pytest.approx(0.0, abs=1e-12)
    assert res.objective == pytest.approx(0.0, abs=1e-12)
    problem, _ = build_scopf(si)
    sol = solve_lp(problem)
    assert sol.x[0] == 0.0                             # import
    assert sol.x[1] == pytest.approx(3.0, abs=1e-9)    # export


def test_infeasible_baseline_reports_binding_lines():
    net = chain(limits=(INF, 3.0))
    si = ScopfInput(lmp_source=4.3, gen_offers=[],
                    dr_offers=[DrOffer(bus=2, baseline=10.0, blocks=[])],
                    network=net)
    with pytest.raises(InfeasibleBaseline) as ei:
        solve_dlmp(si)
    assert "b" in ei.value.binding_lines


def test_an_overloaded_baseline_is_named_beside_emptied_rows(monkeypatch):
    """Lines a and b carry more baseline than DR and the gen can relieve;
    line c, which no block can load, is contracted: bus 3 joins line a's
    zone, and in the PTDF twin line c's rows are empty. Either way the SCOPF
    is infeasible and names a and b, in line order."""
    net = build_network([0, 1, 2, 3], [("a", 0, 1, 11.5), ("b", 1, 2, 5.0),
                                       ("c", 1, 3, 100.0)])
    si = ScopfInput(lmp_source=4.3,
                    gen_offers=[GenOffer(bus=3, p_min=0.0, p_max=2.0,
                                         blocks=[(2.0, 1.0)])],
                    dr_offers=[DrOffer(bus=1, baseline=5.0, blocks=[]),
                               DrOffer(bus=2, baseline=10.0,
                                       blocks=[(1.0, 20.0)])],
                    network=net)
    problem, maps = build_scopf(si)
    # rows: the root zone, line a's zone (buses 1 and 3), line b's zone;
    # columns: the import, the export, the gen block, the DR block and the
    # flows of a and b
    assert maps["zone"].tolist() == [0, 1, 2, 1]
    assert zone_lp_problem(problem).indices.tolist() == [0, 0, 1, 2, 0, 1, 1,
                                                         2]
    with pytest.raises(InfeasibleBaseline) as ei:
        solve_dlmp(si)
    assert ei.value.binding_lines == ["a", "b"]
    use_ptdf_twin(monkeypatch)
    problem, _ = build_scopf(si)
    assert np.bincount(problem.indices, minlength=7).tolist()[:6] == [
        2, 0, 1, 0, 0, 0]
    with pytest.raises(InfeasibleBaseline) as ei:
        solve_dlmp(si)
    assert ei.value.binding_lines == ["a", "b"]


def test_decomposition_identity():
    net = chain(limits=(8.0, 6.0))
    si = ScopfInput(
        lmp_source=4.3, gen_offers=[],
        dr_offers=[DrOffer(bus=1, baseline=3.0, blocks=[(3.0, 20.0)]),
                   DrOffer(bus=2, baseline=10.0,
                           blocks=[(3.0, 15.0), (7.0, 18.0)])],
        network=net)
    res = solve_dlmp(si)
    from gridmarket.network import ptdf
    H = ptdf(net)
    E = ptdf_entries(H)
    for i, bus in enumerate(H.bus_order):
        cong = sum(E[r, i] * (res.mu_plus[lid] - res.mu_minus[lid])
                   for r, lid in enumerate(H.line_order))
        assert res.dlmp[bus] == pytest.approx(res.lam + cong, abs=1e-12)


def shifted_load(si, bus, kw):
    """`si` with the load at `bus` raised by kw: a fixed load of kw >= 0, or
    for kw < 0 an unpriced mandatory generation of -kw."""
    gens, drs = list(si.gen_offers), list(si.dr_offers)
    if kw >= 0:
        drs.append(DrOffer(bus=bus, baseline=kw, blocks=[]))
    else:
        gens.append(GenOffer(bus=bus, p_min=-kw, p_max=-kw, blocks=[]))
    return ScopfInput(lmp_source=si.lmp_source, gen_offers=gens,
                      dr_offers=drs, network=si.network)


def finite_difference_dlmp(si, bus, eps=1e-4):
    """Oracle: dlmp_i = d(objective)/d(baseline load at bus i)."""
    up = solve_dlmp(shifted_load(si, bus, eps)).objective
    dn = solve_dlmp(shifted_load(si, bus, 0.0)).objective
    return (up - dn) / eps


def test_dlmp_matches_finite_difference():
    net = chain(limits=(INF, 6.0))
    si = ScopfInput(
        lmp_source=4.3, gen_offers=[],
        dr_offers=[DrOffer(bus=2, baseline=10.0,
                           blocks=[(3.0, 15.0), (7.0, 18.0)])],
        network=net)
    res = solve_dlmp(si)
    for bus in (0, 1, 2):
        fd = finite_difference_dlmp(si, bus)
        assert res.dlmp[bus] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_random_instances_uniform_when_uncongested():
    rng = np.random.default_rng(77)
    for _ in range(10):
        net = random_radial_network(rng, 6, limit_lo=500.0, limit_hi=900.0)
        drs = [DrOffer(bus=b, baseline=float(rng.uniform(1, 8)), blocks=[])
               for b in range(1, 6)]
        res = solve_dlmp(ScopfInput(lmp_source=4.3, gen_offers=[],
                                    dr_offers=drs, network=net))
        for bus in net.buses:
            assert res.dlmp[bus] == pytest.approx(4.3, abs=1e-8)


def test_gen_runs_no_higher_than_p_max():
    # the blocks cover 20 kW, but P_max is 10: the source imports the rest
    si = ScopfInput(
        lmp_source=4.3,
        gen_offers=[GenOffer(bus=1, p_min=0.0, p_max=10.0,
                             blocks=[(20.0, 1.0)])],
        dr_offers=[DrOffer(bus=1, baseline=15.0, blocks=[])],
        network=build_network([0, 1], [("a", 0, 1, INF)]))
    res = solve_dlmp(si)
    assert res.dispatch[1] == (10.0, 15.0)
    assert res.p_source == 5.0


def test_blocks_take_what_the_baseline_has_left():
    # Reference: the block-by-block loop over the offers. DR cannot cut
    # below zero load, so a DR block takes at most what its baseline has
    # left after the blocks before it, and a block that finds nothing left
    # is no variable; gen blocks are taken whole.
    rng = np.random.default_rng(23)
    net = random_radial_network(rng, 8)
    fixed = [DrOffer(bus=3, baseline=3.0,
                     blocks=[(1.0, 5.0), (2.0, 6.0), (1.0, 7.0)]),
             DrOffer(bus=0, baseline=0.0, blocks=[(1.0, 5.0)])]
    for _ in range(40):
        gens = []
        for _ in range(int(rng.integers(0, 3))):
            q = float(rng.uniform(1.0, 5.0))
            gens.append(GenOffer(bus=int(rng.integers(0, 8)), p_min=0.0,
                                 p_max=2 * q, blocks=[(q, 2.0), (q, 3.0)]))
        drs = fixed + [
            DrOffer(bus=int(rng.integers(0, 8)),
                    baseline=float(rng.uniform(0.0, 4.0)),
                    blocks=[(float(rng.uniform(0.1, 2.0)), 4.0 + j)
                            for j in range(int(rng.integers(0, 5)))])
            for _ in range(int(rng.integers(0, 6)))]
        caps, prices = [], []
        for o in gens + drs:
            avail = o.baseline if isinstance(o, DrOffer) else INF
            for qty, price in o.blocks:
                qty = min(qty, avail)
                if qty > 0:
                    caps.append(qty)
                    prices.append(price)
                    avail -= qty
        problem = zone_lp_problem(build_scopf(ScopfInput(
            lmp_source=5.0, gen_offers=gens, dr_offers=drs, network=net))[0])
        # the blocks follow the import and the export; the loadable lines'
        # flows, free and with two entries each, come last
        blocks = slice(2, 2 + len(caps))
        assert problem.hi[blocks].tolist() == caps
        assert problem.c[blocks].tolist() == prices
        assert not problem.c[blocks.stop:].any()
        assert (np.diff(problem.indptr)[blocks.stop:] == 2).all()


def test_parse_offers():
    text = ("# offers\n"
            "gen 14 0 20 10,6.0 10,9.5\n"
            "dr 19 40 10,15 10,18\n")
    gens, drs = parse_offers(text)
    assert gens[0].bus == 14 and gens[0].blocks == [(10.0, 6.0), (10.0, 9.5)]
    assert drs[0].baseline == 40.0
    from gridmarket.network import CaseFileError
    with pytest.raises(CaseFileError):
        parse_offers("load 3 4\n")
    with pytest.raises(CaseFileError):
        parse_offers("gen 1 0\n")


@st.composite
def feasible_scopfs(draw):
    """A random SCOPF that is feasible by construction: every DR offer can
    shed its whole baseline, and the mandatory generation (at most 5 kW in
    all) fits through every line limit (at least 5 kW)."""
    n = draw(st.integers(2, 10))
    limit = st.one_of(st.just(INF), st.floats(5.0, 50.0))
    net = build_network(list(range(n)),
                        [(f"l{b}", draw(st.integers(0, b - 1)), b, draw(limit))
                         for b in range(1, n)])
    bus = st.integers(0, n - 1)
    price = st.floats(0.0, 30.0)

    def blocks(k):
        prices = sorted(draw(st.lists(price, min_size=k, max_size=k)))
        return [(draw(st.floats(0.5, 10.0)), p) for p in prices]

    gens = []
    for _ in range(draw(st.integers(0, 4))):
        stack = blocks(draw(st.integers(1, 3)))
        p_min = draw(st.floats(0.0, 1.25))
        gens.append(GenOffer(bus=draw(bus), p_min=p_min,
                             p_max=p_min + sum(q for q, _ in stack),
                             blocks=stack))
    drs = []
    for _ in range(draw(st.integers(1, 6))):
        baseline = draw(st.floats(0.0, 20.0))
        stack = blocks(draw(st.integers(0, 2)))
        top = max([p for _, p in stack], default=0.0)
        drs.append(DrOffer(bus=draw(bus), baseline=baseline,
                           blocks=stack + [(baseline + 1.0, top + 50.0)]))
    return ScopfInput(lmp_source=draw(price), gen_offers=gens, dr_offers=drs,
                      network=net)


@settings(max_examples=150, deadline=None)
@given(feasible_scopfs())
def test_scopf_strong_duality(si):
    """The dual objective of the SCOPF LP, from its reported shadow prices,
    equals solve_dlmp's objective, and the prices certify the optimum."""
    res = solve_dlmp(si)
    problem, _ = build_scopf(si)
    sol = solve_lp(problem)
    certify(problem, sol)
    assert dual_objective(sol, zone_lp_problem(problem)) == pytest.approx(
        res.objective, rel=1e-9, abs=1e-9)


def test_full_line_with_idle_gen_behind_it_pins_zero_mu():
    res = solve_dlmp(idle_gen_behind_full_line())
    assert res.flows == {"a": 5.0, "b": 5.0}
    assert res.dispatch[2] == (0.0, 5.0) and res.p_source == 5.0
    assert res.lam == 4.3
    assert res.mu_plus == {"a": 0.0, "b": 0.0}
    assert res.mu_minus == {"a": 0.0, "b": 0.0}
    assert res.dlmp == {0: 4.3, 1: 4.3, 2: 4.3}
    assert res.objective == 21.5


def test_full_reverse_line_with_capped_gen_pins_zero_mu(monkeypatch):
    # Any mu_minus[b] in [0, 3.3] prices this vertex. The recursion returns
    # the low end, mu = 0, as the PTDF twin does; HiGHS on the zone form
    # returned the high end, the gen's own price at bus 2 (test_optim pins
    # it).
    si = capped_gen_exporting_at_limit()
    res = solve_dlmp(si)
    assert res.flows == {"a": 5.0, "b": -5.0}
    assert res.dispatch[2] == (10.0, 5.0) and res.p_source == 5.0
    assert res.lam == 4.3
    assert res.mu_plus == {"a": 0.0, "b": 0.0}
    assert res.mu_minus == {"a": 0.0, "b": 0.0}
    assert res.dlmp == {0: 4.3, 1: 4.3, 2: 4.3}
    assert res.objective == 31.5
    problem, _ = build_scopf(si)
    certify(problem, solve_lp(problem))
    use_ptdf_twin(monkeypatch)
    res = solve_dlmp(capped_gen_exporting_at_limit())
    assert res.flows == {"a": 5.0, "b": -5.0}
    assert res.dispatch[2] == (10.0, 5.0) and res.p_source == 5.0
    assert res.lam == 4.3
    assert res.mu_plus == {"a": 0.0, "b": 0.0}
    assert res.mu_minus == {"a": 0.0, "b": 0.0}
    assert res.dlmp == {0: 4.3, 1: 4.3, 2: 4.3}
    assert res.objective == 31.5


def tiny_root_import():
    # a 1e-9 kW load at the root, within the solve's rounding tolerance of
    # the balance: the source still imports it, so prices it
    return ScopfInput(
        lmp_source=2.0, gen_offers=[],
        dr_offers=[DrOffer(bus=0, baseline=1e-9, blocks=[(1.000000001, 50.0)])],
        network=build_network([0, 1], [("l1", 0, 1, INF)]))


def test_an_import_within_rounding_is_priced_at_the_source():
    res = solve_dlmp(tiny_root_import())
    assert res.p_source == 1e-9 and res.objective == 2e-9
    assert res.lam == 2.0
    assert res.dlmp == {0: 2.0, 1: 2.0}


@settings(max_examples=60, deadline=None)
@given(feasible_scopfs())
@example(idle_gen_behind_full_line())
@example(capped_gen_exporting_at_limit())
@example(tiny_root_import())
def test_dlmp_is_a_subgradient_of_the_objective_in_each_load(si):
    """The objective is convex in each bus's load, so its DLMP lies between
    the one-sided difference quotients, at a kink (a degenerate vertex) as
    anywhere. A shift the limits cannot carry leaves that side unbounded."""
    eps = 1e-3
    base = solve_dlmp(si)

    def objective(bus, kw):
        try:
            return solve_dlmp(shifted_load(si, bus, kw)).objective
        except InfeasibleBaseline:
            return None

    for bus in si.network.buses:
        up, dn = objective(bus, eps), objective(bus, -eps)
        hi = INF if up is None else (up - base.objective) / eps
        lo = -INF if dn is None else (base.objective - dn) / eps
        assert lo - 1e-6 <= base.dlmp[bus] <= hi + 1e-6
