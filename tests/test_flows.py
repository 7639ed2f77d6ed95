"""Every line flow the program computes is the cached PTDF applied to bus
injections; here it is checked against the DFS subtree-sum oracle, on random
trees and on the flows clearing and DLMP report on case34."""

import os

from hypothesis import given, settings, strategies as st

from gridmarket.clearing import MarketInput, clear, parse_bids
from gridmarket.dlmp import ScopfInput, parse_offers, solve_dlmp
from gridmarket.network import build_network, line_flows, load_case
from helpers import subtree_sum_flows

CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def read(name):
    with open(os.path.join(CASES, name), encoding="utf-8") as f:
        return f.read()


@st.composite
def trees_with_injections(draw):
    """A random tree on 2..40 buses and injections that may carry a root-bus
    entry and leave buses out."""
    n = draw(st.integers(2, 40))
    lines = [(f"l{b}", draw(st.integers(0, b - 1)), b, 10.0)
             for b in range(1, n)]
    net = build_network(list(range(n)), lines)
    kw = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    present = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    inj = {b: draw(kw) for b, keep in zip(range(1, n), present) if keep}
    inj[net.root] = draw(kw)
    return net, inj


@settings(max_examples=300, deadline=None)
@given(trees_with_injections())
def test_line_flows_equal_subtree_sums(tree):
    net, inj = tree
    flows = line_flows(net, inj)
    oracle = subtree_sum_flows(net, inj)
    assert set(flows) == set(oracle)
    # relative to the injections' magnitude, which bounds every flow
    scale = max(1.0, sum(abs(v) for v in inj.values()))
    for lid, f in oracle.items():
        assert abs(flows[lid] - f) <= 1e-12 * scale


def test_clear_reports_the_flows_of_its_dispatch():
    net = load_case(os.path.join(CASES, "case34.txt"))
    bids, offers = parse_bids(read("bids34.txt"))
    d = clear(MarketInput(bids=bids, offers=offers, network=net))
    inj = {}
    for a, q in d.quantities.items():
        sign = 1.0 if d.sides[a] == "demand" else -1.0
        inj[d.buses[a]] = inj.get(d.buses[a], 0.0) + sign * q
    oracle = subtree_sum_flows(net, inj)
    assert any(abs(f) > 1.0 for f in oracle.values())
    assert set(d.line_flows) == set(oracle)
    for lid, f in oracle.items():
        assert abs(d.line_flows[lid] - f) <= 1e-9


def test_dlmp_reports_the_flows_of_its_dispatch():
    net = load_case(os.path.join(CASES, "case34.txt"))
    gens, drs = parse_offers(read("offers34.txt"))
    res = solve_dlmp(ScopfInput(lmp_source=5.0, gen_offers=gens,
                                dr_offers=drs, network=net))
    inj = {bus: p_d - p_g for bus, (p_g, p_d) in res.dispatch.items()}
    oracle = subtree_sum_flows(net, inj)
    assert any(abs(f) > 1.0 for f in oracle.values())
    assert set(res.flows) == set(oracle)
    for lid, f in oracle.items():
        assert abs(res.flows[lid] - f) <= 1e-9
