import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridmarket.network import (
    CyclicTopology, Disconnected, DuplicateLine, Grid, Network, NetworkError,
    UnknownBus, build_network, line_flows, load_case, parse_case, ptdf,
)
from helpers import (
    DictGrid, children, line_into, ptdf_entries, random_radial_network,
    subtree_sum_flows,
)


def chain3():
    return build_network([0, 1, 2], [("a", 0, 1, 10.0), ("b", 1, 2, 10.0)])


def test_build_chain():
    net = chain3()
    assert children(net)[1] == {2}
    assert net.parent[2] == 1
    assert net.root == 0


def test_build_orients_lines_parent_to_child():
    net = build_network([0, 1, 2], [("a", 1, 0, 10.0), ("b", 2, 1, 7.0)])
    assert net.lines == [("a", 0, 1, 10.0), ("b", 1, 2, 7.0)]
    assert net.parent == {1: 0, 2: 1}


def test_a_network_built_directly_flows_like_build_networks():
    # Network is whole from its fields: no attribute is added later
    rng = np.random.default_rng(21)
    for _ in range(20):
        built = random_radial_network(rng, int(rng.integers(2, 30)))
        direct = Network(buses=list(built.buses), lines=list(built.lines),
                         parent=dict(built.parent))
        inj = {b: float(rng.normal()) for b in built.buses}
        assert line_flows(direct, inj) == line_flows(built, inj)
        np.testing.assert_array_equal(ptdf_entries(ptdf(direct)),
                                      ptdf_entries(ptdf(built)))
    net = Network(buses=[0, 1], lines=[("a", 0, 1, 5.0)], parent={1: 0})
    assert line_flows(net, {1: 1.0}) == {"a": 1.0}


def test_build_cycle_rejected():
    with pytest.raises(CyclicTopology):
        build_network([0, 1, 2],
                      [("a", 0, 1, 1.0), ("b", 1, 2, 1.0), ("c", 2, 0, 1.0)])


def test_build_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_network([0, 1, 2, 3], [("a", 0, 1, 1.0), ("b", 2, 3, 1.0)])


def test_build_unknown_bus_and_duplicates():
    with pytest.raises(UnknownBus):
        build_network([0, 1], [("a", 0, 7, 1.0)])
    with pytest.raises(DuplicateLine):
        build_network([0, 1, 2],
                      [("a", 0, 1, 1.0), ("a", 1, 2, 1.0)])
    with pytest.raises(DuplicateLine):
        build_network([0, 1, 2],
                      [("a", 0, 1, 1.0), ("b", 1, 0, 1.0)])


def test_ids_that_log_as_one_key_are_refused():
    # the logs key buses and lines by str(id): 1 and "1" would merge
    with pytest.raises(DuplicateLine,
                       match=r"^line ids 1 and '1' both log as '1'$"):
        build_network([0, 1, 2], [(1, 0, 1, 5.0), ("1", 0, 2, 5.0)])
    with pytest.raises(NetworkError,
                       match=r"^bus ids 2 and '2' both log as '2'$"):
        build_network([0, 2, "2"], [("a", 0, 2, 5.0), ("b", 0, "2", 5.0)])


def test_parse_case_rejects_unknown_directive():
    with pytest.raises(Exception, match="unknown directive"):
        parse_case("bus 0\nfoo 1 2\n")


def test_line_flows_chain():
    flows = line_flows(chain3(), {1: 1.0, 2: 2.0})
    assert flows == {"b": 2.0, "a": 3.0}


def test_line_flows_zero():
    flows = line_flows(chain3(), {})
    assert all(v == 0.0 for v in flows.values())


def test_line_flows_star_matches_dfs_oracle():
    net = build_network([0, 1, 2, 3],
                        [("a", 0, 1, 9.0), ("b", 0, 2, 9.0), ("c", 0, 3, 9.0)])
    inj = {1: 2.0, 2: -1.0, 3: 0.5}
    flows = line_flows(net, inj)
    assert flows == {"a": 2.0, "b": -1.0, "c": 0.5}
    assert flows == subtree_sum_flows(net, inj)
    # root export = total net consumption
    into = line_into(net)
    assert sum(flows[into[b]] for b in children(net)[0]) == 1.5


def test_ptdf_chain_and_star():
    H = ptdf(chain3())
    assert H.bus_order == [1, 2]
    np.testing.assert_array_equal(ptdf_entries(H), [[1, 1], [0, 1]])
    star = build_network([0, 1, 2], [("a", 0, 1, 9.0), ("b", 0, 2, 9.0)])
    np.testing.assert_array_equal(ptdf_entries(ptdf(star)), np.eye(2))


def test_ptdf_matches_recursion_on_random_trees():
    rng = np.random.default_rng(7)
    net = random_radial_network(rng, 8)
    for _ in range(100):
        inj = {b: float(rng.normal()) for b in net.non_root_buses()}
        flows = line_flows(net, inj)
        oracle = subtree_sum_flows(net, inj)
        for lid in flows:
            assert abs(flows[lid] - oracle[lid]) < 1e-12


def test_ptdf_linearity():
    rng = np.random.default_rng(3)
    net = random_radial_network(rng, 10)
    H = ptdf_entries(ptdf(net))
    x, y = rng.normal(size=9), rng.normal(size=9)
    a, b = 2.5, -1.25
    np.testing.assert_allclose(H @ (a * x + b * y), a * (H @ x) + b * (H @ y),
                               rtol=1e-12)


def test_flow_recursion_identity_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_radial_network(rng, int(rng.integers(3, 20)))
        inj = {b: float(rng.normal(scale=5)) for b in net.non_root_buses()}
        flows = line_flows(net, inj)
        into, kids = line_into(net), children(net)
        for bus in net.non_root_buses():
            lhs = flows[into[bus]]
            rhs = inj[bus] + sum(flows[into[c]] for c in kids[bus])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_root_conservation():
    rng = np.random.default_rng(13)
    net = random_radial_network(rng, 12)
    inj = {b: float(rng.normal()) for b in net.non_root_buses()}
    flows = line_flows(net, inj)
    into = line_into(net)
    into_tree = sum(flows[into[c]] for c in children(net)[net.root])
    assert abs(into_tree - sum(inj.values())) < 1e-12


def test_grid_reset_and_step():
    grid = Grid(chain3())
    s = grid.reset()
    assert s.t == -1 and all(v == 0 for v in s.flows.values())
    s = grid.step({"a1": (2, 1.0), "a2": (2, 0.5)})
    assert s.t == 0
    assert s.injections[2] == 1.5
    assert s.feasible


def test_grid_step_unknown_bus():
    grid = Grid(chain3())
    with pytest.raises(UnknownBus):
        grid.step({"a1": (42, 1.0)})


def test_grid_overload_recorded_not_fatal():
    # push line b to 1.01x its limit: state recorded, flagged infeasible
    grid = Grid(chain3())
    s = grid.step({"a1": (2, 10.0 * 1.01)})
    assert not s.feasible
    assert s.flows["b"] == pytest.approx(10.1)


def test_grid_step_deterministic():
    actions = [{"a": (1, 2.0)}, {"a": (2, -1.0)}, {"a": (1, 0.5)}]
    states = []
    for _ in range(2):
        grid = Grid(chain3())
        for act in actions:
            grid.step(act)
        states.append((grid.state.t, grid.state.injections, grid.state.flows))
    assert states[0] == states[1]


def bits(state):
    """A grid state with every float as its IEEE bytes, dict order kept."""
    def exact(d):
        return [(k, type(v), struct.pack("<d", v)) for k, v in d.items()]
    return (state.t, exact(state.injections), exact(state.flows),
            state.feasible)


KW = st.one_of(st.sampled_from([-0.0, 0.0, 1, -3]),
               st.floats(-80.0, 80.0), st.floats())


@st.composite
def feeder_and_steps(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net = random_radial_network(rng, draw(st.integers(1, 12)))
    # some lines without a limit
    net = build_network(net.buses, [
        (lid, u, v, float("inf") if draw(st.booleans()) else lim)
        for lid, u, v, lim in net.lines])
    # the root, repeated buses and, now and then, a bus the case lacks
    bus = st.sampled_from(net.buses) | st.sampled_from([99, "x"])
    steps = draw(st.lists(st.lists(st.tuples(bus, KW), max_size=8),
                          min_size=1, max_size=4))
    return net, [{f"a{k}": a for k, a in enumerate(step)} for step in steps]


def step_or_error(grid, actions):
    try:
        return bits(grid.step(actions))
    except UnknownBus as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(feeder_and_steps())
@example((build_network([0, 1, 2], [("a", 0, 1, 5.0), ("b", 1, 2, 1.0)]),
          [{"r": (0, 7.0), "p": (2, -0.0), "q": (2, 1.0 + 1e-9)},
           {"n": (1, float("inf")), "m": (1, float("-inf"))},
           {"u": (2, 0.5), "v": (3, 1.0)}]))
def test_grid_matches_the_dict_grid_bit_for_bit(case):
    net, steps = case
    grid, ref = Grid(net), DictGrid(net)
    assert bits(grid.state) == bits(ref.state)
    for actions in steps:
        assert step_or_error(grid, actions) == step_or_error(ref, actions)
        assert bits(grid.state) == bits(ref.state)
    assert bits(grid.reset()) == bits(ref.reset())


def test_load_shipped_case(tmp_path):
    net = load_case("cases/case34.txt")
    assert net.n_buses == 34 and net.n_lines == 33
