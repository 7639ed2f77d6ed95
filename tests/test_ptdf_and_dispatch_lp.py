"""The PTDF index arrays and `dispatch_lp`'s column-wise (CSC) matrix, its
line-limit rows and its balance row, checked against dense and scipy.sparse
references built here."""

import numpy as np
import pytest
from scipy import sparse

from gridmarket.network import line_flows, ptdf
from gridmarket.optim import LpProblem, dispatch_lp, solve_lp
from helpers import (
    line_into, lp_matrix, lp_problem, ptdf_entries, random_radial_network,
)

INF = float("inf")


def dense_limit_rows(net, var_buses, coefs, limits, f_const=None):
    """Reference: dense inj_cols, one H row product per finite-limit line,
    interleaved +row / -row."""
    H = ptdf(net)
    col = {b: i for i, b in enumerate(H.bus_order)}
    inj_cols = np.zeros((len(H.bus_order), len(var_buses)))
    for j, (bus, v) in enumerate(zip(var_buses, coefs)):
        if bus != net.root:
            inj_cols[col[bus], j] = v
    f_cols = ptdf_entries(H) @ inj_cols
    f0 = np.zeros(len(H.line_order)) if f_const is None else f_const
    rows, rhs, row_lines = [], [], []
    for r, lid in enumerate(H.line_order):
        if not np.isfinite(limits[lid]):
            continue
        rows += [f_cols[r], -f_cols[r]]
        rhs += [limits[lid] - f0[r], limits[lid] + f0[r]]
        row_lines += [(lid, +1), (lid, -1)]
    return np.array(rows), np.array(rhs), row_lines


def random_dispatch(rng, net, limits=None):
    """Random dispatch_lp inputs on `net`: some lines unlimited, a priced
    import and an unpaid export at the root, blocks that consume or produce
    at random buses (the root among them) and random constant flows."""
    if limits is None:
        limits = net.line_limits()
        for lid in limits:
            if rng.random() < 0.3:
                limits[lid] = INF
    k = int(rng.integers(1, 40))
    buses = [net.root] * 2 + rng.integers(0, net.n_buses, k).tolist()
    signs = np.append([-1.0, 1.0], rng.choice([-1.0, 1.0], k))
    prices = np.append([rng.uniform(1.0, 10.0), 0.0], rng.uniform(0.0, 20.0, k))
    caps = np.append([INF, INF], rng.uniform(0.5, 30.0, k))
    f_const = line_flows(net, {b: float(rng.uniform(-1.0, 1.0))
                               for b in net.buses})
    return limits, buses, signs, prices, caps, f_const


@pytest.mark.parametrize("with_const", [False, True])
def test_line_limit_rows_match_dense_reference(with_const):
    """dispatch_lp's CSC, made dense, is the dense reference's line rows
    stacked over the signs row, exactly, with rows ascending in each
    column."""
    rng = np.random.default_rng(41 + with_const)
    for _ in range(30):
        net = random_radial_network(rng, int(rng.integers(2, 25)))
        limits, buses, signs, prices, caps, f_const = random_dispatch(rng, net)
        if not with_const:
            f_const = None
        H = ptdf(net)
        ref_A, ref_b, ref_lines = dense_limit_rows(
            net, buses, signs, limits,
            None if f_const is None else [f_const[lid] for lid in H.line_order])
        problem, limited = dispatch_lp(H, limits, H.positions(buses), signs,
                                       prices, caps, 2.5, f_const)
        assert [(lid, s) for lid, lim in zip(H.line_order, limited) if lim
                for s in (+1, -1)] == ref_lines
        np.testing.assert_array_equal(
            lp_matrix(problem), np.vstack([ref_A.reshape(-1, len(buses)),
                                           signs]))
        np.testing.assert_array_equal(problem.row_hi, np.append(ref_b, 2.5))
        np.testing.assert_array_equal(problem.row_lo,
                                      [-INF] * len(ref_b) + [2.5])
        for j in range(len(buses)):
            rows = problem.indices[problem.indptr[j]:problem.indptr[j + 1]]
            assert np.all(np.diff(rows) > 0)
            assert rows[-1] == len(ref_b)             # the balance row


def test_line_limit_rows_all_unlimited():
    rng = np.random.default_rng(5)
    net = random_radial_network(rng, 6, limit_lo=INF, limit_hi=INF)
    H = ptdf(net)
    problem, limited = dispatch_lp(H, net.line_limits(), H.positions([1, 2, 0]),
                                   [1.0, -1.0, 1.0], [3.0, 2.0, 1.0],
                                   [1.0, 1.0, 1.0])
    assert not limited.any()
    np.testing.assert_array_equal(lp_matrix(problem), [[1.0, -1.0, 1.0]])
    assert problem.row_lo.tolist() == problem.row_hi.tolist() == [0.0]


def test_root_bus_variables_hold_only_their_balance_entry():
    rng = np.random.default_rng(8)
    net = random_radial_network(rng, 9)
    H = ptdf(net)
    var_buses = [0, 3, 3, 8, 0, 1]
    coefs = [1.0, -1.0, 2.0, 1.0, 5.0, -3.0]
    problem, limited = dispatch_lp(H, net.line_limits(),
                                   H.positions(var_buses), coefs, [1.0] * 6,
                                   [1.0] * 6)
    depth = {b: int(ptdf_entries(H)[:, H.bus_order.index(b)].sum())
             for b in (1, 3, 8)}
    assert np.diff(problem.indptr).tolist() == [
        1 if b == 0 else 2 * depth[b] + 1 for b in var_buses]
    # a root-bus variable's one entry is its coefficient on the balance row
    for j in (0, 4):
        assert problem.indices[problem.indptr[j]] == 2 * limited.sum()
        assert problem.data[problem.indptr[j]] == coefs[j]


def test_ptdf_cached_per_network():
    rng = np.random.default_rng(9)
    net = random_radial_network(rng, 12)
    assert ptdf(net) is ptdf(net)
    other = random_radial_network(np.random.default_rng(9), 12)
    assert ptdf(other) is not ptdf(net)
    np.testing.assert_array_equal(ptdf_entries(ptdf(other)),
                                  ptdf_entries(ptdf(net)))


def test_ptdf_stores_index_arrays():
    rng = np.random.default_rng(10)
    net = random_radial_network(rng, 15)
    H = ptdf(net)
    # one entry per (bus, line on its root path), by bus and then by line
    expected, into = [], line_into(net)
    for i, b in enumerate(H.bus_order):
        path = []
        while b != net.root:
            path.append(H.line_order.index(into[b]))
            b = net.parent[b]
        expected += [(i, r) for r in sorted(path)]
    assert list(zip(H.path_cols.tolist(), H.path_rows.tolist())) == expected


def scipy_ptdf(net):
    """Reference: the PTDF as a scipy CSR matrix, from one entry per (bus,
    line on its root path), buses in order, each path walked up from the
    bus."""
    non_root = net.non_root_buses()
    row = {lid: i for i, (lid, _, _, _) in enumerate(net.lines)}
    into = line_into(net)
    rows, cols = [], []
    for i, bus in enumerate(non_root):
        b = bus
        while b != net.root:
            rows.append(row[into[b]])
            cols.append(i)
            b = net.parent[b]
    return sparse.csr_array((np.ones(len(rows)), (rows, cols)),
                            shape=(net.n_lines, len(non_root)))


def test_flows_and_path_sums_equal_scipy_mat_vecs_bit_for_bit():
    """On a 1000-bus feeder, line flows (H @ x) and the DLMP congestion
    term (H^T @ mu) equal scipy's CSR and CSC mat-vecs exactly: bincount
    adds each sum in the same order."""
    rng = np.random.default_rng(1000)
    net = random_radial_network(rng, 1000)
    H, S = ptdf(net), scipy_ptdf(net)
    for _ in range(200):
        x = rng.normal(0.0, 10.0, len(H.bus_order))
        assert np.array_equal(H.flows(x), S @ x)
        got = line_flows(net, dict(zip(H.bus_order, x.tolist())))
        assert list(got.values()) == (S @ x).tolist()
        mu = np.where(rng.random(len(H.line_order)) < 0.1,
                      rng.normal(0.0, 5.0, len(H.line_order)), 0.0)
        assert np.array_equal(H.path_sums(mu), S.T @ mu)


def test_dispatch_lp_sparse_equals_dense():
    """dispatch_lp's LP against a dense twin assembled here from
    dense_limit_rows: the same arrays, and the same x and duals from
    HiGHS."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        net = random_radial_network(rng, int(rng.integers(2, 15)),
                                    limit_lo=20.0, limit_hi=60.0)
        H = ptdf(net)
        limits = net.line_limits()
        for lid in list(limits)[1::3]:
            limits[lid] = INF
        _, buses, signs, prices, caps, f_const = random_dispatch(rng, net,
                                                                 limits)
        balance = float(rng.uniform(-10.0, 10.0))
        problem, _ = dispatch_lp(H, limits, H.positions(buses), signs, prices,
                                 caps, balance, f_const)
        A_ub, b_ub, _ = dense_limit_rows(
            net, buses, signs, limits,
            np.array([f_const[lid] for lid in H.line_order]))
        twin = lp_problem(c=-signs * prices, A_eq=[signs], b_eq=[balance],
                          A_ub=A_ub if len(b_ub) else None, b_ub=b_ub,
                          bounds=[(0.0, cap) for cap in caps])
        for name in ("c", "lo", "hi", "indptr", "indices", "data", "row_lo",
                     "row_hi"):
            np.testing.assert_array_equal(getattr(problem, name),
                                          getattr(twin, name))
        s_twin, s = solve_lp(twin), solve_lp(problem)
        assert s.objective == s_twin.objective
        for name in ("x", "row_duals", "reduced_costs"):
            np.testing.assert_array_equal(getattr(s, name),
                                          getattr(s_twin, name))


def test_sparse_column_mismatch_rejected():
    # column pointers for 3 columns, but c has 2
    with pytest.raises(ValueError, match="malformed CSC"):
        LpProblem(c=[1.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0],
                  indptr=[0, 1, 2, 3], indices=[0, 0, 0],
                  data=[1.0, 1.0, 1.0], row_lo=[-INF], row_hi=[1.0])
