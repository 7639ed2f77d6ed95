"""The sparse flow operator and line-limit rows shared by clearing and DLMP,
checked against dense references built here."""

import numpy as np
import pytest
from scipy import sparse

from gridmarket.network import line_flows, line_limit_rows, ptdf
from gridmarket.optim import OPTIMAL, LpProblem, dispatch_lp, solve_lp
from helpers import ptdf_entries, random_feasible_lp, random_radial_network

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


@pytest.mark.parametrize("with_const", [False, True])
def test_line_limit_rows_match_dense_reference(with_const):
    rng = np.random.default_rng(41 + with_const)
    for _ in range(30):
        net = random_radial_network(rng, int(rng.integers(2, 25)))
        limits = net.line_limits()
        for lid in limits:
            if rng.random() < 0.3:
                limits[lid] = INF
        n_vars = int(rng.integers(1, 40))
        # bus 0 is the root: those variables inject nothing on any line
        var_buses = [int(b) for b in rng.integers(0, net.n_buses, n_vars)]
        coefs = rng.choice([-1.0, 1.0], size=n_vars)
        H = ptdf(net)
        f_const = rng.normal(size=net.n_lines) if with_const else None
        ref_A, ref_b, ref_lines = dense_limit_rows(net, var_buses, coefs,
                                                   limits, f_const)
        A, b, row_lines = line_limit_rows(
            H, H.injection_map(var_buses, coefs), limits,
            None if f_const is None else dict(zip(H.line_order, f_const)))
        assert row_lines == ref_lines
        if not ref_lines:
            assert A is None and b is None
            continue
        assert sparse.issparse(A)
        np.testing.assert_array_equal(A.toarray(), ref_A)
        np.testing.assert_array_equal(b, ref_b)


def test_line_limit_rows_all_unlimited():
    rng = np.random.default_rng(5)
    net = random_radial_network(rng, 6, limit_lo=INF, limit_hi=INF)
    H = ptdf(net)
    inj = H.injection_map([1, 2, 0], [1.0, -1.0, 1.0])
    assert line_limit_rows(H, inj, net.line_limits()) == (None, None, [])


def test_injection_map_one_entry_per_variable():
    rng = np.random.default_rng(8)
    net = random_radial_network(rng, 9)
    H = ptdf(net)
    var_buses = [0, 3, 3, 8, 0, 1]
    inj = H.injection_map(var_buses, [1.0, -1.0, 2.0, 1.0, 5.0, -3.0])
    assert inj.shape == (len(H.bus_order), len(var_buses))
    assert inj.nnz == 4                      # root-bus variables skipped
    dense = inj.toarray()
    assert dense[H.bus_order.index(3), 2] == 2.0
    assert not dense[:, 0].any() and not dense[:, 4].any()


def test_ptdf_cached_per_network():
    rng = np.random.default_rng(9)
    net = random_radial_network(rng, 12)
    assert ptdf(net) is ptdf(net)
    other = random_radial_network(np.random.default_rng(9), 12)
    assert ptdf(other) is not ptdf(net)
    np.testing.assert_array_equal(ptdf_entries(ptdf(other)),
                                  ptdf_entries(ptdf(net)))


def test_ptdf_stores_one_sparse_matrix():
    rng = np.random.default_rng(10)
    net = random_radial_network(rng, 15)
    H = ptdf(net)
    assert sparse.issparse(H.matrix) and H.matrix.format == "csr"
    # one entry per (bus, line on its root path)
    depth = 0
    for b in net.non_root_buses():
        while b != net.root:
            depth, b = depth + 1, net.parent[b]
    assert H.matrix.nnz == depth


def sparse_twin(problem):
    def sp(A):
        return None if A is None else sparse.csr_array(A)
    return LpProblem(c=problem.c.copy(), A_eq=sp(problem.A_eq),
                     b_eq=problem.b_eq, A_ub=sp(problem.A_ub),
                     b_ub=problem.b_ub, bounds=list(problem.bounds))


def assert_same_solution(s_dense, s_sparse):
    assert s_dense.status == s_sparse.status
    np.testing.assert_array_equal(s_sparse.x, s_dense.x)
    assert s_sparse.objective == s_dense.objective
    for name in ("duals_eq", "duals_ub", "duals_lower", "duals_upper"):
        np.testing.assert_array_equal(getattr(s_sparse, name),
                                      getattr(s_dense, name))


def test_solve_lp_sparse_equals_dense():
    rng = np.random.default_rng(23)
    for k in range(40):
        p = random_feasible_lp(rng)
        if k % 2:
            x0 = np.zeros(p.n)    # interior of the box and of A_ub x <= b_ub
            A_eq = rng.normal(size=(1, p.n))
            p = LpProblem(c=p.c, A_eq=A_eq, b_eq=A_eq @ x0, A_ub=p.A_ub,
                          b_ub=p.b_ub, bounds=p.bounds)
        q = sparse_twin(p)
        assert sparse.issparse(q.A_ub) and not sparse.issparse(p.A_ub)
        assert_same_solution(solve_lp(p), solve_lp(q))


def test_dispatch_lp_sparse_equals_dense():
    """dispatch_lp's sparse LP against a dense twin assembled here from
    dense_limit_rows: the same rows, and the same x and duals from HiGHS."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        net = random_radial_network(rng, int(rng.integers(2, 15)),
                                    limit_lo=20.0, limit_hi=60.0)
        H = ptdf(net)
        limits = net.line_limits()
        for lid in list(limits)[1::3]:
            limits[lid] = INF
        # a priced import and an unpaid export at the root, then blocks
        # that consume or produce at random buses
        k = int(rng.integers(1, 12))
        buses = [net.root] * 2 + rng.integers(0, net.n_buses, k).tolist()
        signs = np.append([-1.0, 1.0], rng.choice([-1.0, 1.0], k))
        prices = np.append([rng.uniform(1.0, 10.0), 0.0],
                           rng.uniform(0.0, 20.0, k))
        caps = np.append([INF, INF], rng.uniform(0.5, 30.0, k))
        f_const = line_flows(net, {b: float(rng.uniform(-1.0, 1.0))
                                   for b in net.buses})
        balance = float(rng.uniform(-10.0, 10.0))
        problem, row_lines = dispatch_lp(H, limits, buses, signs, prices,
                                         caps, balance, f_const)
        A_ub, b_ub, dense_lines = dense_limit_rows(
            net, buses, signs, limits,
            np.array([f_const[lid] for lid in H.line_order]))
        twin = LpProblem(c=-signs * prices, A_eq=[signs], b_eq=[balance],
                         A_ub=A_ub, b_ub=b_ub,
                         bounds=[(0.0, cap) for cap in caps])
        assert row_lines == dense_lines
        assert sparse.issparse(problem.A_ub) and sparse.issparse(problem.A_eq)
        np.testing.assert_array_equal(problem.A_ub.toarray(), twin.A_ub)
        np.testing.assert_array_equal(problem.A_eq.toarray(), twin.A_eq)
        for name in ("c", "b_eq", "b_ub", "bounds"):
            np.testing.assert_array_equal(getattr(problem, name),
                                          getattr(twin, name))
        s_dense, s_sparse = solve_lp(twin), solve_lp(problem)
        assert s_sparse.status == OPTIMAL
        assert_same_solution(s_dense, s_sparse)


def test_sparse_column_mismatch_rejected():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], A_ub=sparse.csr_array(np.ones((1, 3))),
                  b_ub=[1.0])
