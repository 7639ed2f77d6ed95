"""The sparse flow operator and line-limit rows shared by clearing and DLMP,
checked against dense references built here."""

import numpy as np
import pytest
from scipy import sparse

from gridmarket.network import line_limit_rows, ptdf
from gridmarket.optim import LpProblem, epigraph_max0, solve_lp
from helpers import random_feasible_lp, random_radial_network

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
    f_cols = H.entries @ inj_cols
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
            H, H.injection_map(var_buses, coefs), limits, f_const)
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
    np.testing.assert_array_equal(ptdf(other).entries, ptdf(net).entries)


def test_ptdf_stores_one_sparse_matrix():
    rng = np.random.default_rng(10)
    net = random_radial_network(rng, 15)
    H = ptdf(net)
    assert sparse.issparse(H.matrix) and H.matrix.format == "csr"
    # one entry per (bus, line on its root path)
    depth = {net.root: 0}
    for b in net._bfs_order[1:]:
        depth[b] = depth[net.parent[b]] + 1
    assert H.matrix.nnz == sum(depth.values())


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


def test_epigraph_sparse_equals_dense():
    rng = np.random.default_rng(29)
    for _ in range(20):
        p = random_feasible_lp(rng)
        A_eq = np.zeros((1, p.n))
        A_eq[0, -1] = 1.0
        p = LpProblem(c=p.c, A_eq=A_eq, b_eq=[0.0], A_ub=p.A_ub,
                      b_ub=p.b_ub, bounds=p.bounds)
        var = int(rng.integers(0, p.n))
        ext_d, aux_d = epigraph_max0(p, var)
        ext_s, aux_s = epigraph_max0(sparse_twin(p), var)
        assert aux_d == aux_s
        assert sparse.issparse(ext_s.A_ub) and sparse.issparse(ext_s.A_eq)
        np.testing.assert_array_equal(ext_s.A_ub.toarray(), ext_d.A_ub)
        np.testing.assert_array_equal(ext_s.A_eq.toarray(), ext_d.A_eq)
        price = float(rng.uniform(0.5, 3.0))
        ext_d.c[aux_d] = ext_s.c[aux_s] = price
        assert_same_solution(solve_lp(ext_d), solve_lp(ext_s))


def test_sparse_column_mismatch_rejected():
    with pytest.raises(ValueError):
        LpProblem(c=[1.0, 2.0], A_ub=sparse.csr_array(np.ones((1, 3))),
                  b_ub=[1.0])
