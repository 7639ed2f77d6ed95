"""The PTDF index arrays, and the PTDF form of the dispatch LP that
`helpers.ptdf_dispatch_lp` keeps as the zone form's twin: its column-wise
(CSC) matrix, its line-limit rows and its balance row, checked against dense
and scipy.sparse references built here, and the rows it leaves empty,
checked against a twin LP that has every row's entries. The zone form
itself is checked against this twin in `test_zone_lp.py`."""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from gridmarket import clearing
from gridmarket.clearing import MarketInput, clear, parse_bids
from gridmarket.network import line_flows, load_case, ptdf
from gridmarket.optim import (
    REACH_TOL, InfeasibleLp, NumericalFailure, dispatch_lp,
)
from helpers import (
    LpProblem, box_flows, chain, line_into, lp_matrix, lp_problem, path_sums,
    ptdf_dispatch_duals, ptdf_dispatch_lp, ptdf_entries, random_dispatch,
    random_radial_network, solve_lp, with_limits,
)

INF = float("inf")
CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def dense_limit_rows(net, var_buses, coefs, limits, f_const=None, caps=None):
    """Reference: dense inj_cols, one H row product per finite-limit line,
    interleaved +row / -row. Given the variables' `caps`, a row is zeroed
    when no 0 <= x <= caps brings its side of the line's flow within
    REACH_TOL of the limit, by the flow's largest and smallest value over
    that box."""
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
        lim = limits[lid]
        if not np.isfinite(lim):
            continue
        up, down = f_cols[r], -f_cols[r]
        if caps is not None:
            near = lim * (1.0 - REACH_TOL) - REACH_TOL
            most, least = box_flows(f_cols[r], caps, f0[r])
            up, down = (a if reach >= near else np.zeros_like(a)
                        for a, reach in ((up, most), (down, -least)))
        rows += [up, down]
        rhs += [lim - f0[r], lim + f0[r]]
        row_lines += [(lid, +1), (lid, -1)]
    return np.array(rows), np.array(rhs), row_lines


def full_twin(net, buses, signs, prices, caps, limits, balance, f_const):
    """The dispatch LP with every line-limit row's entries, assembled from
    dense_limit_rows with no caps, so no row is emptied."""
    A_ub, b_ub, _ = dense_limit_rows(net, buses, signs, limits, f_const)
    return lp_problem(c=-signs * prices, A_eq=[signs], b_eq=[balance],
                      A_ub=A_ub if len(b_ub) else None, b_ub=b_ub,
                      bounds=[(0.0, cap) for cap in caps])


@pytest.mark.parametrize("with_const", [False, True])
def test_line_limit_rows_match_dense_reference(with_const):
    """ptdf_dispatch_lp's CSC, made dense, is the dense reference's line rows,
    those no dispatch within the caps can load zeroed, stacked over the
    signs row, exactly, with rows ascending in each column."""
    rng = np.random.default_rng(41 + with_const)
    kept = emptied = 0
    for _ in range(30):
        net = random_radial_network(rng, int(rng.integers(2, 25)))
        net, buses, signs, prices, caps, f_const = random_dispatch(rng, net)
        if not with_const:
            f_const = None
        H, limits = ptdf(net), net.line_limits()
        ref_A, ref_b, ref_lines = dense_limit_rows(net, buses, signs, limits,
                                                   f_const, caps)
        if len(ref_b):      # count the rows with entries in the full twin
            full_A = dense_limit_rows(net, buses, signs, limits, f_const)[0]
            live, has = (full_A != 0).any(axis=1), (ref_A != 0).any(axis=1)
            kept += np.count_nonzero(live & has)
            emptied += np.count_nonzero(live & ~has)
        problem = ptdf_dispatch_lp(H, H.positions(buses), signs, prices, caps,
                                   2.5, f_const)
        assert [(lid, s) for lid, lim in zip(H.line_order, H.limited) if lim
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
    assert kept > 0 and emptied > 0     # rows with entries on both sides


def test_line_limit_rows_all_unlimited():
    rng = np.random.default_rng(5)
    net = random_radial_network(rng, 6, limit_lo=INF, limit_hi=INF)
    H = ptdf(net)
    problem = ptdf_dispatch_lp(H, H.positions([1, 2, 0]), [1.0, -1.0, 1.0],
                          [3.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    assert not H.limited.any()
    np.testing.assert_array_equal(lp_matrix(problem), [[1.0, -1.0, 1.0]])
    assert problem.row_lo.tolist() == problem.row_hi.tolist() == [0.0]


def test_root_bus_variables_hold_only_their_balance_entry():
    rng = np.random.default_rng(8)
    net = random_radial_network(rng, 9)
    H = ptdf(net)
    var_buses = [0, 3, 3, 8, 0, 1]
    coefs = [1.0, -1.0, 2.0, 1.0, 5.0, -3.0]
    caps = [1.0, 40.0, 40.0, 40.0, 1.0, 40.0]
    problem = ptdf_dispatch_lp(H, H.positions(var_buses), coefs, [1.0] * 6, caps)
    ref_A = dense_limit_rows(net, var_buses, coefs, net.line_limits(),
                             caps=caps)[0]
    assert np.diff(problem.indptr).tolist() == [
        1 if b == 0 else np.count_nonzero(ref_A[:, j]) + 1
        for j, b in enumerate(var_buses)]
    assert np.diff(problem.indptr).max() > 1
    # a root-bus variable's one entry is its coefficient on the balance row
    for j in (0, 4):
        assert problem.indices[problem.indptr[j]] == 2 * H.limited.sum()
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
        assert np.array_equal(path_sums(H, mu), S.T @ mu)


def test_dispatch_lp_sparse_equals_dense():
    """ptdf_dispatch_lp's LP against a dense twin assembled here from
    dense_limit_rows, unloadable rows zeroed: the same arrays, and the same
    x and duals from HiGHS."""
    rng = np.random.default_rng(29)
    for _ in range(20):
        net = random_radial_network(rng, int(rng.integers(2, 15)),
                                    limit_lo=20.0, limit_hi=60.0)
        limits = net.line_limits()
        for lid in list(limits)[1::3]:
            limits[lid] = INF
        net = with_limits(net, limits)
        H = ptdf(net)
        _, buses, signs, prices, caps, f_const = random_dispatch(
            rng, net, unlimited=False)
        balance = float(rng.uniform(-10.0, 10.0))
        problem = ptdf_dispatch_lp(H, H.positions(buses), signs, prices, caps,
                              balance, f_const)
        A_ub, b_ub, _ = dense_limit_rows(net, buses, signs, limits, f_const,
                                         caps)
        twin = lp_problem(c=-signs * prices, A_eq=[signs], b_eq=[balance],
                          A_ub=A_ub if len(b_ub) else None, b_ub=b_ub,
                          bounds=[(0.0, cap) for cap in caps])
        for name in ("c", "lo", "hi", "indptr", "indices", "data", "row_lo",
                     "row_hi"):
            np.testing.assert_array_equal(getattr(problem, name),
                                          getattr(twin, name))
        s_twin, s = solve_lp(twin), solve_lp(problem)
        assert s.objective == s_twin.objective
        for name in ("x", "row_duals"):
            np.testing.assert_array_equal(getattr(s, name),
                                          getattr(s_twin, name))


def test_sparse_column_mismatch_rejected():
    # column pointers for 3 columns, but c has 2
    with pytest.raises(ValueError, match="malformed CSC"):
        LpProblem(c=[1.0, 2.0], lo=[0.0, 0.0], hi=[1.0, 1.0],
                  indptr=[0, 1, 2, 3], indices=[0, 0, 0],
                  data=[1.0, 1.0, 1.0], row_lo=[-INF], row_hi=[1.0])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), at_reach=st.floats(0.0, 1.0),
       balance=st.sampled_from([0.0, 3.0, -7.5]))
def test_emptied_rows_change_neither_the_optimum_nor_a_price(seed, at_reach,
                                                             balance):
    """On random radial markets, with some limits set exactly to the largest
    flow the blocks can push over their line or just below it, the LP whose
    unloadable rows are empty has the objective and the balance and line
    prices of its full-matrix twin, and each emptied row's dual is 0."""
    rng = np.random.default_rng(seed)
    net = random_radial_network(rng, int(rng.integers(2, 20)))
    net, buses, signs, prices, caps, f_const = random_dispatch(rng, net)
    limits, line_order = net.line_limits(), ptdf(net).line_order
    every = dict.fromkeys(line_order, 1.0)
    flows = dense_limit_rows(net, buses, signs, every, f_const)[0][::2]
    for lid, a, f in zip(line_order, flows, f_const):
        most, least = box_flows(a, caps, f)
        reach = max(most, -least)
        if 0.0 < reach < INF and rng.random() < at_reach:
            limits[lid] = float(reach * rng.choice([1.0, 1.0 - 1e-4]))
    net = with_limits(net, limits)
    H = ptdf(net)
    problem = ptdf_dispatch_lp(H, H.positions(buses), signs, prices, caps, balance,
                          f_const)
    twin = full_twin(net, buses, signs, prices, caps, limits, balance, f_const)
    solutions = []
    for lp in (problem, twin):
        try:
            solutions.append(solve_lp(lp))
        except InfeasibleLp:
            solutions.append(None)
    got, ref = solutions
    assert (got is None) == (ref is None)
    if ref is None:
        return
    assert abs(got.objective - ref.objective) <= 1e-9 * max(
        1.0, abs(ref.objective))
    for a, b in zip(ptdf_dispatch_duals(got, H.limited),
                    ptdf_dispatch_duals(ref, H.limited)):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9)
    empty = np.bincount(problem.indices, minlength=problem.row_lo.size) == 0
    assert np.all(got.row_duals[empty] == 0.0)


def test_a_limit_at_the_reachable_maximum_keeps_its_entries():
    """Line b's +row keeps its entry when the block behind it at its cap,
    with the constant flow, reaches the limit exactly or within REACH_TOL,
    and loses it beyond; with nothing producing behind b, its -row is
    empty."""
    def b_rows(limit, cap, f0):
        H = ptdf(chain(limits=(INF, limit)))
        problem = ptdf_dispatch_lp(H, H.positions([0, 2]), [-1.0, 1.0],
                                 [1.0, 9.0], [INF, cap],
                                 f_const=np.array([f0, f0]))
        return lp_matrix(problem)[:, 1].tolist()

    assert b_rows(5.0, 5.0, 0.0) == [1.0, 0.0, 1.0]
    assert b_rows(5.0, 3.5, 1.5) == [1.0, 0.0, 1.0]
    assert b_rows(5.0 * (1 + 0.5 * REACH_TOL), 5.0, 0.0) == [1.0, 0.0, 1.0]
    assert b_rows(5.0 * (1 + 2 * REACH_TOL), 5.0, 0.0) == [0.0, 0.0, 1.0]
    assert b_rows(5.0, 3.4, 1.5) == [0.0, 0.0, 1.0]


def test_an_infinite_cap_off_the_root_keeps_every_row_on_its_path():
    rng = np.random.default_rng(12)
    net = random_radial_network(rng, 15)
    H = ptdf(net)
    E = ptdf_entries(H)
    deep = H.bus_order[int(E.sum(axis=0).argmax())]
    buses, signs = [0, deep, deep, 0], np.array([-1.0, 1.0, -1.0, 1.0])
    caps = [INF, INF, INF, INF]
    problem = ptdf_dispatch_lp(H, H.positions(buses), signs, [1.0, 5.0, 2.0, 0.0],
                          caps)
    ref_A = dense_limit_rows(net, buses, signs, net.line_limits())[0]
    assert np.count_nonzero(ref_A) == 2 * 2 * E[:, H.bus_index[deep]].sum()
    np.testing.assert_array_equal(lp_matrix(problem),
                                  np.vstack([ref_A, signs]))


def test_the_reach_rule_raises_no_runtime_warning():
    """Unlimited lines under infinite caps, caps whose sum overflows to inf
    and constant flows far beyond the limits raise no RuntimeWarning, in the
    zone form or in its PTDF twin."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for caps, f0 in (([INF, INF, INF], 0.0), ([INF, 1e308, 1e308], 0.0),
                         ([INF, 1.0, 1.0], 1e300), ([INF, 1e25, 0.0], -1e25)):
            for limits in ((INF, 5.0), (INF, INF), (1e25, 5.0)):
                H = ptdf(chain(limits))
                for form in (dispatch_lp, ptdf_dispatch_lp):
                    try:
                        form(H, H.positions([0, 2, 2]), [-1.0, 1.0, 1.0],
                             [1.0, 2.0, 3.0], caps, f_const=np.array([f0, f0]))
                    except NumericalFailure:    # a bound or side of 1e20+
                        pass


@pytest.mark.parametrize("segments", [2, 7, 10, 20, 100])
def test_case34_clears_as_with_every_row_entry(segments, monkeypatch):
    """On case34, where 65 of the 66 line rows are emptied and block prices
    tie (c19 and c21), `clear` on the PTDF twin returns bit for bit the
    Dispatch it returns from the full-matrix twin: emptied rows, unlike
    dropped ones, leave the vertex HiGHS returns as it was."""
    net = load_case(os.path.join(CASES, "case34.txt"))
    with open(os.path.join(CASES, "bids34.txt"), encoding="utf-8") as f:
        bids, offers = parse_bids(f.read())
    market = MarketInput(bids=bids, offers=offers, network=net)
    emptied = []

    def pruned_twin(H, buses, signs, prices, caps):
        problem = ptdf_dispatch_lp(H, buses, signs, prices, caps)
        emptied.append(np.count_nonzero(np.bincount(
            problem.indices, minlength=problem.row_lo.size) == 0))
        return problem, None

    def with_every_entry(H, buses, signs, prices, caps):
        return full_twin(net, [net.buses[p] for p in buses], signs, prices,
                         caps, net.line_limits(), 0.0, None), None

    monkeypatch.setattr(clearing, "solve_lp", solve_lp)
    monkeypatch.setattr(clearing, "dispatch_lp", pruned_twin)
    pruned = clear(market, segments)
    monkeypatch.setattr(clearing, "dispatch_lp", with_every_entry)
    assert repr(clear(market, segments)) == repr(pruned)
    assert emptied == [65]
