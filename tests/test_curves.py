import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridmarket.clearing import curve_params, on_curve
from gridmarket.curves import (
    DOMAIN_TOL, Curve, CurveError, DEMAND, QuantityOutOfRange, SUPPLY,
)
from helpers import (
    NoIntersection, aggregate_intersection, integral, price_at,
    price_at_extended, quantity_at_price, surplus,
)

SUP = Curve(SUPPLY, p_max=3.0, p_min=1.0, q_max=10.0, q_min=0.0)
DEM = Curve(DEMAND, p_max=3.0, p_min=1.0, q_max=10.0, q_min=0.0)


def test_invariants_enforced():
    with pytest.raises(CurveError):
        Curve(SUPPLY, p_max=1.0, p_min=2.0, q_max=10.0, q_min=0.0)
    with pytest.raises(CurveError):
        Curve(DEMAND, p_max=2.0, p_min=1.0, q_max=5.0, q_min=5.0)


def test_price_at_endpoints():
    assert price_at(SUP, 0.0) == 1.0
    assert price_at(SUP, 10.0) == 3.0
    assert price_at(DEM, 0.0) == 3.0
    assert price_at(DEM, 10.0) == 1.0


def test_price_at_midpoint():
    assert price_at(SUP, 5.0) == pytest.approx(2.0)
    assert price_at(DEM, 5.0) == pytest.approx(2.0)


def test_price_at_out_of_range():
    with pytest.raises(QuantityOutOfRange):
        price_at(SUP, 11.0)
    c = Curve(SUPPLY, p_max=2.0, p_min=1.0, q_max=5.0, q_min=2.0)
    with pytest.raises(QuantityOutOfRange):
        price_at(c, 1.0)


def test_price_monotone():
    qs = np.linspace(0, 10, 50)
    ps_s = [price_at(SUP, q) for q in qs]
    ps_d = [price_at(DEM, q) for q in qs]
    assert all(b >= a for a, b in zip(ps_s, ps_s[1:]))
    assert all(b <= a for a, b in zip(ps_d, ps_d[1:]))


def test_surplus_zero_at_no_trade():
    assert surplus(DEM, 0.0, 7.3) == 0.0
    assert surplus(SUP, 0.0, 7.3) == 0.0


def test_surplus_trapezoid_values():
    # demand integral 0..5 is the trapezoid (3+2)/2*5 = 12.5
    assert surplus(DEM, 5.0, 2.0) == pytest.approx(2.5)
    assert surplus(SUP, 5.0, 2.0) == pytest.approx(2.5)


def test_surplus_nonneg_at_own_curve_price():
    for c in (SUP, DEM):
        for q in np.linspace(0, 10, 21):
            assert surplus(c, q, price_at(c, q)) >= -1e-12


def test_integral_endpoint_gap_convention():
    c = Curve(DEMAND, p_max=4.0, p_min=2.0, q_max=10.0, q_min=4.0)
    # [0, q_min) valued at the q_min endpoint price p_max
    assert integral(c, 3.0) == pytest.approx(12.0)
    assert integral(c, 4.0) == pytest.approx(16.0)


def test_intersection_single_pair():
    p, q = aggregate_intersection([SUP], [DEM])
    assert p == pytest.approx(2.0, abs=1e-9)
    assert q == pytest.approx(5.0, abs=1e-7)


def test_intersection_matches_linear_solve():
    rng = np.random.default_rng(5)
    for _ in range(25):
        pmin_s, pmax_s = sorted(rng.uniform(0.5, 6.0, 2))
        pmin_d, pmax_d = sorted(rng.uniform(0.5, 6.0, 2))
        qs = float(rng.uniform(4, 12))
        qd = float(rng.uniform(4, 12))
        sup = Curve(SUPPLY, p_max=pmax_s, p_min=pmin_s, q_max=qs, q_min=0.0)
        dem = Curve(DEMAND, p_max=pmax_d, p_min=pmin_d, q_max=qd, q_min=0.0)
        # interior crossing of the two affine maps
        a1 = (pmax_s - pmin_s) / qs
        a2 = (pmin_d - pmax_d) / qd
        q_star = (pmax_d - pmin_s) / (a1 - a2)
        if not (0 < q_star < min(qs, qd)):
            continue
        p_star = pmin_s + a1 * q_star
        p, q = aggregate_intersection([sup], [dem])
        assert p == pytest.approx(p_star, abs=1e-9)
        assert q == pytest.approx(q_star, abs=1e-6)


def test_intersection_symmetry_two_supplies():
    # two identical supplies vs a demand of double slope: same p* by symmetry
    sup = Curve(SUPPLY, p_max=3.0, p_min=1.0, q_max=10.0, q_min=0.0)
    dem2 = Curve(DEMAND, p_max=3.0, p_min=1.0, q_max=20.0, q_min=0.0)
    p_pair, _ = aggregate_intersection([SUP], [DEM])
    p_two, q_two = aggregate_intersection([sup, sup], [dem2])
    assert p_two == pytest.approx(p_pair, abs=1e-9)
    assert q_two == pytest.approx(10.0, abs=1e-6)


def test_flat_supply_pins_price():
    flat = Curve(SUPPLY, p_max=4.3, p_min=4.3, q_max=100.0, q_min=0.0)
    dem = Curve(DEMAND, p_max=8.0, p_min=1.0, q_max=10.0, q_min=0.0)
    p, q = aggregate_intersection([flat], [dem])
    assert p == pytest.approx(4.3, abs=1e-8)
    assert q == pytest.approx(quantity_at_price(dem, 4.3), abs=1e-6)


def test_no_intersection():
    cheap_dem = Curve(DEMAND, p_max=0.9, p_min=0.1, q_max=5.0, q_min=0.0)
    pricey_sup = Curve(SUPPLY, p_max=9.0, p_min=5.0, q_max=5.0, q_min=1.0)
    with pytest.raises(NoIntersection):
        aggregate_intersection([pricey_sup], [cheap_dem])


@st.composite
def curves_and_quantities(draw):
    """Curves with q_min = 0 and q_min > 0, some flat, each with a quantity
    at 0 or -0, in the gap [0, q_min), at q_min or q_max, within DOMAIN_TOL
    of an end, anywhere in [0, q_max] or out of range."""
    curves, qs = [], []
    for _ in range(draw(st.integers(1, 6))):
        p_min = draw(st.floats(-100.0, 100.0))
        p_max = p_min + draw(st.just(0.0) | st.floats(1e-6, 100.0))
        q_min = draw(st.just(0.0) | st.floats(1e-6, 100.0))
        c = Curve(draw(st.sampled_from([SUPPLY, DEMAND])), p_max, p_min,
                  q_min + draw(st.floats(1e-3, 1000.0)), q_min)
        near = [st.floats(end - DOMAIN_TOL, end + DOMAIN_TOL)
                for end in (0.0, c.q_min, c.q_max)]
        qs.append(draw(st.one_of(
            st.sampled_from([0.0, -0.0, c.q_min, c.q_max]),
            st.floats(0.0, c.q_min, exclude_max=c.q_min > 0),
            st.floats(0.0, c.q_max), *near,
            st.floats(c.q_max, 2 * c.q_max + 1.0),
            st.floats(-1e3, 0.0))))
        curves.append(c)
    return curves, qs


@given(curves_and_quantities())
@example(([Curve(SUPPLY, 3.0, 1.0, 10.0, 2.0), Curve(DEMAND, 5.0, 5.0, 4.0, 0.0)],
          [1.0, -0.0]))
@example(([Curve(DEMAND, 3.0, 1.0, 10.0, 2.0)] * 3,
          [10.0 + DOMAIN_TOL, 2.0 - DOMAIN_TOL, -DOMAIN_TOL]))
@example(([Curve(SUPPLY, 3.0, 1.0, 10.0, 2.0)] * 2, [5.0, 10.0 + 1e-9]))
@example(([Curve(DEMAND, 3.0, 1.0, 10.0, 0.0)] * 2, [4.0, -1e-9]))
@settings(max_examples=300, deadline=None)
def test_array_curve_math_equals_the_scalar_forms_bit_for_bit(case):
    # `clear` and its settlement evaluate every curve at once with
    # curve_params and on_curve: each price and integral is the float
    # price_at_extended and integral return, -0.0 included, and a quantity
    # either of them refuses makes on_curve raise QuantityOutOfRange too
    curves, qs = case
    params = curve_params(curves)
    try:
        expect = [(price_at_extended(c, q), integral(c, q))
                  for c, q in zip(curves, qs)]
    except QuantityOutOfRange:
        with pytest.raises(QuantityOutOfRange):
            on_curve(params, np.array(qs))
        return
    prices, values = on_curve(params, np.array(qs))
    assert [(p.hex(), v.hex()) for p, v in zip(prices.tolist(),
                                               values.tolist())] == [
        (p.hex(), v.hex()) for p, v in expect]
