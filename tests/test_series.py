"""Truncated power series: the generating-function oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gregory import (
    bernoulli2_series,
    log1p_series,
    series_div,
    series_mul,
    series_pow,
    stirling_gf_coeff,
    stirling_row,
    stirling_triangle,
)
F = Fraction

GOLDEN_B = [F(1), F(1, 2), F(-1, 12), F(1, 24), F(-19, 720), F(3, 160)]


def S(*coeffs):
    return tuple(map(F, coeffs))


def one(order):
    return S(1, *[0] * order)


def x(order):
    return S(0, 1, *[0] * (order - 1))


def test_log1p_examples():
    assert log1p_series(0) == (0,)
    assert log1p_series(3) == S(0, 1, F(-1, 2), F(1, 3))
    assert log1p_series(5)[5] == F(1, 5)


def test_log1p_rejects_negative_order():
    with pytest.raises(ValueError):
        log1p_series(-1)


def test_mul_examples():
    assert series_mul(S(1, 1), S(1, 1)) == S(1, 2)
    assert series_mul(S(0, 1, 0), S(0, 1, 0)) == S(0, 0, 1)
    sq = series_mul(log1p_series(4), log1p_series(4))
    assert sq[3] == F(-1)  # 2 * (1) * (-1/2)


def test_mul_order_mismatch_rejected():
    with pytest.raises(ValueError, match="order mismatch: 1 vs 2"):
        series_mul(S(1, 1), S(1, 1, 1))
    with pytest.raises(ValueError, match="order mismatch"):
        series_div(S(1, 1), S(1, 1, 1))


def test_empty_series_rejected():
    for call in (
        lambda: series_mul((), ()),
        lambda: series_div((), ()),
        lambda: series_div(S(1), ()),
        lambda: series_pow((), 0),
    ):
        with pytest.raises(ValueError, match="constant term"):
            call()


def test_results_are_tuples_of_fractions():
    # Plain int coefficients are accepted; every result holds Fractions.
    for result in (
        log1p_series(3),
        series_mul((1, 1), (1, 1)),
        series_div((0, 2, 0), (0, 1, 1)),
        series_pow((1, 1), 0),
        series_pow((1, 1), 2),
    ):
        assert type(result) is tuple
        assert all(type(c) is F for c in result)


def test_div_geometric():
    assert series_div(S(1, 0, 0), S(1, 1, 0)) == S(1, -1, 1)


def test_div_bernoulli_prefix():
    # x / ln(1+x) needs order 4 inputs to determine coefficients through x^3
    q = series_div(x(4), log1p_series(4))
    assert q == S(1, F(1, 2), F(-1, 12), F(1, 24))
    assert len(q) - 1 == 3


def test_div_self_is_one():
    for s in (S(3, 1, 4), S(1, 0, -2, 7), log1p_series(5)):
        v = next(j for j, c in enumerate(s) if c)
        assert series_div(s, s) == one(len(s) - 1 - v)


def test_div_by_zero_series_rejected():
    with pytest.raises(ZeroDivisionError):
        series_div(S(1, 2), S(0, 0))


def test_div_valuation_violation_rejected():
    with pytest.raises(ValueError):
        series_div(S(1, 0, 0), S(0, 1, 0))  # 1/x is not a power series


def test_div_mul_round_trip_random():
    rng = random.Random(77)
    for _ in range(60):
        order = rng.randint(1, 8)
        a = tuple(F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1))
        b_coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)]
        b_coeffs[0] = F(rng.randint(1, 9), rng.randint(1, 9))  # unit constant term
        b = tuple(b_coeffs)
        assert series_mul(series_div(a, b), b) == a


def test_div_round_trip_with_valuation_shift():
    b = log1p_series(6)  # valuation 1
    a = series_mul(x(6), b)  # valuation 2
    q = series_div(a, b)
    assert len(q) - 1 == 5
    assert q == x(5)


def test_pow_examples():
    s = log1p_series(3)
    assert series_pow(s, 0) == one(3)
    assert series_pow(s, 1) == s
    assert series_pow(log1p_series(4), 2)[2] == F(1)
    with pytest.raises(ValueError):
        series_pow(s, -1)


def _kfold_pow(s, k):
    """s^k as k successive truncated products: the oracle of series_pow."""
    result = one(len(s) - 1)
    for _ in range(k):
        result = series_mul(result, s)
    return result


_pow_coeff = st.one_of(
    st.integers(-40, 40),
    st.builds(F, st.integers(-40 * 36, 40 * 36), st.integers(1, 36)),
)


@st.composite
def _powered(draw):
    """(s, k): a series of order 0..12 with valuation 0..3 (or all zero when
    the order is below it), a lead of either sign, and k in 0..8."""
    order = draw(st.integers(0, 12))
    v = min(draw(st.integers(0, 3)), order + 1)
    lead = draw(_pow_coeff.filter(bool)) * draw(st.sampled_from((1, -1)))
    size = max(order - v, 0)
    rest = draw(st.lists(_pow_coeff, min_size=size, max_size=size))
    s = ((0,) * v + (lead, *rest))[: order + 1]
    return s, draw(st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(_powered())
# A negative Fraction lead under a valuation, int coefficients, the zero
# series, and v * k past the order.
@example(((0, F(-2, 3), 5, F(1, 7), 0, -4), 2))
@example(((0, 0, 0), 3))
@example(((0, 0, 0), 0))
@example(((0, 0, 1, 1), 2))
@example(((-3,), 8))
def test_pow_is_the_kfold_product(case):
    s, k = case
    result = series_pow(s, k)
    assert type(result) is tuple
    assert all(type(c) is F for c in result)
    assert result == _kfold_pow(s, k)


def test_pow_of_the_log_series_at_every_k():
    # Miller's recurrence against the k-fold product at every k of order 30.
    log = log1p_series(30)
    power = one(30)
    for k in range(31):
        assert series_pow(log, k) == power, k
        power = series_mul(power, log)


def test_stirling_gf_examples():
    assert stirling_gf_coeff(1, 1, 1) == 1
    assert stirling_gf_coeff(3, 2, 3) == -3
    assert stirling_gf_coeff(4, 2, 4) == 11


def test_stirling_gf_range_check():
    with pytest.raises(ValueError):
        stirling_gf_coeff(3, 5, 10)
    with pytest.raises(ValueError):
        stirling_gf_coeff(5, 1, 4)


def test_stirling_gf_is_integral_and_matches_triangle():
    top = 15
    triangle = stirling_triangle(top)
    log = log1p_series(top)
    power = one(top)
    for k in range(1, top + 1):
        power = series_mul(power, log)
        for n in range(k, top + 1):
            value = stirling_gf_coeff(n, k, top) if n <= 6 else _from_power(power, n, k)
            assert value.denominator == 1
            assert value == triangle.value(n, k)


def _from_power(power, n, k):
    from math import factorial

    return power[n] * factorial(n) / factorial(k)


@pytest.mark.parametrize("n, ks", [(120, range(1, 121)), (200, (100,))])
def test_stirling_gf_matches_the_row_past_the_benchmark_grid(n, ks):
    # Past the n = 60 up to which the benchmark runs this route; the k-fold
    # product made these sizes too slow to test.
    row = stirling_row(n)
    for k in ks:
        assert stirling_gf_coeff(n, k, n) == row[k], k


def test_bernoulli2_series_examples():
    assert bernoulli2_series(0) == [F(1)]
    assert bernoulli2_series(2) == [F(1), F(1, 2), F(-1, 12)]
    assert bernoulli2_series(5) == GOLDEN_B
    assert bernoulli2_series(6)[4] == F(-19, 720)
    with pytest.raises(ValueError):
        bernoulli2_series(-1)
