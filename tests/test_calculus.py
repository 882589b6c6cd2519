"""Derivatives of 1/ln x: exact coefficients and the finite-difference verifier."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gregory import (
    FiniteDifferenceResult,
    central_difference_weights,
    evaluate_expansion,
    finite_difference_check,
    reciprocal_log_derivative_coeffs,
    stirling_triangle,
)


@pytest.fixture(scope="module")
def triangle():
    return stirling_triangle(50)


def test_coefficient_examples(triangle):
    assert reciprocal_log_derivative_coeffs(1, triangle) == [-1]
    assert reciprocal_log_derivative_coeffs(2, triangle) == [1, 2]
    assert reciprocal_log_derivative_coeffs(3, triangle) == [-2, -6, -6]


def test_coefficient_domain(triangle):
    with pytest.raises(ValueError):
        reciprocal_log_derivative_coeffs(0, triangle)
    with pytest.raises(ValueError):
        reciprocal_log_derivative_coeffs(51, triangle)


def test_coefficient_signs_and_diagonal(triangle):
    for n in range(1, 51):
        coeffs = reciprocal_log_derivative_coeffs(n, triangle)
        assert len(coeffs) == n
        for c in coeffs:
            assert c != 0
            assert (c > 0) == ((-1) ** n > 0)
        assert coeffs[-1] == (-1) ** n * math.factorial(n)
        # c_k = (-1)^k k! s(n,k), with k the index plus one
        assert coeffs == [
            (-1) ** k * math.factorial(k) * triangle.value(n, k) for k in range(1, n + 1)
        ]


def test_evaluate_examples(triangle):
    e1 = reciprocal_log_derivative_coeffs(1, triangle)
    e2 = reciprocal_log_derivative_coeffs(2, triangle)
    x = math.e
    assert evaluate_expansion(e1, x) == pytest.approx(-1.0 / x, rel=1e-12)
    assert evaluate_expansion(e2, x) == pytest.approx(3.0 / x**2, rel=1e-12)
    assert evaluate_expansion(e1, 2.0) == pytest.approx(-1.0 / (2 * math.log(2) ** 2), rel=1e-12)


def test_evaluate_domain(triangle):
    e = reciprocal_log_derivative_coeffs(1, triangle)
    with pytest.raises(ValueError):
        evaluate_expansion(e, 1.0)
    with pytest.raises(ValueError):
        evaluate_expansion(e, 0.0)
    with pytest.raises(ValueError):
        evaluate_expansion(e, -2.0)
    # 1e-300 ** 2 underflows to 0.0: the value is beyond float range.
    with pytest.raises(ValueError, match="beyond float range"):
        evaluate_expansion(reciprocal_log_derivative_coeffs(2, triangle), 1e-300)


def test_central_weights_match_standard_tables():
    F = Fraction
    expected = {
        1: ([-1, 0, 1], [F(-1, 2), F(0), F(1, 2)]),
        2: ([-1, 0, 1], [F(1), F(-2), F(1)]),
        3: ([-2, -1, 0, 1, 2], [F(-1, 2), F(1), F(0), F(-1), F(1, 2)]),
        4: ([-2, -1, 0, 1, 2], [F(1), F(-4), F(6), F(-4), F(1)]),
        5: ([-3, -2, -1, 0, 1, 2, 3], [F(-1, 2), F(2), F(-5, 2), F(0), F(5, 2), F(-2), F(1, 2)]),
        6: ([-3, -2, -1, 0, 1, 2, 3], [F(1), F(-6), F(15), F(-20), F(15), F(-6), F(1)]),
    }
    for n, (offsets, weights) in expected.items():
        got_offsets, got_weights = central_difference_weights(n)
        assert got_offsets == offsets
        assert got_weights == weights


def test_finite_difference_passes():
    assert finite_difference_check(1, 2.0, 1e-4, 1e-6).passed
    assert finite_difference_check(3, 3.0, 1e-3, 1e-4).passed


def test_finite_difference_reports_residual():
    result = finite_difference_check(1, 2.0, 1e-4, 1e-30)  # unreachable tolerance
    assert not result.passed
    assert result.residual > 0
    assert result.expected == pytest.approx(result.estimate, rel=1e-6)
    assert result == FiniteDifferenceResult(
        passed=False,
        residual=result.residual,
        expected=result.expected,
        estimate=result.estimate,
        floor=result.floor,
    )


def test_finite_difference_stencil_near_pole_rejected():
    with pytest.raises(ValueError):
        finite_difference_check(1, 1.00005, 1e-4, 1e-6)


def test_finite_difference_domain():
    with pytest.raises(ValueError):
        finite_difference_check(0, 2.0, 1e-4, 1e-6)
    with pytest.raises(ValueError):
        finite_difference_check(7, 2.0, 1e-4, 1e-6)
    with pytest.raises(ValueError):
        finite_difference_check(1, 0.5, 1e-4, 1e-6)
    with pytest.raises(ValueError):
        finite_difference_check(1, 2.0, -1e-4, 1e-6)
    # A negative tolerance is a usage error, not a failed check.
    with pytest.raises(ValueError, match="tol must be >= 0"):
        finite_difference_check(3, 2.0, 1e-3, -1.0)


@st.composite
def _stencil(draw):
    """(n, x, h) with x > 1 and h drawn relative to x: ulp(x) is about
    x * 2**-52, so steps on both sides of the one at which x + j*h rounds
    back to a neighbouring point are drawn."""
    x = draw(st.floats(1.0, 1e6, exclude_min=True))
    return draw(st.integers(1, 6)), x, x * draw(st.floats(2.0**-60, 2.0**-40))


@settings(max_examples=300, deadline=None)
@given(_stencil())
# The steps of the CLI cases, at which every point rounds to x.
@example((1, 2.0, 5e-324))
@example((3, 1.5, 1e-17))
@example((6, 3.0, 1e-60))
def test_step_is_too_small_exactly_when_stencil_points_coincide(case):
    n, x, h = case
    m = (n + 1) // 2
    assume(x - m * h > 1)
    points = [x + j * h for j in range(-m, m + 1)]
    if len(set(points)) < len(points):
        with pytest.raises(ValueError, match="too small: the stencil points"):
            finite_difference_check(n, x, h, 1.0)
    else:
        finite_difference_check(n, x, h, 1.0)
