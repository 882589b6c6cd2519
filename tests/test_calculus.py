"""Derivatives of 1/ln x: exact coefficients and the finite-difference verifier."""

import math
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gregory import _kernels
from gregory import (
    FiniteDifferenceResult,
    central_difference_weights,
    evaluate_expansion,
    expansion_from_row,
    finite_difference_check,
    reciprocal_log_derivative_coeffs,
    stirling_row,
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
    # Order 0 has no expansion of this form, so the row of s(0, .) gives none.
    with pytest.raises(ValueError, match="n must be >= 1"):
        expansion_from_row(0, stirling_row(0))


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
    # The value, about 1e600 / ln(1e-300)**2, is beyond float range.
    with pytest.raises(ValueError, match="beyond float range"):
        evaluate_expansion(reciprocal_log_derivative_coeffs(2, triangle), 1e-300)
    # The value of an expansion with no nonzero coefficient is exactly 0, which
    # no working precision confirms.  A subprocess, so that a regression to
    # doubling the precision without end times out instead of hanging.
    script = (
        "from gregory import evaluate_expansion\n"
        "for coeffs in ([], [0], [0, 0, 0]):\n"
        "    try:\n"
        "        evaluate_expansion(coeffs, 2.0)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=10)
    assert proc.stdout == "the expansion has no nonzero coefficient\n" * 3
    # The closed form cuts each coefficient by its bit length: ints only.
    for coeffs in ([Fraction(1, 2)], [0.5], ["1"]):
        with pytest.raises(TypeError, match="coeffs must be ints"):
            evaluate_expansion(coeffs, 2.0)
    assert evaluate_expansion([True], 2.0) == evaluate_expansion([1], 2.0)


@pytest.mark.parametrize("n, x", [(170, 10.0), (158, 3.0)])
def test_evaluate_matches_decimal_where_the_coefficients_pass_float_range(n, x):
    # The largest c_k passes float range at these orders, but f^(n)(x) does
    # not: about 4.8e143 at (170, 10.0) and 2.5e232 at (158, 3.0).  The
    # oracle sums the same closed form in 60-digit Decimal, with its own ln.
    coeffs = expansion_from_row(n, stirling_row(n))
    assert max(map(abs, coeffs)) > 10**309
    with localcontext() as ctx:
        ctx.prec = 60
        u = 1 / Decimal(x).ln()
        expected = sum(Decimal(c) * u ** (k + 1) for k, c in enumerate(coeffs, 1)) / Decimal(x) ** n
    assert evaluate_expansion(coeffs, x) == pytest.approx(float(expected), rel=1e-12)


def test_evaluate_refuses_a_value_past_float_range_either_way():
    # f^(400)(10) is past 1e308; f''(1e300), about 2e-606, is not 0 but
    # rounds to 0.0.
    with pytest.raises(ValueError, match="order 400 at x=10.0 is beyond float range"):
        evaluate_expansion(expansion_from_row(400, stirling_row(400)), 10.0)
    with pytest.raises(ValueError, match="order 2 at x=1e\\+300 is beyond float range"):
        evaluate_expansion(expansion_from_row(2, stirling_row(2)), 1e300)


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
    """(n, x, h) with x > 1 and the stencil right of the pole: h is the room
    (x - 1) / m scaled down by 10**e, e drawn from [0, 40], so steps from the
    edge of the pole down to 40 decades finer are drawn."""
    n = draw(st.integers(1, 6))
    x = draw(st.floats(1.0, 1e300, exclude_min=True))
    return n, x, (x - 1) / ((n + 1) // 2) * 10 ** -draw(st.floats(0.0, 40.0))


@settings(max_examples=300, deadline=None)
@given(_stencil())
# The CLI cases at whose steps every point of the double-precision stencil
# rounded to x, one whose floor left float range, and one near the pole.
@example((1, 2.0, 5e-324))
@example((3, 1.5, 1e-17))
@example((6, 3.0, 1e-60))
@example((1, 1e300, 1e299))
@example((6, 1.0000001, 1e-9))
def test_every_valid_stencil_gets_a_verdict_near_its_floor(case):
    n, x, h = case
    m = (n + 1) // 2
    # In exact arithmetic, as the check reads its points: past 2**53 the
    # float x - m * h can exceed 1 where the exact stencil reaches t = 1.
    assume(h > 0 and Fraction(x) - m * Fraction(h) > 1)
    result = finite_difference_check(n, x, h, 1.0)
    assert math.isfinite(result.residual)
    assert result.passed == (result.residual <= 1.0)
    if m * h <= (x - 1) / 10:
        # The exact stencil misses by its truncation alone, whose leading term
        # is the floor: the next one is about 1% of it at such a step.
        assert abs(result.residual - result.floor) <= 0.1 * result.floor


@pytest.mark.parametrize(
    "n, x",
    [(7, 3.0), (1, 2.0), (2, 1.5), (5, 10.0), (12, 2.5), (3, 0.5), (4, 1.0000001),
     # next to the inflection point e**-2 of 1/ln x, where the terms cancel
     (2, 0.1353352832366127)],
)
def test_evaluate_is_the_correctly_rounded_derivative(n, x):
    # mpmath differentiates 1/ln t numerically at 60 digits, without the
    # closed form.
    with mpmath.workdps(60):
        reference = mpmath.diff(lambda t: 1 / mpmath.log(t), mpmath.mpf(x), n)
    assert evaluate_expansion(expansion_from_row(n, stirling_row(n)), x) == float(reference)


def test_evaluate_keeps_its_digits_where_coefficients_of_both_signs_cancel():
    # Every derivative's coefficients share one sign, but an expansion of
    # mixed signs is accepted too: here c_1 u^2 and c_2 u^3, u = 1/ln 2, each
    # about 2e30, cancel to about 0.13, so a bound that summed the signed terms
    # would keep 40 digits and get the tenth one wrong.
    c1 = 10**30
    with mpmath.workdps(60):
        c2 = -int(mpmath.nint(c1 * mpmath.log(2)))
        u = 1 / mpmath.log(2)
        exact = (c1 * u**2 + c2 * u**3) / 4
    assert evaluate_expansion([c1, c2], 2.0) == float(exact) == 0.13254880265290683


def test_evaluate_keeps_its_digits_where_the_terms_cancel():
    # At x = 0.5, u = 1/ln x < 0 and the terms of f^(120) cancel in 36 digits:
    # summed at 40 digits, the value would be wrong in its fifth.  The oracle
    # is the same sum at 200 digits in mpmath.
    coeffs = expansion_from_row(120, stirling_row(120))
    with mpmath.workdps(200):
        u = 1 / mpmath.log(mpmath.mpf(0.5))
        exact = sum(c * u ** (k + 1) for k, c in enumerate(coeffs, 1)) / mpmath.mpf(0.5) ** 120
    assert evaluate_expansion(coeffs, 0.5) == float(exact) == -1.778204702796069e235


def test_expansion_matches_the_derivative_recursion():
    # With u = 1/ln x and du/dx = -u^2/x, differentiating x^(-n) sum_k c_k u^(k+1)
    # gives the order-(n+1) expansion c'_k = -n c_k - k c_(k-1), from c_1 = -1
    # at n = 1: the paper's first result by induction, without Stirling numbers.
    rows = _kernels.stirling_rows(400)
    next(rows)  # row 0
    coeffs = [-1]
    for n, s_row in enumerate(rows, 1):
        assert expansion_from_row(n, s_row) == coeffs
        pairs = zip([0, *coeffs], [*coeffs, 0])  # (c_(k-1), c_k) for k = 1 .. n+1
        coeffs = [-n * c - k * prev for k, (prev, c) in enumerate(pairs, 1)]
    assert n == 400
