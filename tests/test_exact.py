"""Arithmetic substrate: factorial, harmonic numbers, rendering helpers."""

import math
import random
from decimal import MAX_EMAX, ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gregory import decimal_string, format_rational, harmonic


def test_factorial_examples():
    assert factorial(0) == 1
    assert factorial(5) == 120


def test_factorial_20_against_iterated_multiplication():
    expected = 1
    for i in range(1, 21):
        expected *= i
    assert factorial(20) == expected == 2432902008176640000


def test_factorial_recurrence():
    for n in range(1, 80):
        assert factorial(n) == n * factorial(n - 1)


def test_factorial_negative_rejected():
    with pytest.raises(ValueError):
        factorial(-1)


def test_harmonic_examples():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(10) == Fraction(7381, 2520)


def test_harmonic_difference_is_reciprocal():
    prev = harmonic(0)
    for n in range(1, 201):
        cur = harmonic(n)
        assert cur - prev == Fraction(1, n)
        prev = cur


def test_harmonic_negative_rejected():
    with pytest.raises(ValueError):
        harmonic(-3)


def test_harmonic_outputs_normalized():
    for n in range(0, 60):
        h = harmonic(n)
        assert h.denominator > 0
        assert math.gcd(h.numerator, h.denominator) == 1


def test_format_parse_round_trip_random():
    rng = random.Random(401)
    for _ in range(300):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        assert Fraction(format_rational(q)) == q


def test_format_uses_integer_string_for_integers():
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-19, 720)) == "-19/720"


@pytest.mark.parametrize(
    "num, den, digits, expected",
    [
        (-19, 720, 10, "-0.0263888889"),
        (1, 2, 0, "0"),     # half rounds to even
        (3, 2, 0, "2"),
        (1, 8, 2, "0.12"),  # 0.125 -> even neighbor
        (3, 8, 2, "0.38"),
        (1, 4, 1, "0.2"),
        (3, 4, 1, "0.8"),
        (0, 1, 2, "0.00"),
        (-1, 1000, 2, "0.00"),  # sign dropped once rounded to zero
        (22, 7, 4, "3.1429"),
        (-22, 7, 4, "-3.1429"),
    ],
)
def test_decimal_string_round_half_even(num, den, digits, expected):
    assert decimal_string(Fraction(num, den), digits) == expected


@given(
    st.integers(-10**30, 10**30),
    st.integers(1, 10**15),
    st.integers(0, 40),
)
@example(1, 8, 2)  # a tie, to the even neighbour
@example(-5, 2, 0)
@example(-1, 1000, 2)  # rounds to a zero without sign
def test_decimal_string_matches_decimal_quantize(num, den, digits):
    q = Fraction(num, den)
    assert decimal_string(q, digits) == _quantized(q, digits)


def _quantized(q, digits):
    """p/q rounded half-even to the given places by Decimal.quantize."""
    # A run of 0s or 9s in the expansion of p/q is shorter than q has digits,
    # so with this many guard places the first rounding cannot make a tie.
    guard = len(str(q.denominator)) + 2
    with localcontext() as ctx:
        ctx.prec = len(str(abs(q.numerator) // q.denominator)) + digits + guard
        quotient = Decimal(q.numerator) / Decimal(q.denominator)
        rounded = quotient.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    expected = format(rounded, "f")
    if rounded == 0:
        expected = expected.lstrip("-")
    return expected


def test_decimal_string_at_200000_places():
    # Repeating decimals, known digit by digit, and a rational with a
    # 129-digit denominator against Decimal.quantize.
    d = 200_000
    assert decimal_string(Fraction(11, 6), d) == "1.8" + "3" * (d - 1)
    assert decimal_string(Fraction(-2, 3), d) == "-0." + "6" * (d - 1) + "7"
    assert decimal_string(Fraction(1, 7), d) == "0." + "142857" * (d // 6) + "14"
    assert decimal_string(Fraction(22, 7), d) == "3." + "142857" * (d // 6) + "14"
    q = -harmonic(300)
    assert decimal_string(q, d) == _quantized(q, d)


def test_decimal_string_rejects_negative_digits():
    with pytest.raises(ValueError):
        decimal_string(Fraction(1, 3), -1)


@pytest.mark.parametrize("q, digits", [
    (Fraction(137, 60), MAX_EMAX),  # 137 * 10**MAX_EMAX overflows
    (Fraction(3, 160), 10**18),
    (Fraction(-1, 3), 10**19),  # past the shift scaleb accepts at all
])
def test_decimal_string_past_the_exponent_range_is_a_value_error(q, digits):
    with pytest.raises(ValueError, match="past the Decimal exponent range"):
        decimal_string(q, digits)
