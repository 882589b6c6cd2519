"""Kernels against an independent oracle, the nested sum table's (num, den)
invariants, and property tests of the exact sum, the series product and
division against plain Fractions."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gregory import _kernels


def test_stirling_rows_match_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    rows = list(_kernels.stirling_rows(60))
    expected = [
        [int(numbers.stirling(n, k, kind=1, signed=True)) for k in range(n + 1)]
        for n in range(61)
    ]
    assert rows == expected


def test_pairs_are_normalized():
    table = _kernels.nested_sum_table(6, 12)
    for row in table:
        for num, den in row:
            assert den > 0
            assert gcd(num, den) == 1


def _fraction_nested_sums(size):
    """S[d][m] for d, m < size by S[d][m] = S[d][m-1] + S[d-1][m-1]/m in
    plain Fractions, with S[0][m] = 1 and S[d][0] = 0 for d >= 1."""
    table = [[Fraction(1)] * size]
    for _ in range(1, size):
        row = [Fraction(0)]
        for m in range(1, size):
            row.append(row[m - 1] + table[-1][m - 1] / m)
        table.append(row)
    return table


def test_nested_sum_table_matches_fractions_at_every_size():
    # The kernel sums over max_top!, so each (max_depth, max_top) is a
    # different denominator: check every table, not only the largest.
    expected = _fraction_nested_sums(31)
    for depth in range(31):
        for top in range(31):
            assert _kernels.nested_sum_table(depth, top) == [
                [(f.numerator, f.denominator) for f in row[: top + 1]]
                for row in expected[: depth + 1]
            ], (depth, top)


def test_div_rejects_zero_leading_coefficient():
    with pytest.raises(ZeroDivisionError):
        _kernels.series_div_pairs([1], [Fraction(0)])


# Every fraction with denominator <= 36 and |value| <= 40, and more; built
# from two integers because st.fractions draws about six times slower.
_coeff = st.builds(Fraction, st.integers(-40 * 36, 40 * 36), st.integers(1, 36))
_lead = _coeff.filter(bool)
# Enough terms to cross three seams of the kernels' block sums.
_SEAMS = 3 * _kernels._BLOCK + 2


@st.composite
def _division(draw):
    """(num, den) coefficient lists of one length; den has a nonzero lead."""
    size = draw(st.integers(1, _SEAMS))
    num = draw(st.lists(_coeff, min_size=size, max_size=size))
    den = [draw(_lead)] + draw(st.lists(_coeff, min_size=size - 1, max_size=size - 1))
    return num, den


def _fraction_quotient(num, den):
    """q with (q * den)[j] = num[j], by long division in plain Fractions."""
    q = []
    for j, nj in enumerate(num):
        q.append((nj - sum(q[i] * den[j - i] for i in range(j))) / Fraction(den[0]))
    return q


def _all_fractions(coeffs):
    return all(type(c) is Fraction for c in coeffs)


@settings(max_examples=200, deadline=None)
@given(_division())
# Always run a negative lead with non-unit denominators and zero coefficients.
@example(
    ([0, Fraction(3, 4), 0, Fraction(-5, 6)], [Fraction(-2, 3), 0, Fraction(7, 10), Fraction(1, 9)])
)
@example(([1], [Fraction(-1, 7)]))
# Int coefficients beside Fractions, as bernoulli2_series divides the int
# series of x by ln(1+x) once the shared factor x is cancelled.
@example(([1, 0, 0, 0, 0], [Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), 5]))
@example(([3, -2, Fraction(1, 6)], [2, 0, -7]))
# A lead denominator (7) that divides no other denominator of the divisor.
@example(
    (
        [1] + [0] * (_SEAMS - 1),
        [Fraction(2, 7)] + [Fraction((-1) ** m, m % 6 + 1) for m in range(1, _SEAMS)],
    )
)
# Non-unit numerators in every coefficient of the divisor.
@example(
    (
        [Fraction(m - 3, 2 * m + 1) for m in range(_SEAMS)],
        [Fraction(-3, 4)] + [Fraction(2 * m + 3, m % 5 + 2) for m in range(1, _SEAMS)],
    )
)
def test_div_pairs_are_normalized_and_invert_mul(case):
    num, den = case
    q = _kernels.series_div_pairs(num, den)
    assert _all_fractions(q)
    assert q == _fraction_quotient(num, den)
    for c in q:
        assert c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
    assert _kernels.series_mul_pairs(q, den) == num


@st.composite
def _product(draw):
    """Two coefficient lists of one length, as Fractions."""
    size = draw(st.integers(1, 12))
    return (
        draw(st.lists(_coeff, min_size=size, max_size=size)),
        draw(st.lists(_coeff, min_size=size, max_size=size)),
    )


@settings(max_examples=200, deadline=None)
@given(_product())
# Always run zero coefficients, negative numerators and non-unit denominators,
# with int coefficients beside Fractions.
@example(([0, Fraction(-3, 4), Fraction(5, 6)], [Fraction(2, 9), 0, Fraction(-7, 10)]))
@example(([0], [Fraction(-1, 3)]))
@example(([1, -2, 3], [4, 0, -5]))
def test_mul_pairs_is_the_fraction_cauchy_product(case):
    a, b = case
    product = [sum(Fraction(a[i]) * b[j - i] for i in range(j + 1)) for j in range(len(a))]
    result = _kernels.series_mul_pairs(a, b)
    assert _all_fractions(result)
    assert result == product


_den = st.integers(-60, 60).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**30, 10**30), _den), max_size=_SEAMS))
# Always run no terms, negative numerators and repeated denominators.
@example([])
@example([(-3, 4), (5, 4), (-7, 6), (0, 6), (1, 1)])
# Negative denominators, alone and beside their positive twins.
@example([(5, -3), (-7, 3), (2, -60), (1, -1)])
# Always cross three block seams: the prefixes include m = 0, the multiples
# of _BLOCK, and a run cut short on each side of every seam.
@example([((-1) ** i * (i + 1) ** 20, i % 60 + 1) for i in range(_SEAMS)])
def test_lcm_sum_is_the_fraction_sum_over_the_lcm(terms):
    # One plan serves the sum over every prefix of its denominators.  The
    # sum reads whole runs, so L is the lcm of every run it reaches.
    nums = [n for n, _ in terms]
    dens = [d for _, d in terms]
    plan = _kernels.lcm_plan(dens)
    block = _kernels._BLOCK
    for m in range(len(terms) + 1):
        total, big = _kernels.lcm_sum(nums[:m], plan)
        assert big == lcm(*dens[: -(-m // block) * block])
        assert big % lcm(*dens[:m]) == 0
        assert Fraction(total, big) == sum(map(Fraction, nums[:m], dens), Fraction(0))
    # A plan without the prefix lcms gives the same sum over all of dens.
    assert _kernels.lcm_sum(nums, _kernels.lcm_plan(dens, prefixes=False)) == (total, big)


def test_lcm_sum_rejects_more_terms_than_the_plan():
    with pytest.raises(ValueError):
        _kernels.lcm_sum([1, 2], _kernels.lcm_plan([3]))
    with pytest.raises(ValueError):
        _kernels.lcm_sum([1], _kernels.lcm_plan([]))
