"""Kernels against an independent oracle, their (num, den) invariants, and
property tests of series division."""

from math import gcd

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


def test_div_rejects_zero_leading_coefficient():
    with pytest.raises(ZeroDivisionError):
        _kernels.series_div_pairs([(1, 1)], [(0, 1)])


_coeff = st.fractions(min_value=-40, max_value=40, max_denominator=36)
_lead = _coeff.filter(bool)


@st.composite
def _division(draw):
    """(num, den) coefficient lists of one length; den has a nonzero lead."""
    size = draw(st.integers(1, 12))
    num = draw(st.lists(_coeff, min_size=size, max_size=size))
    den = [draw(_lead)] + draw(st.lists(_coeff, min_size=size - 1, max_size=size - 1))
    return [(c.numerator, c.denominator) for c in num], [
        (c.numerator, c.denominator) for c in den
    ]


@settings(max_examples=200, deadline=None)
@given(_division())
# Always run a negative lead with non-unit denominators and zero coefficients.
@example(([(0, 1), (3, 4), (0, 1), (-5, 6)], [(-2, 3), (0, 1), (7, 10), (1, 9)]))
@example(([(1, 1)], [(-1, 7)]))
def test_div_pairs_are_normalized_and_invert_mul(case):
    num, den = case
    q = _kernels.series_div_pairs(num, den)
    assert len(q) == len(num)
    for qn, qd in q:
        assert qd > 0
        assert gcd(qn, qd) == 1
        assert qn or qd == 1
    assert _kernels.series_mul_pairs(q, den) == num

