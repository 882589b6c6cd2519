"""Kernels against an independent oracle, plus their (num, den) invariants."""

from math import gcd

import pytest

from gregory import _kernels


def test_stirling_rows_match_sympy():
    numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")
    rows = _kernels.stirling_rows(60)
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
