"""Stirling numbers of the first kind: four routes against the triangle."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gregory import (
    ASequence,
    StirlingTriangle,
    a_rows,
    harmonic,
    harmonic_from_stirling,
    stirling_closed_form,
    stirling_column_recurrence,
    stirling_nested_sum,
    stirling_nested_sum_direct,
    stirling_row,
    stirling_triangle,
)


@pytest.fixture(scope="module")
def triangle():
    return stirling_triangle(40)


def test_triangle_small_rows(triangle):
    assert triangle.row(0) == (1,)
    assert triangle.row(1) == (0, 1)
    assert triangle.row(2) == (0, -1, 1)
    assert triangle.row(3) == (0, 2, -3, 1)
    assert triangle.row(4) == (0, -6, 11, -6, 1)
    assert triangle.value(5, 3) == 35


def test_triangle_bounds(triangle):
    with pytest.raises(ValueError):
        triangle.value(41, 0)
    with pytest.raises(ValueError):
        triangle.value(4, 5)
    with pytest.raises(ValueError):
        stirling_triangle(-1)


_FAKE_ROWS = st.lists(st.lists(st.integers(), max_size=4), max_size=5)

# (table, first n, first k, the rows it holds)
_TABLES = st.one_of(
    st.integers(0, 12).map(
        lambda m: (stirling_triangle(m), 0, 0, [stirling_row(n) for n in range(m + 1)])
    ),
    st.integers(1, 12).map(lambda m: (ASequence.build(m), 1, 2, list(a_rows(m)))),
    _FAKE_ROWS.map(lambda rows: (StirlingTriangle(rows), 0, 0, rows)),
    _FAKE_ROWS.map(lambda rows: (ASequence(rows), 1, 2, rows)),
)


@given(_TABLES)
def test_table_reads_inside_its_rows_and_rejects_just_outside(case):
    table, first_n, first_k, rows = case
    assert table.max_n == first_n + len(rows) - 1
    for n, row in enumerate(rows, first_n):
        assert table.row(n) == tuple(row)
        for k, v in enumerate(row, first_k):
            assert table.value(n, k) == v
        for k in (first_k - 1, first_k + len(row)):
            with pytest.raises(ValueError):
                table.value(n, k)
    for n in (first_n - 1, table.max_n + 1):
        with pytest.raises(ValueError):
            table.row(n)
        with pytest.raises(ValueError):
            table.value(n, first_k)


def test_row_alone_matches_triangle(triangle):
    assert [stirling_row(n) for n in range(41)] == [triangle.row(n) for n in range(41)]
    with pytest.raises(ValueError):
        stirling_row(-1)


def test_nested_sum_examples():
    assert stirling_nested_sum(3, 1) == 2
    assert stirling_nested_sum(4, 2) == 11
    assert stirling_nested_sum(5, 5) == 1
    # column 1 is the factorial with alternating sign
    for n in range(1, 9):
        assert stirling_nested_sum(n, 1) == (-1) ** (n + 1) * factorial(n - 1)


def test_nested_sum_matches_triangle(triangle):
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert stirling_nested_sum(n, k) == triangle.value(n, k)


def test_nested_sum_direct_enumeration_matches_memoized():
    for n in range(1, 11):
        for k in range(1, n + 1):
            assert stirling_nested_sum_direct(n, k) == stirling_nested_sum(n, k)


def test_nested_sum_range_check():
    with pytest.raises(ValueError):
        stirling_nested_sum(3, 4)
    with pytest.raises(ValueError):
        stirling_nested_sum(0, 1)


def test_column_recurrence_examples(triangle):
    assert stirling_column_recurrence(2, 2, triangle) == 1
    assert stirling_column_recurrence(3, 2, triangle) == -3
    assert stirling_column_recurrence(5, 3, triangle) == 35


def test_column_recurrence_matches_triangle(triangle):
    for n in range(2, 21):
        for k in range(2, n + 1):
            assert stirling_column_recurrence(n, k, triangle) == triangle.value(n, k)


def test_column_recurrence_matches_triangle_to_150():
    # Every entry 2 <= k <= n <= 150 of the integer Horner sum, whose
    # weights (m+1)...(n-1) reach 149!/1!.
    big = stirling_triangle(150)
    wrong = [
        (n, k)
        for n in range(2, 151)
        for k in range(2, n + 1)
        if stirling_column_recurrence(n, k, big) != big.value(n, k)
    ]
    assert wrong == []


def test_column_recurrence_needs_previous_rows():
    small = stirling_triangle(3)
    with pytest.raises(ValueError):
        stirling_column_recurrence(5, 2, small)
    with pytest.raises(ValueError):
        stirling_column_recurrence(4, 1, small)


def test_closed_form_examples():
    assert stirling_closed_form(5, 1) == 24
    assert stirling_closed_form(4, 2) == 11
    assert stirling_closed_form(6, 5) == -15
    assert stirling_closed_form(7, 7) == 1


def test_closed_form_matches_triangle(triangle):
    for n in range(1, 41):
        assert stirling_closed_form(n, 1) == triangle.value(n, 1)
        assert stirling_closed_form(n, n) == triangle.value(n, n)
        if n >= 2:
            assert stirling_closed_form(n, 2) == triangle.value(n, 2)
            assert stirling_closed_form(n, n - 1) == triangle.value(n, n - 1)


def test_closed_form_unsupported_selector():
    with pytest.raises(ValueError):
        stirling_closed_form(10, 5)
    with pytest.raises(ValueError):
        stirling_closed_form(0, 1)


def test_harmonic_from_stirling_examples(triangle):
    assert harmonic_from_stirling(1, triangle) == 1
    assert harmonic_from_stirling(3, triangle) == Fraction(11, 6)
    assert harmonic_from_stirling(10, triangle) == Fraction(7381, 2520)


def test_harmonic_relation_against_direct_summation(triangle):
    for n in range(1, 31):
        assert harmonic_from_stirling(n, triangle) == harmonic(n)


def test_harmonic_from_stirling_needs_row_n_plus_1():
    small = stirling_triangle(4)
    with pytest.raises(ValueError):
        harmonic_from_stirling(4, small)


def test_row_sum_invariants(triangle):
    for n in range(2, 41):
        assert sum(triangle.row(n)) == 0
    for n in range(0, 41):
        assert sum(abs(v) for v in triangle.row(n)) == factorial(n)


def test_sign_pattern(triangle):
    for n in range(0, 41):
        for k, v in enumerate(triangle.row(n)):
            assert (-1) ** (n + k) * v >= 0
