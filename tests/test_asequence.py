"""The auxiliary table a(n,k): both routes and the probe."""

import decimal
from decimal import Decimal
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gregory import (
    ASequence,
    ProbeReport,
    a_from_stirling,
    a_nested_sum,
    a_row,
    a_rows,
    probe_a_row,
    probe_row,
    stirling_triangle,
)
from gregory import _kernels
from gregory.exact import EXACT_DECIMAL


@pytest.fixture(scope="module")
def triangle():
    return stirling_triangle(30)


@pytest.fixture(scope="module")
def a_table(triangle):
    return ASequence.from_triangle(triangle, 30)


def test_row_stream_matches_table_and_probe(a_table):
    rows = list(a_rows(30))
    assert [tuple(r) for r in rows] == [a_table.row(n) for n in range(1, 31)]
    for n in range(2, 31):
        assert probe_a_row(n, rows[n - 1], rows[n - 2]) == probe_row(n, a_table)


def test_row_stream_checks_max_n_when_called():
    assert list(a_rows(0)) == []
    assert list(a_rows(0, Decimal(1))) == []
    with pytest.raises(ValueError):
        a_rows(-1)  # the call raises, before any row is taken


def test_row_recursion_matches_stirling_relation():
    s_rows = _kernels.stirling_rows(200)
    next(s_rows)  # s(0,.) has no a-row
    assert list(a_rows(200)) == [a_row(n, s_row) for n, s_row in enumerate(s_rows, 1)]
    for m in (1, 2, 3, 40):
        built = ASequence.build(m)
        related = ASequence.from_triangle(stirling_triangle(m), m)
        assert [built.row(n) for n in range(1, m + 1)] == [
            related.row(n) for n in range(1, m + 1)
        ]


@pytest.fixture(scope="module")
def rows_and_triangle_300():
    return list(a_rows(300)), stirling_triangle(300)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n + 1))))
def test_row_recursion_is_signed_factorial_times_stirling(rows_and_triangle_300, nk):
    # a(n,k) = (-1)^(n+k-1) (k-1)! s(n,k-1)
    rows, triangle = rows_and_triangle_300
    n, k = nk
    assert rows[n - 1][k - 2] == a_from_stirling(n, k, triangle)


def test_decimal_rows_print_and_probe_as_the_int_rows():
    with decimal.localcontext(EXACT_DECIMAL):
        decimal_rows = list(a_rows(200, Decimal(1)))
    int_rows = list(a_rows(200))
    prev_d = prev_i = None
    for n, (row_d, row_i) in enumerate(zip(decimal_rows, int_rows, strict=True), 1):
        assert list(map(str, row_d)) == list(map(str, row_i))
        assert "[%s]" % ", ".join(map(str, row_d)) == repr(row_i)  # probe's frac text
        probe_d, probe_i = probe_a_row(n, row_d, prev_d), probe_a_row(n, row_i, prev_i)
        assert (probe_d.peak_indices, probe_d.is_unimodal, probe_d.increasing_in_n_ok) == (
            probe_i.peak_indices,
            probe_i.is_unimodal,
            probe_i.increasing_in_n_ok,
        )
        prev_d, prev_i = row_d, row_i


def test_exact_decimal_context_traps_rounding():
    narrow = EXACT_DECIMAL.copy()
    narrow.prec = 40  # row 60 holds values past 10**80
    with decimal.localcontext(narrow), pytest.raises((decimal.Rounded, decimal.Inexact)):
        list(a_rows(60, Decimal(1)))


def test_nested_sum_examples():
    assert a_nested_sum(4, 2) == 6          # (n-1)!
    assert a_nested_sum(3, 3) == 6          # 2! * 2! * H(2)
    assert a_nested_sum(3, 4) == 6          # n!
    assert a_nested_sum(1, 2) == 1


def test_from_stirling_examples(triangle):
    assert a_from_stirling(3, 2, triangle) == 2
    assert a_from_stirling(4, 4, triangle) == 36
    for n in range(2, 31):
        assert 2 * a_from_stirling(n, n, triangle) == (n - 1) * factorial(n)


def test_routes_agree(triangle, a_table):
    for n in range(1, 16):
        for k in range(2, n + 2):
            assert a_nested_sum(n, k) == a_from_stirling(n, k, triangle) == a_table.value(n, k)


def test_row_ends(a_table):
    for n in range(1, 31):
        assert a_table.value(n, 2) == factorial(n - 1)
        assert a_table.value(n, n + 1) == factorial(n)


def test_entries_positive(a_table):
    for n in range(1, 31):
        assert all(v > 0 for v in a_table.row(n))


def test_index_checks(triangle, a_table):
    with pytest.raises(ValueError):
        a_nested_sum(3, 5)
    with pytest.raises(ValueError):
        a_nested_sum(0, 2)
    with pytest.raises(ValueError):
        a_from_stirling(3, 1, triangle)
    with pytest.raises(ValueError):
        a_table.value(31, 2)
    with pytest.raises(ValueError):
        ASequence.from_triangle(triangle, 31)


def test_probe_examples(a_table):
    r2 = probe_row(2, a_table)
    assert r2.row == [1, 2]
    assert r2.peak_indices == [3]
    assert r2.is_unimodal

    r3 = probe_row(3, a_table)
    assert r3.row == [2, 6, 6]
    assert r3.peak_indices == [3, 4]  # flat plateau counts as one peak
    assert r3.is_unimodal

    r4 = probe_row(4, a_table)
    assert r4 == ProbeReport(
        n=4, row=[6, 22, 36, 24], peak_indices=[4], is_unimodal=True, increasing_in_n_ok=True
    )


def test_probe_row_1_trivial(a_table):
    r1 = probe_row(1, a_table)
    assert r1.row == [1]
    assert r1.peak_indices == [2]
    assert r1.is_unimodal
    assert r1.increasing_in_n_ok  # nothing to compare against


def test_probe_detects_bad_shapes():
    # hand-built table: row 3 dips in the middle and shrinks below row 2
    fake = ASequence([[1], [1, 2], [3, 1, 3]])
    r = probe_row(3, fake)
    assert not r.is_unimodal
    assert r.peak_indices == [2, 4]
    assert not r.increasing_in_n_ok


def _three_part_unimodal(row):
    """The plateau/rising/falling rule probe_a_row used to apply, kept as an
    oracle: the maxima form one run, the row rises weakly up to the first of
    them and falls weakly after the last."""
    top = max(row)
    first = row.index(top)
    last = len(row) - 1 - row[::-1].index(top)
    plateau_solid = all(row[i] == top for i in range(first, last + 1))
    rising = all(row[i] <= row[i + 1] for i in range(first))
    falling = all(row[i] >= row[i + 1] for i in range(last, len(row) - 1))
    return plateau_solid and rising and falling


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=9))
def test_unimodality_matches_the_three_part_rule_on_rows_with_ties(row):
    report = probe_a_row(len(row), row)
    assert report.is_unimodal == _three_part_unimodal(row)
    assert report.peak_indices == [k for k in range(2, len(row) + 2) if row[k - 2] == max(row)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10**30), min_size=1, max_size=12), st.data())
def test_unimodality_matches_the_three_part_rule_on_decimal_rows(values, data):
    # Sorting a split of the values builds unimodal rows as often as not.
    cut = data.draw(st.integers(0, len(values)))
    if data.draw(st.booleans()):
        values = sorted(values[:cut]) + sorted(values[cut:], reverse=True)
    row = [Decimal(v) for v in values]
    with decimal.localcontext(EXACT_DECIMAL):
        assert probe_a_row(len(row), row).is_unimodal == _three_part_unimodal(row)


def test_last_two_entries_ordering(a_table):
    # a(n,n) >= a(n,n+1) from n = 3 on
    for n in range(3, 31):
        assert a_table.value(n, n) >= a_table.value(n, n + 1)
    # while a(n,2) stays below a(n,n+1)
    for n in range(2, 31):
        assert a_table.value(n, 2) < a_table.value(n, n + 1)


def test_rows_are_strictly_log_concave_to_300():
    # a(n,j+1) = j! |s(n,j)|, so Newton's inequalities on the Stirling row
    # make each row strictly log-concave, hence unimodal: probe's flags are
    # a theorem, and a row that fails them is a computation fault.
    for n, row in enumerate(a_rows(300), 1):
        for k in range(1, n - 1):
            assert row[k] ** 2 > row[k - 1] * row[k + 1], (n, k + 2)
