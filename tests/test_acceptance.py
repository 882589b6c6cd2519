"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with ``-s``
to see them live).  Every tolerance is pinned here: sequence identities are
exact equalities of normalized rationals or integers, and the numeric
derivative checks use the fixed (n, h, tol) grid below.
"""

import random
import time
from fractions import Fraction
from math import factorial

import gregory.cli as cli
from gregory import (
    ASequence,
    MethodReport,
    a_from_stirling,
    a_nested_sum,
    a_rows,
    bernoulli2_ank,
    bernoulli2_nemes,
    bernoulli2_series,
    bernoulli2_theorem,
    finite_difference_check,
    format_rational,
    harmonic,
    harmonic_from_stirling,
    probe_row,
    stirling_closed_form,
    stirling_column_recurrence,
    stirling_gf_coeff,
    stirling_nested_sum,
    stirling_triangle,
)
from gregory import _kernels, bernoulli
from gregory.bernoulli import ROUTES
from gregory.series import log1p_series, series_mul

F = Fraction

GOLDEN_B = [F(1), F(1, 2), F(-1, 12), F(1, 24), F(-19, 720), F(3, 160)]


def report(number, ok, detail):
    print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", number, detail))
    assert ok, "criterion %d failed: %s" % (number, detail)


def test_criterion_1_cross_method_equality_to_200():
    started = time.perf_counter()
    max_n = 200
    triangle = stirling_triangle(max_n)
    a = ASequence.from_triangle(triangle, max_n)
    series = bernoulli2_series(max_n)
    mismatches = [
        n
        for n in range(2, max_n + 1)
        if not (
            series[n]
            == bernoulli2_nemes(n, triangle)
            == bernoulli2_theorem(n, triangle)
            == bernoulli2_ank(n, a)
        )
    ]
    elapsed = time.perf_counter() - started
    report(
        1,
        not mismatches and elapsed < 60.0,
        "four methods equal for n in [2, 200] (exact), %.2fs" % elapsed,
    )


def test_criterion_2_golden_small_values():
    # the series-division oracle runs first and sets the expected values
    oracle = bernoulli2_series(5)
    ok = oracle == GOLDEN_B
    triangle = stirling_triangle(5)
    a = ASequence.from_triangle(triangle, 5)
    for n in range(0, 6):
        ok = ok and bernoulli2_nemes(n, triangle) == oracle[n]
    for n in range(2, 6):
        ok = ok and bernoulli2_theorem(n, triangle) == oracle[n]
        ok = ok and bernoulli2_ank(n, a) == oracle[n]
    report(2, ok, "b_0..b_5 = 1, 1/2, -1/12, 1/24, -19/720, 3/160 on every method")


def test_criterion_3_stirling_route_agreement():
    started = time.perf_counter()
    triangle = stirling_triangle(30)
    ok = all(
        stirling_nested_sum(n, k) == triangle.value(n, k)
        for n in range(1, 13)
        for k in range(1, n + 1)
    )
    ok = ok and all(
        stirling_column_recurrence(n, k, triangle) == triangle.value(n, k)
        for n in range(2, 31)
        for k in range(2, n + 1)
    )
    # generating-function route, built incrementally: power k is log1p^k
    power = (1,) + (0,) * 30
    log = log1p_series(30)
    for k in range(1, 31):
        power = series_mul(power, log)
        for n in range(k, 31):
            value = power[n] * factorial(n) / factorial(k)
            ok = ok and value.denominator == 1 and value == triangle.value(n, k)
    ok = ok and stirling_gf_coeff(4, 2, 30) == triangle.value(4, 2)
    elapsed = time.perf_counter() - started
    report(
        3,
        ok and elapsed < 30.0,
        "nested sums (n<=12), column recurrence (n<=30), generating function "
        "(n<=30) all equal the triangle, %.2fs" % elapsed,
    )


def test_criterion_4_triangle_invariants_to_100():
    started = time.perf_counter()
    triangle = stirling_triangle(100)
    ok = all(sum(triangle.row(n)) == 0 for n in range(2, 101))
    ok = ok and all(
        sum(abs(v) for v in triangle.row(n)) == factorial(n) for n in range(0, 101)
    )
    ok = ok and all(
        (-1) ** (n + k) * v >= 0
        for n in range(0, 101)
        for k, v in enumerate(triangle.row(n))
    )
    elapsed = time.perf_counter() - started
    report(4, ok and elapsed < 10.0, "row sums, absolute row sums, sign pattern for n <= 100, %.2fs" % elapsed)


def test_criterion_5_closed_forms_to_100():
    triangle = stirling_triangle(101)
    ok = all(stirling_closed_form(n, 1) == triangle.value(n, 1) for n in range(1, 101))
    ok = ok and all(
        stirling_closed_form(n, 2) == triangle.value(n, 2) for n in range(2, 101)
    )
    ok = ok and all(
        stirling_closed_form(n, n - 1) == triangle.value(n, n - 1) for n in range(2, 101)
    )
    ok = ok and all(stirling_closed_form(n, n) == triangle.value(n, n) for n in range(1, 101))
    ok = ok and all(
        stirling_closed_form(n, 2) == (-1) ** n * factorial(n - 1) * harmonic(n - 1)
        for n in range(2, 101)
    )
    ok = ok and all(
        harmonic_from_stirling(n, triangle) == harmonic(n) for n in range(1, 51)
    )
    report(5, ok, "closed forms s(n,1), s(n,2), s(n,n-1), s(n,n) for n <= 100 and the H(n) relation for n <= 50")


def test_criterion_6_a_table_suite():
    triangle = stirling_triangle(200)
    a = ASequence.from_triangle(triangle, 200)
    ok = all(
        a_nested_sum(n, k) == a_from_stirling(n, k, triangle)
        for n in range(1, 26)
        for k in range(2, n + 2)
    )
    ok = ok and all(a.value(n, 2) == factorial(n - 1) for n in range(1, 201))
    ok = ok and all(a.value(n, n + 1) == factorial(n) for n in range(1, 201))
    ok = ok and all(
        2 * a.value(n, n) == (n - 1) * factorial(n) for n in range(3, 201)
    )
    # The difference identity a(n,k) - n a(n-1,k) = (-1)^(n+k-1) (k-1)!
    # [s(n-1,k-1) + s(n-1,k-2)] between two independent recursions: a(n, .)
    # by the a-row recursion, s(n-1, .) by the Stirling one.  On a single
    # triangle it would reduce to the Stirling recursion itself.
    a_by_n = [None, *a_rows(30)]  # a_by_n[n][k - 2] = a(n,k)
    s_by_n = list(_kernels.stirling_rows(29))  # s_by_n[n][k] = s(n,k)
    ok = ok and all(
        a_by_n[n][k - 2] - n * a_by_n[n - 1][k - 2]
        == (-1) ** (n + k - 1) * factorial(k - 1) * (s_by_n[n - 1][k - 1] + s_by_n[n - 1][k - 2])
        for n in range(2, 31)
        for k in range(2, n + 1)
    )
    ok = ok and all(
        a.value(n, k) >= a.value(n - 1, k)
        for n in range(2, 201)
        for k in range(2, n + 1)
    )
    ok = ok and all(a.value(n, 2) < a.value(n, n + 1) for n in range(2, 201))
    ok = ok and all(a.value(n, n) >= a.value(n, n + 1) for n in range(3, 201))
    report(6, ok, "a(n,k) routes, boundary values, difference identity, monotonicity in n (all exact)")


def test_criterion_7_unimodality_probe_to_200():
    a = ASequence.build(200)
    failures = [n for n in range(4, 201) if not probe_row(n, a).is_unimodal]
    if failures:
        # conjectured property: log, do not fail the suite
        print("criterion 7: non-unimodal rows found at n=%s" % failures)
    report(
        7,
        True,
        "unimodality probe for 4 <= n <= 200: %d/%d rows unimodal (reported, not asserted)"
        % (197 - len(failures), 197),
    )


FD_GRID = [(1, 1e-4, 1e-6), (2, 1e-3, 1e-5), (3, 1e-3, 1e-4), (4, 1e-2, 1e-3), (5, 1e-2, 1e-2)]


def test_criterion_8_derivative_numeric_checks():
    started = time.perf_counter()
    ok = True
    worst = 0.0
    for n, h, tol in FD_GRID:
        for x in (2.0, 3.0, 10.0):
            result = finite_difference_check(n, x, h, tol)
            ok = ok and result.passed
            worst = max(worst, result.residual / tol)
    elapsed = time.perf_counter() - started
    report(
        8,
        ok and elapsed < 1.0,
        "finite differences at x in {2,3,10} for n=1..5 (worst residual %.1e of tol), %.2fs"
        % (worst, elapsed),
    )


def test_criterion_9_cli_contract(capsys, monkeypatch):
    rng = random.Random(20260808)
    ok = True
    for _ in range(1000):
        q = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
        ok = ok and F(format_rational(q)) == q

    ok = ok and cli.main(["stirling1", "4"]) == 0
    ok = ok and cli.main(["stirling1", "3", "5"]) == 1
    ok = ok and cli.main(["bernoulli2", "1", "--method", "theorem"]) == 1

    values = {**dict.fromkeys(ROUTES, F(-1, 12)), "ank": F(1, 12)}
    fault = [MethodReport.gather(2, values)]
    monkeypatch.setattr(bernoulli, "bernoulli2_report", lambda max_n: fault)
    ok = ok and cli.main(["crosscheck", "--max-n", "2"]) == 2
    monkeypatch.undo()
    ok = ok and cli.main(["crosscheck", "--max-n", "3"]) == 0
    capsys.readouterr()  # swallow CLI output so the report line stands alone
    report(9, ok, "1000-fraction round trip and the 0/1/2 exit-code contract")
