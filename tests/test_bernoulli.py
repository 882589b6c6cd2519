"""Bernoulli numbers of the second kind: the four methods and the report."""

import tracemalloc
from fractions import Fraction
from math import factorial, lcm

import pytest

from gregory import bernoulli
from gregory import (
    ASequence,
    MethodReport,
    a_from_stirling,
    a_rows,
    bernoulli2_ank,
    bernoulli2_nemes,
    bernoulli2_report,
    bernoulli2_series,
    bernoulli2_theorem,
    harmonic_from_stirling,
    reciprocal_log_derivative_coeffs,
    stirling_column_recurrence,
    stirling_triangle,
)

F = Fraction


@pytest.fixture(scope="module")
def triangle():
    return stirling_triangle(30)


@pytest.fixture(scope="module")
def a_table(triangle):
    return ASequence.from_triangle(triangle, 30)


def test_theorem_examples(triangle):
    assert bernoulli2_theorem(2, triangle) == F(-1, 12)
    assert bernoulli2_theorem(3, triangle) == F(1, 24)
    assert bernoulli2_theorem(4, triangle) == F(-19, 720)


def test_theorem_stated_domain(triangle):
    with pytest.raises(ValueError):
        bernoulli2_theorem(1, triangle)
    with pytest.raises(ValueError):
        bernoulli2_theorem(0, triangle)


def test_nemes_examples(triangle):
    assert bernoulli2_nemes(0, triangle) == 1
    assert bernoulli2_nemes(1, triangle) == F(1, 2)
    assert bernoulli2_nemes(2, triangle) == F(-1, 12)


def test_nemes_matches_series_at_0_and_1(triangle):
    series = bernoulli2_series(1)
    assert bernoulli2_nemes(0, triangle) == series[0]
    assert bernoulli2_nemes(1, triangle) == series[1]


def test_ank_examples(a_table):
    assert bernoulli2_ank(2, a_table) == F(-1, 12)
    assert bernoulli2_ank(3, a_table) == F(1, 24)
    assert bernoulli2_ank(5, a_table) == F(3, 160)


def test_ank_stated_domain(a_table):
    with pytest.raises(ValueError):
        bernoulli2_ank(1, a_table)


# Each table reader with the rows it needs at n=5, read from a table built to
# a given row.
_READERS = {
    "bernoulli2_theorem": (4, lambda m: bernoulli2_theorem(5, stirling_triangle(m))),
    "bernoulli2_nemes": (5, lambda m: bernoulli2_nemes(5, stirling_triangle(m))),
    "bernoulli2_ank": (5, lambda m: bernoulli2_ank(5, ASequence.build(m))),
    "ASequence.from_triangle": (5, lambda m: ASequence.from_triangle(stirling_triangle(m), 5)),
    "a_from_stirling": (5, lambda m: a_from_stirling(5, 3, stirling_triangle(m))),
    "reciprocal_log_derivative_coeffs": (
        5,
        lambda m: reciprocal_log_derivative_coeffs(5, stirling_triangle(m)),
    ),
    "stirling_column_recurrence": (
        4,
        lambda m: stirling_column_recurrence(5, 3, stirling_triangle(m)),
    ),
    "harmonic_from_stirling": (6, lambda m: harmonic_from_stirling(5, stirling_triangle(m))),
}


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_table_too_small_rejected(reader):
    needs, read = _READERS[reader]
    read(needs)
    with pytest.raises(ValueError):
        read(needs - 1)


def test_report_single_row():
    reports = bernoulli2_report(2)
    assert len(reports) == 1
    r = reports[0]
    assert r.n == 2
    # A dict's == ignores order; the item lists check it too.
    assert list(r.values.items()) == list(dict.fromkeys(bernoulli.ROUTES, F(-1, 12)).items())
    assert r.agree


def test_report_to_5():
    reports = bernoulli2_report(5)
    assert [r.n for r in reports] == [2, 3, 4, 5]
    last = reports[-1]
    assert list(last.values.items()) == list(dict.fromkeys(bernoulli.ROUTES, F(3, 160)).items())
    assert all(r.agree for r in reports)
    assert bernoulli2_report(5, start=5) == reports[-1:]


def test_report_domain():
    with pytest.raises(ValueError):
        bernoulli2_report(1)


def test_single_value_reads_b_n_alone_from_tables_built_to_n(monkeypatch):
    # The route streams resolve their row formulas, the kernel's row
    # generator and the series by module-level name, so rebinding them sees
    # every call.
    calls, built_to = [], []
    for name in ("_row_sum", "_ank"):
        real = getattr(bernoulli, name)
        monkeypatch.setattr(
            bernoulli,
            name,
            lambda n, *rows, real=real: calls.append(n) or real(n, *rows),
        )
    real_rows = bernoulli._kernels.stirling_rows
    monkeypatch.setattr(
        bernoulli._kernels,
        "stirling_rows",
        lambda max_n: built_to.append(max_n) or real_rows(max_n),
    )
    for method, rows_max_n in (("nemes", 9), ("theorem", 8), ("ank", 9)):
        calls.clear()
        built_to.clear()
        assert bernoulli.bernoulli2_values(method, 9, start=9) == [F(8183, 1036800)]
        assert calls == [9]
        assert built_to == [rows_max_n]
    real_series = bernoulli.series.bernoulli2_series
    monkeypatch.setattr(
        bernoulli.series,
        "bernoulli2_series",
        lambda max_n: built_to.append(max_n) or real_series(max_n),
    )
    built_to.clear()
    assert bernoulli.bernoulli2_values("series", 9, start=9) == [F(8183, 1036800)]
    assert built_to == [9]


def _two_row_ank(n, a_n, a_prev):
    """b_n by the ank formula summed term by term: a(n,k) - n a(n-1,k) over
    (n+1)!, with the weight (n+1)!/k! applied in Horner form.  The route
    regroups this sum around one Horner sum per a-row; this oracle does not."""
    total = 0
    for k in range(2, n + 1):
        total = (total + a_n[k - 2] - n * a_prev[k - 2]) * (k + 1)
    n_fact = factorial(n)
    return F((-1) ** n * (total + n_fact), (n + 1) * n_fact * n_fact)


def test_ank_column_matches_the_two_row_sum_to_300():
    rows = list(a_rows(300))
    expected = [_two_row_ank(n, rows[n - 1], rows[n - 2]) for n in range(2, 301)]
    assert bernoulli.bernoulli2_values("ank", 300) == expected
    assert bernoulli.bernoulli2_values("ank", 300, start=300) == expected[-1:]
    assert bernoulli2_ank(30, ASequence(rows[:30])) == expected[28]


def test_the_two_ank_feeds_agree(monkeypatch):
    # A column of ank (start < max_n) reads the a(n,k) row recursion and no
    # Stirling row; one value reads a(n,.) and a(n-1,.) from Stirling rows.
    # At N = 2 the default start is N, so both sides are the one-value feed.
    built_to = []
    real_rows = bernoulli._kernels.stirling_rows
    monkeypatch.setattr(
        bernoulli._kernels,
        "stirling_rows",
        lambda max_n: built_to.append(max_n) or real_rows(max_n),
    )
    for n in range(2, 81):
        built_to.clear()
        column = bernoulli.bernoulli2_values("ank", n)
        assert built_to == ([] if n > 2 else [2])
        assert column[-1] == bernoulli.bernoulli2_values("ank", n, start=n)[0]
        assert built_to[-1] == n


def test_single_value_holds_rows_not_tables():
    # b_300 alone: a route holds at most two rows, never a triangle or table.
    tracemalloc.start()
    try:
        stirling_triangle(300)
        one_triangle = tracemalloc.get_traced_memory()[1]
        for method in bernoulli.ROUTES:
            tracemalloc.reset_peak()
            assert len(bernoulli.bernoulli2_values(method, 300, start=300)) == 1
            peak = tracemalloc.get_traced_memory()[1]
            assert peak < one_triangle / 8, (method, peak, one_triangle)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", sorted(bernoulli.ROUTES))
def test_stream_rejects_start_below_stated_domain(method):
    min_n = bernoulli.ROUTES[method].min_n
    values = bernoulli.bernoulli2_values(method, 6, start=min_n)
    assert values == bernoulli2_series(6)[min_n:]
    with pytest.raises(ValueError):
        bernoulli.bernoulli2_values(method, 6, start=min_n - 1)


@pytest.mark.parametrize("max_n", [0, 1])
@pytest.mark.parametrize("method", sorted(bernoulli.ROUTES))
def test_stream_below_start_is_empty(method, max_n):
    start = max(2, bernoulli.ROUTES[method].min_n)
    assert bernoulli.bernoulli2_values(method, max_n, start=start) == []


@pytest.mark.parametrize("method", sorted(bernoulli.ROUTES))
def test_stream_rejects_negative_max_n(method):
    with pytest.raises(ValueError, match="max_n must be >= 0"):
        bernoulli.bernoulli2_values(method, -1, start=max(2, bernoulli.ROUTES[method].min_n))


def test_method_report_flags_disagreement():
    values = {**dict.fromkeys(bernoulli.ROUTES, F(-1, 12)), "ank": F(1, 12)}
    r = MethodReport.gather(2, values)
    assert r == MethodReport(n=2, values=values, agree=False)
    agreeing = dict.fromkeys(bernoulli.ROUTES, F(-1, 12))
    assert MethodReport.gather(2, agreeing) == MethodReport(n=2, values=agreeing, agree=True)
    route = bernoulli.ROUTES["theorem"]
    assert route == bernoulli.Route(min_n=2, stream=bernoulli._theorem_stream)


# Euler's constant truncated to 50 digits, so just below it.
GAMMA_50 = F("0.57721566490153286060651209008240243104215933593992")


@pytest.fixture(scope="module", params=sorted(bernoulli.ROUTES))
def column_300(request):
    """[b_1, ..., b_300] by one route; b_1 = 1/2 stands in for the routes
    stated from n = 2 only."""
    start = max(1, bernoulli.ROUTES[request.param].min_n)
    return [F(1, 2)] * (start - 1) + bernoulli.bernoulli2_values(request.param, 300, start)


def test_sign_alternation_to_300(column_300):
    assert all((-1) ** (n + 1) * b > 0 for n, b in enumerate(column_300, 1))


def test_magnitude_strictly_decreasing_to_300(column_300):
    # |b_n| is the integral over x > 0 of 1 / ((1+x)^n (pi^2 + ln^2 x)) for
    # n >= 2, which falls as n grows; and b_1 = 1/2 > |b_2| = 1/12.
    assert all(abs(b) > abs(c) for b, c in zip(column_300, column_300[1:]))


def test_absolute_sum_stays_below_one(column_300):
    # x/ln(1+x) vanishes at x = -1, so sum_{n>=1} |b_n| = 1 and every partial
    # sum falls short of it (by 0.1515 at 300).
    assert 1 - sum(map(abs, column_300)) > 0


def test_weighted_absolute_sum_stays_below_gamma(column_300):
    # sum_{n>=1} |b_n|/n = gamma (the Fontana-Mascheroni series); the partial
    # sum to 300 falls short of gamma by 5.79e-5, far more than GAMMA_50 does.
    assert GAMMA_50 - sum(abs(b) / n for n, b in enumerate(column_300, 1)) > 0


def test_series_column_alternates_falls_and_is_log_convex_to_400():
    # Schroeder's integral |b_n| = int_0^inf dx / ((1+x)^n (ln^2 x + pi^2))
    # for n >= 2 makes |b_n| a moment sequence of a positive weight: the sign
    # alternates, |b_n| falls strictly (b_1 = 1/2 > |b_2| too), and
    # Cauchy-Schwarz gives |b_n|^2 <= |b_(n-1)| |b_(n+1)| for n >= 2, which
    # fails at n = 1: (1/2)^2 > 1 * 1/12.  Exact Fraction comparisons, which
    # share no code with the routes, past the other columns' 300.
    b = bernoulli.bernoulli2_values("series", 400, 0)
    a = list(map(abs, b))
    assert all((-1) ** (n + 1) * b[n] > 0 for n in range(1, 401))
    assert all(a[n] > a[n + 1] for n in range(1, 400))
    assert all(a[n] ** 2 <= a[n - 1] * a[n + 1] for n in range(2, 400))
    assert a[1] ** 2 > a[0] * a[2]


def test_every_route_agrees_to_300():
    # The analytic checks cannot see a small error in one b_n; agreement can,
    # and ank sums off the kernel that nemes and theorem (and, through
    # _over_lcm, series) share.  The golden corpus stops at crosscheck 200.
    assert all(r.agree for r in bernoulli2_report(300))


def test_gamma_constant_is_truncated_from_sympy():
    sympy = pytest.importorskip("sympy")
    gamma = F(str(sympy.N(sympy.EulerGamma, 70)))
    assert 0 < gamma - GAMMA_50 < F(1, 10**50)


def test_denominator_law(column_300):
    # n! b_n is the integral over [0, 1] of x(x-1)...(x-n+1), a degree-n
    # polynomial with integer coefficients, so lcm(1..n+1) clears it.
    for n, b in enumerate(column_300, 1):
        assert (factorial(n) * lcm(*range(1, n + 2)) * b).denominator == 1


@pytest.fixture(scope="module")
def sympy_gregory_60():
    """b_0..b_60 as (1/n!) * integral_0^1 x(x-1)...(x-n+1) dx, by sympy alone."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    falling = sympy.Poly(1, x, domain="QQ")
    values = []
    for n in range(61):
        if n:
            falling *= sympy.Poly(x - (n - 1), x, domain="QQ")
        b = falling.integrate().eval(1) / sympy.factorial(n)
        values.append(F(int(b.p), int(b.q)))
    return values


@pytest.mark.parametrize("method", sorted(bernoulli.ROUTES))
def test_every_route_matches_sympy_integral_to_60(method, sympy_gregory_60):
    start = 0 if method == "series" else 2
    assert bernoulli.bernoulli2_values(method, 60, start) == sympy_gregory_60[start:]
