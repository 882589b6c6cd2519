"""Bernoulli numbers of the second kind by four independent methods.

b_n is defined by the generating function x/ln(1+x); the series division in
:mod:`gregory.series` is therefore the reference column.  Three further
routes reach the same numbers through the Stirling triangle:

* ``nemes``:    b_n = (1/n!) sum_{k=0}^{n} s(n,k)/(k+1)
* ``theorem``:  b_n = (1/n!) sum_{k=1}^{n-1} (-1)^k s(n-1,k) / ((k+1)(k+2)),
                valid for n >= 2
* ``ank``:      b_n = (-1)^n (1/n!) (1/(n+1) + sum_{k=2}^{n}
                (a(n,k) - n a(n-1,k)) / k!), valid for n >= 2

``nemes`` and ``theorem`` are one row formula, :func:`_row_sum`: one
:func:`gregory._kernels.lcm_sum` against a per-column lcm plan of the route's
denominators, k+1 for s(n,.) or (-1)^k (k+1)(k+2) for s(n-1,.), whose k = 0
term adds s(n-1,0) = 0.  ``ank`` stays off the kernel, so that a fault of the
kernel cannot pass as agreement.  It sums each a-row once, in Horner form,
and reads b_n from the sums of rows n and n-1 (:func:`_ank`).

All four must agree bit-exactly as normalized rationals; the report built by
:func:`bernoulli2_report` records that agreement per n.  :data:`ROUTES` is the
one registry of the routes: every caller that runs "each method" iterates it.
"""

from collections import namedtuple
from fractions import Fraction
from math import factorial

from . import _kernels
from .asequence import ASequence, a_row, a_rows
from .series import bernoulli2_series
from .stirling import StirlingTriangle

__all__ = [
    "ROUTES",
    "Route",
    "MethodReport",
    "bernoulli2_theorem",
    "bernoulli2_nemes",
    "bernoulli2_ank",
    "bernoulli2_report",
    "bernoulli2_values",
]

# Each formula is written once, as a function of the row(s) it reads; the
# public readers below take those rows from a table, the route streams in
# ROUTES from the row recursion.


def _theorem_plan(max_n):
    """The denominators (-1)^k (k+1)(k+2), k = 0..max_n-1, of every b_n <= b_max_n
    by ``theorem``; the k = 0 term adds s(n-1,0) = 0 for n >= 2."""
    return _kernels.lcm_plan([(-1) ** k * (k + 1) * (k + 2) for k in range(max_n)])


def _nemes_plan(max_n):
    """The denominators k+1, k = 0..max_n, of every b_n <= b_max_n by ``nemes``."""
    return _kernels.lcm_plan(range(1, max_n + 2))


def _row_sum(n, row, plan):
    """(1/n!) sum_k row[k]/dens[k] by one kernel sum: b_n from s(n,.) against
    :func:`_nemes_plan`, and from s(n-1,.) against :func:`_theorem_plan`."""
    total, big_l = _kernels.lcm_sum(row, plan)
    return Fraction(total, big_l * factorial(n))


def _ank_sum(n, a_n):
    """h_n = sum_{k=2}^{n} a(n,k) (n+1)!/k! from a(n, 2..n+1), as an integer:
    the weight (n+1)!/k! = (k+1)(k+2)...(n+1) is applied in Horner form, one
    addition and one small multiplication per term."""
    total = 0
    for k in range(2, n + 1):
        total = (total + a_n[k - 2]) * (k + 1)
    return total


def _ank(n, h_n, a_prev, h_prev):
    """b_n from h_n, row a(n-1, 2..n) and its sum h_{n-1} (:func:`_ank_sum`).

    The formula's sum over (n+1)! is sum_{k=2}^{n} (a(n,k) - n a(n-1,k))
    (n+1)!/k!.  Its second half is n (n+1) times sum_{k=2}^{n} a(n-1,k) n!/k!
    = h_{n-1} + a(n-1,n), so the sum is h_n - n (n+1) (h_{n-1} + a(n-1,n)).
    A column sums each a-row once, and its sum serves both b_n and b_{n+1}.
    The leading 1/(n+1) becomes n! over (n+1)! n!."""
    n_fact = factorial(n)
    total = h_n - n * (n + 1) * (h_prev + a_prev[n - 2])
    return Fraction((-1) ** n * (total + n_fact), (n + 1) * n_fact * n_fact)


def bernoulli2_theorem(n: int, triangle: StirlingTriangle) -> Fraction:
    """b_n from row n-1 of the triangle with weights (-1)^k / ((k+1)(k+2))."""
    if n < 2:
        raise ValueError("this formula is stated for n >= 2")
    return _row_sum(n, triangle.row(n - 1), _theorem_plan(n))


def bernoulli2_nemes(n: int, triangle: StirlingTriangle) -> Fraction:
    """b_n from row n of the triangle with weights 1/(k+1); valid for n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _row_sum(n, triangle.row(n), _nemes_plan(n))


def bernoulli2_ank(n: int, a: ASequence) -> Fraction:
    """b_n from first differences of the a(n,k) table; valid for n >= 2."""
    if n < 2:
        raise ValueError("this formula is stated for n >= 2")
    a_prev = a.row(n - 1)
    return _ank(n, _ank_sum(n, a.row(n)), a_prev, _ank_sum(n - 1, a_prev))


# The route streams.  Each holds at most two rows at a time and builds the
# rows its formula reads only for the n it yields.


def _series_stream(max_n, start):
    yield from bernoulli2_series(max_n)[start:]


def _nemes_stream(max_n, start):
    plan = _nemes_plan(max_n)
    for n, s_row in enumerate(_kernels.stirling_rows(max_n)):
        if n >= start:
            yield _row_sum(n, s_row, plan)


def _theorem_stream(max_n, start):
    if max_n == 0:  # no row n - 1; stirling_rows refuses a negative max_n
        return
    plan = _theorem_plan(max_n)
    for n, s_prev in enumerate(_kernels.stirling_rows(max_n - 1), 1):
        if n >= start:
            yield _row_sum(n, s_prev, plan)


def _ank_stream(max_n, start):
    if start < max_n:  # a column: the a(n,k) row recursion, small multipliers only
        rows = enumerate(a_rows(max_n), 1)
    else:  # one value: rows n-1 and n from the Stirling rows cost less
        rows = (
            (n, a_row(n, s_row))
            for n, s_row in enumerate(_kernels.stirling_rows(max_n))
            if n >= start - 1
        )
    # Each row travels with its sum, so that every a-row is summed once.
    prev = None
    for n, a_n in rows:
        h_n = _ank_sum(n, a_n)
        if n >= start:
            yield _ank(n, h_n, *prev)
        prev = a_n, h_n


Route = namedtuple("Route", "min_n stream")
Route.__doc__ = """One b_n route: min_n, the smallest n it is stated for, and
stream, its generator ``stream(max_n, start)`` of b_start..b_max_n."""


# The streams resolve module-level names (the row formulas, the kernel, the
# series) when called, so a rebound name (a test double, a profiler's
# wrapper) is the one that runs.
ROUTES = {
    "series": Route(0, _series_stream),
    "nemes": Route(0, _nemes_stream),
    "theorem": Route(2, _theorem_stream),
    "ank": Route(2, _ank_stream),
}


def bernoulli2_values(method: str, max_n: int, start: int = 2) -> list:
    """b_start..b_max_n by one route, from its row stream."""
    route = ROUTES[method]
    if start < route.min_n:
        raise ValueError("the %s route is stated for n >= %d" % (method, route.min_n))
    return list(route.stream(max_n, start))


class MethodReport(namedtuple("MethodReport", "n values agree")):
    """b_n under each route: values, a dict keyed by route name in
    :data:`ROUTES` order, plus agree, the agreement flag."""

    __slots__ = ()

    @classmethod
    def gather(cls, n, values):
        """The one agreement rule: every route's value equals the first.  The
        values are compared, not hashed into a set: hashing a Fraction with a
        large denominator costs more than comparing it."""
        first = next(iter(values.values()))
        return cls(n, values, all(v == first for v in values.values()))


def _reports(columns, start):
    """One MethodReport per n from per-route columns b_start, b_start+1, ..."""
    return [
        MethodReport.gather(n, dict(zip(columns, row)))
        for n, row in enumerate(zip(*columns.values(), strict=True), start)
    ]


def bernoulli2_report(max_n: int, start: int = 2):
    """One MethodReport per n in [start, max_n]; each route streams its own rows."""
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    return _reports({method: bernoulli2_values(method, max_n, start) for method in ROUTES}, start)
