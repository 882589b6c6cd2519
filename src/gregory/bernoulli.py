"""Bernoulli numbers of the second kind by four independent methods.

b_n is defined by the generating function x/ln(1+x); the series division in
:mod:`gregory.series` is therefore the reference column.  Three further
routes reach the same numbers through the Stirling triangle:

* ``nemes``:    b_n = (1/n!) sum_{k=0}^{n} s(n,k)/(k+1)
* ``theorem``:  b_n = (1/n!) sum_{k=1}^{n-1} (-1)^k s(n-1,k) / ((k+1)(k+2)),
                valid for n >= 2
* ``ank``:      b_n = (-1)^n (1/n!) (1/(n+1) + sum_{k=2}^{n}
                (a(n,k) - n a(n-1,k)) / k!), valid for n >= 2

All four must agree bit-exactly as normalized rationals; the report built by
:func:`bernoulli2_report` records that agreement per n.  :data:`ROUTES` is the
one registry of the routes: every caller that runs "each method" iterates it.
"""

from collections.abc import Callable, Iterator
from dataclasses import dataclass
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


def _theorem(n, s_prev):
    """b_n from s(n-1, 0..n-1), one kernel sum over lcm((k+1)(k+2)) = lcm(2..n+1)."""
    ks = range(1, n)
    total, big_l = _kernels.lcm_sum(
        [-s_prev[k] if k & 1 else s_prev[k] for k in ks], [(k + 1) * (k + 2) for k in ks]
    )
    return Fraction(total, big_l * factorial(n))


def _nemes(n, s_row):
    """b_n from s(n, 0..n), one kernel sum over lcm(1..n+1)."""
    total, big_l = _kernels.lcm_sum(s_row, range(1, n + 2))
    return Fraction(total, big_l * factorial(n))


def _ank(n, a_n, a_prev):
    """b_n from a(n, 2..n+1) and a(n-1, 2..n), summed as integers over
    (n+1)!: term k carries the weight (n+1)!/k! = (k+1)(k+2)...(n+1), applied
    in Horner form, and the leading 1/(n+1) becomes n!."""
    total = 0
    for k in range(2, n + 1):
        total = (total + a_n[k - 2] - n * a_prev[k - 2]) * (k + 1)
    n_fact = factorial(n)
    return Fraction((-1) ** n * (total + n_fact), (n + 1) * n_fact * n_fact)


def bernoulli2_theorem(n: int, triangle: StirlingTriangle) -> Fraction:
    """b_n from row n-1 of the triangle with weights (-1)^k / ((k+1)(k+2))."""
    if n < 2:
        raise ValueError("this formula is stated for n >= 2")
    return _theorem(n, triangle.row(n - 1))


def bernoulli2_nemes(n: int, triangle: StirlingTriangle) -> Fraction:
    """b_n from row n of the triangle with weights 1/(k+1); valid for n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _nemes(n, triangle.row(n))


def bernoulli2_ank(n: int, a: ASequence) -> Fraction:
    """b_n from first differences of the a(n,k) table; valid for n >= 2."""
    if n < 2:
        raise ValueError("this formula is stated for n >= 2")
    return _ank(n, a.row(n), a.row(n - 1))


# The route streams.  Each holds at most two rows at a time and builds the
# rows its formula reads only for the n it yields.


def _series_stream(max_n, start):
    yield from bernoulli2_series(max_n)[start:]


def _nemes_stream(max_n, start):
    for n, s_row in enumerate(_kernels.stirling_rows(max_n)):
        if n >= start:
            yield _nemes(n, s_row)


def _theorem_stream(max_n, start):
    if max_n == 0:  # no row n - 1; stirling_rows refuses a negative max_n
        return
    for n, s_prev in enumerate(_kernels.stirling_rows(max_n - 1), 1):
        if n >= start:
            yield _theorem(n, s_prev)


def _ank_stream(max_n, start):
    if start < max_n:  # a column: the a(n,k) row recursion, small multipliers only
        rows = enumerate(a_rows(max_n), 1)
    else:  # one value: rows n-1 and n from the Stirling rows cost less
        rows = (
            (n, a_row(n, s_row))
            for n, s_row in enumerate(_kernels.stirling_rows(max_n))
            if n >= start - 1
        )
    a_prev = None
    for n, a_n in rows:
        if n >= start:
            yield _ank(n, a_n, a_prev)
        a_prev = a_n


@dataclass(frozen=True)
class Route:
    """One b_n route: the smallest n it is stated for, and its stream
    ``stream(max_n, start)`` of b_start..b_max_n."""

    min_n: int
    stream: Callable[[int, int], Iterator[Fraction]]


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


@dataclass
class MethodReport:
    """b_n under each route, keyed by route name in :data:`ROUTES` order, plus
    the agreement flag."""

    n: int
    values: dict
    agree: bool

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
