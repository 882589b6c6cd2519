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

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .asequence import ASequence
from .series import bernoulli2_series
from .stirling import StirlingTriangle, stirling_triangle

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


def bernoulli2_theorem(n: int, triangle: StirlingTriangle) -> Fraction:
    """b_n from row n-1 of the triangle with weights (-1)^k / ((k+1)(k+2)).

    The terms are summed as integers over L = lcm(2..n+1): (k+1) and (k+2)
    are coprime and both at most n+1, so their product divides L.
    """
    if n < 2:
        raise ValueError("this formula is stated for n >= 2")
    if triangle.max_n < n - 1:
        raise ValueError("triangle filled to row %d, need row %d" % (triangle.max_n, n - 1))
    row = triangle.row(n - 1)
    big_l = lcm(*range(2, n + 2))
    total = 0
    for k in range(1, n):
        term = row[k] * (big_l // ((k + 1) * (k + 2)))
        total += -term if k & 1 else term
    return Fraction(total, big_l * factorial(n))


def bernoulli2_nemes(n: int, triangle: StirlingTriangle) -> Fraction:
    """b_n from row n of the triangle with weights 1/(k+1); valid for n >= 0.

    The terms are summed as integers over L = lcm(1..n+1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if triangle.max_n < n:
        raise ValueError("triangle filled to row %d, need row %d" % (triangle.max_n, n))
    big_l = lcm(*range(1, n + 2))
    total = sum(s * (big_l // (k + 1)) for k, s in enumerate(triangle.row(n)))
    return Fraction(total, big_l * factorial(n))


def bernoulli2_ank(n: int, a: ASequence) -> Fraction:
    """b_n from first differences of the a(n,k) table; valid for n >= 2.

    The terms are summed as integers over (n+1)!: term k carries the weight
    (n+1)!/k! = (k+1)(k+2)...(n+1), applied in Horner form, and the leading
    1/(n+1) becomes n!.
    """
    if n < 2:
        raise ValueError("this formula is stated for n >= 2")
    if a.max_n < n:
        raise ValueError("a-table filled to row %d, need row %d" % (a.max_n, n))
    row, prev = a.row(n), a.row(n - 1)  # a(n,2..n+1) and a(n-1,2..n)
    total = 0
    for k in range(2, n + 1):
        total = (total + row[k - 2] - n * prev[k - 2]) * (k + 1)
    n_fact = factorial(n)
    return Fraction((-1) ** n * (total + n_fact), (n + 1) * n_fact * n_fact)


@dataclass(frozen=True)
class Route:
    """One b_n route: the smallest n it is stated for, the tables it builds to
    reach b_max_n, and how it reads b_n from those tables."""

    min_n: int
    tables: Callable[[int], object]
    read: Callable[[int, object], Fraction]


# Each route keeps its own formula; only building and reading tables is
# dispatched here.  The lambdas resolve module-level names when called, so a
# rebound name (a test double, a profiler's wrapper) is the one that runs.
ROUTES = {
    "series": Route(0, lambda max_n: bernoulli2_series(max_n), lambda n, b: b[n]),
    "nemes": Route(
        0, lambda max_n: stirling_triangle(max_n), lambda n, t: bernoulli2_nemes(n, t)
    ),
    "theorem": Route(
        2, lambda max_n: stirling_triangle(max_n - 1), lambda n, t: bernoulli2_theorem(n, t)
    ),
    "ank": Route(2, lambda max_n: ASequence.build(max_n), lambda n, a: bernoulli2_ank(n, a)),
}


def bernoulli2_values(method: str, max_n: int, start: int = 2) -> list:
    """b_start..b_max_n by one route, its tables built once and only to max_n."""
    route = ROUTES[method]
    tables = route.tables(max_n)
    return [route.read(n, tables) for n in range(start, max_n + 1)]


@dataclass
class MethodReport:
    """Value of b_n under each method, plus the agreement flag."""

    n: int
    by_series: Fraction
    by_nemes: Fraction
    by_theorem: Fraction
    by_ank: Fraction
    agree: bool

    @classmethod
    def gather(cls, n, by_series, by_nemes, by_theorem, by_ank):
        agree = by_series == by_nemes == by_theorem == by_ank
        return cls(n, by_series, by_nemes, by_theorem, by_ank, agree)

    def value(self, method: str) -> Fraction:
        """b_n as computed by the named route."""
        return getattr(self, "by_" + method)


def bernoulli2_report(max_n: int):
    """One MethodReport per n in [2, max_n]; each route builds its own tables."""
    if max_n < 2:
        raise ValueError("max_n must be >= 2")
    columns = {method: bernoulli2_values(method, max_n) for method in ROUTES}
    return [
        MethodReport.gather(n, **{"by_" + m: values[n - 2] for m, values in columns.items()})
        for n in range(2, max_n + 1)
    ]
