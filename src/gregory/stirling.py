"""Signed Stirling numbers of the first kind, by four independent routes.

The triangular recursion s(n+1,k) = s(n,k-1) - n*s(n,k) is the workhorse and
the canonical source of truth; the nested harmonic sums, the column
recurrence, and the closed forms are alternative routes that must reproduce
it exactly, which is what the test suite checks.
"""

from fractions import Fraction
from math import factorial

from . import _kernels
from .exact import harmonic

__all__ = [
    "StirlingTriangle",
    "stirling_triangle",
    "stirling_row",
    "stirling_nested_sum",
    "stirling_nested_sum_direct",
    "stirling_column_recurrence",
    "stirling_closed_form",
    "harmonic_from_stirling",
]


class _RowTable:
    """Rows _FIRST_N..max_n of a triangular table, row n holding the entries
    k = _FIRST_K, _FIRST_K + 1, ...; ``value`` and ``row`` make the only
    bounds checks of a table read.

    ``_rows`` stays a plain list attribute, so that a profiler can swap in a
    list that records which rows are read.  Rows are never mutated after
    construction, so a built table can be shared freely across threads.
    """

    _FIRST_N = 0
    _FIRST_K = 0
    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    @property
    def max_n(self) -> int:
        return self._FIRST_N + len(self._rows) - 1

    def _stored(self, n):
        if not self._FIRST_N <= n <= self.max_n:
            raise ValueError("row %d not in table (rows %d..%d)" % (n, self._FIRST_N, self.max_n))
        return self._rows[n - self._FIRST_N]

    def value(self, n: int, k: int) -> int:
        """Entry (n,k); raises for indices outside the stored table."""
        row = self._stored(n)
        if not self._FIRST_K <= k < self._FIRST_K + len(row):
            raise ValueError(
                "need %d <= k <= %d in row %d, got k=%d"
                % (self._FIRST_K, self._FIRST_K + len(row) - 1, n, k)
            )
        return row[k - self._FIRST_K]

    def row(self, n: int):
        """Row n as a tuple, from k = _FIRST_K on."""
        return tuple(self._stored(n))

    def __repr__(self):
        return "%s(max_n=%d)" % (type(self).__name__, self.max_n)


class StirlingTriangle(_RowTable):
    """Memoized table rows[n][k] = s(n,k) for 0 <= k <= n <= max_n; ``row(n)``
    is (s(n,0), ..., s(n,n))."""

    __slots__ = ()


def stirling_triangle(max_n: int) -> StirlingTriangle:
    """Build the signed triangle up to row max_n by the triangular recursion."""
    return StirlingTriangle(list(_kernels.stirling_rows(max_n)))


def stirling_row(n: int):
    """Row n alone as a tuple (s(n,0), ..., s(n,n)), in O(n) memory.

    The row is the last one of the recursion's stream; no earlier row is kept.
    """
    for row in _kernels.stirling_rows(n):
        pass
    return tuple(row)


def stirling_nested_sum(n: int, k: int) -> int:
    """s(n,k) from the nested-reciprocal-sum formula.

    s(n,k) = (-1)^(n+k) (n-1)! * sum over strictly decreasing chains
    l1 > ... > l_(k-1) >= 1 with l1 <= n-1 of prod 1/li.  The empty chain
    (k = 1) contributes 1, and an empty index range contributes 0, which
    reproduces s(n,1) = (-1)^(n+1) (n-1)! and s(n,n) = 1.

    Evaluated through the memoized chain-sum table; see
    :func:`stirling_nested_sum_direct` for the literal enumeration.
    """
    _check_indices(n, k)
    table = _kernels.nested_sum_table(k - 1, n - 1)
    num, den = table[k - 1][n - 1]
    return _as_int(Fraction((-1) ** (n + k) * factorial(n - 1) * num, den), n, k)


def stirling_nested_sum_direct(n: int, k: int) -> int:
    """Unoptimized reference: enumerate every decreasing chain explicitly.

    Exponential in k; intended for n <= 12 where it checks the memoized route.
    """
    _check_indices(n, k)

    def chains(depth, top):
        if depth == 0:
            return Fraction(1)
        total = Fraction(0)
        for l in range(1, top + 1):
            total += chains(depth - 1, l - 1) / l
        return total

    return _as_int((-1) ** (n + k) * factorial(n - 1) * chains(k - 1, n - 1), n, k)


def stirling_column_recurrence(n: int, k: int, triangle: StirlingTriangle) -> int:
    """s(n,k) from column k-1 of the triangle.

    Uses (-1)^(n-k) s(n,k)/(n-1)! = sum_{m=k-1}^{n-1} (1/m) *
    (-1)^(m-k+1) s(m,k-1)/(m-1)!, so only rows up to n-1 are read.  Times
    (n-1)!, term m carries the integer weight (n-1)!/m! = (m+1)...(n-1), so
    the sum is one integer Horner pass, total = total*m + (-1)^(m-k+1)
    s(m,k-1) for m = k-1..n-1.
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n, got n=%d k=%d" % (n, k))
    total = 0
    for m in range(k - 1, n):
        term = triangle.value(m, k - 1)
        total = total * m + (term if (m - k) % 2 else -term)
    return total if (n - k) % 2 == 0 else -total


def stirling_closed_form(n: int, k: int) -> int:
    """Closed forms for the columns k in {1, 2} and the diagonals k in {n-1, n}.

    s(n,1) = (-1)^(n+1) (n-1)!        s(n,2)   = (-1)^n (n-1)! H(n-1)
    s(n,n-1) = -n(n-1)/2              s(n,n)   = 1
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k == n:
        return 1
    if k == n - 1:
        return -n * (n - 1) // 2
    if k == 1:
        return (-1) ** (n + 1) * factorial(n - 1)
    if k == 2 and n >= 2:
        return _as_int((-1) ** n * factorial(n - 1) * harmonic(n - 1), n, k)
    raise ValueError("no closed form for n=%d k=%d (k must be 1, 2, n-1 or n)" % (n, k))


def harmonic_from_stirling(n: int, triangle: StirlingTriangle) -> Fraction:
    """H(n) recovered as (-1)^(n+1) s(n+1,2) / n!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Fraction((-1) ** (n + 1) * triangle.value(n + 1, 2), factorial(n))


def _check_indices(n, k):
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n, got n=%d k=%d" % (n, k))


def _as_int(value, n, k):
    value = Fraction(value)
    if value.denominator != 1:
        raise AssertionError("s(%d,%d) route produced a non-integer %s" % (n, k, value))
    return value.numerator
