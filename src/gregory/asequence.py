"""The auxiliary positive table a(n,k) and its row-shape probe.

a(n,k) is defined for n >= 1 and 2 <= k <= n + 1 by a(n,2) = (n-1)! and, for
k >= 3, a(n,k) = (k-1)! (n-1)! times the (k-2)-fold nested reciprocal sum
over strictly decreasing chains below n.  It collapses to the signed Stirling
numbers through a(n,k) = (-1)^(n+k-1) (k-1)! s(n,k-1), and with the Stirling
recursion that relation gives the row recursion
a(n+1,k) = (k-1) a(n,k-1) + n a(n,k), which multiplies by small integers
only.  The recursion builds whole tables (:func:`a_rows`); the relation gives
one row from its Stirling row (:func:`a_row`, its only writer); the nested
sums stay around as the literal reference for small n.  The difference
identity a(n,k) - n a(n-1,k) = (-1)^(n+k-1) (k-1)! [s(n-1,k-1) + s(n-1,k-2)]
follows from the relation and the Stirling recursion: on one triangle it
would check only the relation's sign and factorial, so the acceptance suite
evaluates it between the two recursions.

Every row is strictly log-concave, hence unimodal with at most two equal
maxima.  For n >= 1, c_j = |s(n,j)| are the coefficients of x(x+1)...(x+n-1),
which has only real roots, so Newton's inequalities (Hardy, Littlewood and
Polya, *Inequalities*, 1934) give c_j^2 >= c_(j-1) c_(j+1) (1 + 1/j)
(1 + 1/(n-j)) for 1 <= j <= n-1; since a(n,j+1) = j! c_j, the ratios
a(n,j+1)/a(n,j) = j c_j/c_(j-1) strictly fall in j.  Erdos (1953, J. London
Math. Soc. 28, "On a conjecture of Hammersley") proved |s(n,.)| unimodal.
Each row is also at least n-1 times the row before it, entry by entry, by the
row recursion, since no entry is negative.  So :func:`probe_row` reports a
shape that no correct row can fail: ``probe`` treats a failure as a
computation fault.
"""

import itertools
from collections import namedtuple
from fractions import Fraction
from math import factorial
from operator import ge

from . import _kernels
from .stirling import StirlingTriangle, _RowTable

__all__ = [
    "ASequence",
    "ProbeReport",
    "a_row",
    "a_rows",
    "a_nested_sum",
    "a_from_stirling",
    "probe_row",
    "probe_a_row",
]


class ASequence(_RowTable):
    """Table of a(n,k) values for 1 <= n <= max_n, 2 <= k <= n + 1; ``row(n)``
    is (a(n,2), ..., a(n,n+1))."""

    _FIRST_N = 1
    _FIRST_K = 2
    __slots__ = ()

    @classmethod
    def from_triangle(cls, triangle: StirlingTriangle, max_n: int) -> "ASequence":
        """Fill the table through row max_n via the Stirling relation."""
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        return cls([a_row(n, triangle.row(n)) for n in range(1, max_n + 1)])

    @classmethod
    def build(cls, max_n: int) -> "ASequence":
        if max_n < 1:
            raise ValueError("max_n must be >= 1")
        return cls(list(a_rows(max_n)))


def a_row(n: int, s_row) -> list:
    """Row n of the table, [a(n,2), ..., a(n,n+1)], from the Stirling row
    s(n,0..n); (k-1)! is kept as a running product.

    The one place the relation a(n,k) = (-1)^(n+k-1) (k-1)! s(n,k-1) is
    written: every other reader of it takes its values from here.
    """
    row = []
    fact = 1  # (k-1)!
    for k in range(2, n + 2):
        fact *= k - 1
        value = fact * s_row[k - 1]
        row.append(value if (n + k) & 1 else -value)  # (-1)^(n+k-1)
    return row


def a_rows(max_n: int, one=1):
    """Rows 1..max_n of the table, one at a time, by the row recursion from
    a(1,2) = ``one``; only the row being built and the one before it are held.

    ``one`` sets the number type: ``Decimal(1)`` gives rows that print in
    linear time, exact as long as the caller's decimal context neither rounds
    nor overflows (:data:`gregory.exact.EXACT_DECIMAL`).  max_n is checked
    when the function is called, not when the first row is taken.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    rows = itertools.accumulate(range(1, max_n), _next_a_row, initial=[one])
    return itertools.islice(rows, max_n)  # max_n = 0 takes not even the seed


def _next_a_row(row, n):
    """Row n+1 from row n: a(n+1,k) = (k-1) a(n,k-1) + n a(n,k), where
    a(n,1) = a(n,n+2) = 0 leaves one term at each end."""
    inner = [j * left + n * right for j, left, right in zip(range(2, n + 1), row, row[1:])]
    return [n * row[0], *inner, (n + 1) * row[-1]]


def a_nested_sum(n: int, k: int) -> int:
    """a(n,k) from the literal nested-sum definition (reference route)."""
    _check_indices(n, k)
    table = _kernels.nested_sum_table(k - 2, n - 1)
    num, den = table[k - 2][n - 1]
    value = Fraction(factorial(k - 1) * factorial(n - 1) * num, den)
    if value.denominator != 1:
        raise AssertionError("a(%d,%d) nested sum is not an integer" % (n, k))
    if value <= 0:
        raise AssertionError("a(%d,%d) must be positive, got %s" % (n, k, value))
    return value.numerator


def a_from_stirling(n: int, k: int, triangle: StirlingTriangle) -> int:
    """a(n,k) from row n of the triangle through :func:`a_row` (production route)."""
    _check_indices(n, k)
    return a_row(n, triangle.row(n))[k - 2]


ProbeReport = namedtuple("ProbeReport", "n row peak_indices is_unimodal increasing_in_n_ok")
ProbeReport.__doc__ = """Shape summary of one a(n, .) row: n, the row, peak_indices
(the k where the row maximum is attained), is_unimodal and
increasing_in_n_ok."""


def probe_row(n: int, a: ASequence) -> ProbeReport:
    """:func:`probe_a_row` on row n of the table, checking growth against
    row n-1 of the table (no check for n = 1)."""
    return probe_a_row(n, a.row(n), a.row(n - 1) if n >= 2 else None)


def probe_a_row(n: int, row, prev_row=None) -> ProbeReport:
    """Report peak positions, unimodality, and growth against row n-1.

    ``row`` is (a(n,2), ..., a(n,n+1)) and ``prev_row`` is row n-1, or None
    for no growth check.  A row counts as unimodal when it rises weakly to a
    single maximal plateau and falls weakly afterwards; a flat plateau of
    equal maxima is fine.  That holds exactly when no strict rise follows the
    first strict fall: the row then rises weakly to that fall and falls
    weakly after it, so its maxima are one run.
    """
    row = list(row)
    top = max(row)
    after_first_fall = itertools.dropwhile(lambda step: step[0] <= step[1], zip(row, row[1:]))
    return ProbeReport(
        n=n,
        row=row,
        peak_indices=[k for k, v in enumerate(row, 2) if v == top],
        is_unimodal=all(b <= a for a, b in after_first_fall),
        increasing_in_n_ok=prev_row is None or all(map(ge, row, prev_row)),
    )


def _check_indices(n, k):
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 2 <= k <= n + 1:
        raise ValueError("need 2 <= k <= n+1, got n=%d k=%d" % (n, k))
