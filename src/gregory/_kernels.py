"""Kernels for the hot loops: the Stirling row recursion, nested sums, series
products and long division.

Rationals travel as ``(num, den)`` tuples of Python ints with ``den > 0`` and
``gcd(num, den) == 1``.  Every exact sum in the package shares one
substrate: it scales its terms to integers over one denominator
(:func:`_over_lcm`), adds integers only, and reduces once per output entry
(:func:`_reduced`).  The series kernels use it on coefficient lists, and the
b_n routes and the Stirling column recurrence through :func:`lcm_sum`.
"""

from itertools import accumulate
from math import factorial, gcd, lcm
from operator import mul


def _over_lcm(nums, dens):
    """(ints, L): each nums[i]/dens[i] as an integer numerator over L, the lcm
    of the denominators.  ``dens`` is read twice, so it must be a sequence."""
    big = lcm(*dens)
    return [n * (big // d) for n, d in zip(nums, dens, strict=True)], big


def lcm_sum(nums, dens):
    """(S, L): the sum of nums[i]/dens[i] as the integer S over L = lcm(dens),
    unreduced; (0, 1) for no terms.  ``dens`` is a sequence of positive ints."""
    ints, big = _over_lcm(nums, dens)
    return sum(ints), big


def _reduced(num, den):
    """num/den as a normalized pair: gcd 1, den > 0, and (0, 1) for zero."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def stirling_rows(max_n):
    """Rows 0..max_n of the signed first-kind Stirling triangle, one at a time.

    Yields row n as the list [s(n,0), ..., s(n,n)], built from row n-1 by
    s(n+1,k) = s(n,k-1) - n*s(n,k) with s(0,0) = 1 and s(n,0) = 0 for
    n >= 1.  Only the row being built and the one before it are held, so a
    caller that keeps no rows needs O(max_n) integers.  max_n is checked
    when the function is called, not when the first row is taken.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    return _stirling_rows(max_n)


def _stirling_rows(max_n):
    prev = [1]
    yield prev
    for n in range(max_n):
        row = [0] * (n + 2)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] - n * prev[k]
        row[n + 1] = prev[n]
        yield row
        prev = row


def nested_sum_table(max_depth, max_top):
    """Table S[d][m] of nested reciprocal sums over strictly decreasing chains.

    S[d][m] = sum over l1 > l2 > ... > ld >= 1 with l1 <= m of prod 1/li,
    as reduced (num, den) pairs.  S[0][m] = 1; S[d][m] = 0 when m < d.

    Row d is built from row d-1 by S[d][m] = S[d][m-1] + S[d-1][m-1]/m, on
    integer numerators over M = max_top!: row[m] = row[m-1] + prev[m-1] // m.
    The division is exact.  Every chain term of S[d-1][m-1] has a
    denominator dividing (m-1)!, so its numerator over M is an integer
    multiple of M/(m-1)! = m (m+1) ... max_top, which m divides.  Each row is
    reduced once, when it is finished, and only the previous integer row is
    kept.
    """
    if max_depth < 0 or max_top < 0:
        raise ValueError("table bounds must be >= 0")
    big = factorial(max_top)
    row = [big] * (max_top + 1)
    table = [[_reduced(x, big) for x in row]]
    for _ in range(max_depth):
        row = list(accumulate((x // m for m, x in enumerate(row[:-1], 1)), initial=0))
        table.append([_reduced(x, big) for x in row])
    return table


def series_mul_pairs(a, b):
    """Cauchy product of two equal-length coefficient lists of (num, den) pairs.

    With a = A/La and b = B/Lb scaled to integers, coefficient j is the
    integer sum of A[i] B[j-i] over La*Lb, reduced once.
    """
    big_a, la = _over_lcm(*zip(*a))
    big_b, lb = _over_lcm(*zip(*b))
    return [_reduced(sum(map(mul, big_a[: j + 1], big_b[j::-1])), la * lb) for j in range(len(a))]


def series_div_pairs(num, den):
    """Long division of coefficient lists; den[0] must be nonzero.

    Returns q with (q * den)[j] = num[j] for all j <= len(num) - 1.

    Both lists are scaled to integers, num = N/Ln and den = D/Ld with Ln, Ld
    the lcms of their denominators.  Every quotient coefficient found so far
    is held as an integer numerator P[i] over one running denominator R, a
    multiple of Ln, so that D[0] q[j] = (N[j] Ld R/Ln - sum P[i] D[j-i]) / R
    is an integer sum with one gcd per coefficient.
    """
    if den[0][0] == 0:
        raise ZeroDivisionError("leading coefficient of divisor is zero")
    big_n, ln = _over_lcm(*zip(*num))
    big_d, ld = _over_lcm(*zip(*den))
    r = ln
    p = []
    q = []
    for j, nj in enumerate(big_n):
        s = nj * ld * (r // ln) - sum(map(mul, p, big_d[j:0:-1]))
        qn, qd = _reduced(s, r * big_d[0])
        q.append((qn, qd))
        grow = qd // gcd(r, qd)
        if grow > 1:
            r *= grow
            p = [x * grow for x in p]
        p.append(qn * (r // qd))
    return q
