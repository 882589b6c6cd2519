"""Kernels for the hot loops: the Stirling row recursion, nested sums, series
products and long division.

Rationals travel as ``(num, den)`` tuples of Python ints with ``den > 0`` and
``gcd(num, den) == 1``.
"""

from math import gcd, lcm
from operator import mul


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
    """
    if max_depth < 0 or max_top < 0:
        raise ValueError("table bounds must be >= 0")
    table = [[(1, 1)] * (max_top + 1)]
    for d in range(1, max_depth + 1):
        prev = table[d - 1]
        row = [(0, 1)] * (max_top + 1)
        for m in range(1, max_top + 1):
            an, ad = row[m - 1]
            bn, bd = prev[m - 1]
            # row[m] = row[m-1] + prev[m-1]/m
            num = an * bd * m + bn * ad
            den = ad * bd * m
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
            row[m] = (num, den)
        table.append(row)
    return table


def series_mul_pairs(a, b):
    """Cauchy product of two equal-length coefficient lists of (num, den) pairs."""
    n = len(a) - 1
    out = []
    for j in range(n + 1):
        sn = 0
        sd = 1
        for i in range(j + 1):
            pn = a[i][0] * b[j - i][0]
            if pn:
                pd = a[i][1] * b[j - i][1]
                sn = sn * pd + pn * sd
                sd *= pd
                g = gcd(sn, sd)
                if g > 1:
                    sn //= g
                    sd //= g
        out.append((sn, sd) if sn else (0, 1))
    return out


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
    ln = lcm(*(d for _, d in num))
    ld = lcm(*(d for _, d in den))
    big_n = [n * (ln // d) for n, d in num]
    big_d = [n * (ld // d) for n, d in den]
    d0 = big_d[0]
    r = ln
    p = []
    q = []
    for j, nj in enumerate(big_n):
        s = nj * ld * (r // ln) - sum(map(mul, p, big_d[j:0:-1]))
        qd = r * d0
        g = gcd(s, qd)
        qn, qd = s // g, qd // g
        if qd < 0:
            qn, qd = -qn, -qd
        q.append((qn, qd))
        grow = qd // gcd(r, qd)
        if grow > 1:
            r *= grow
            p = [x * grow for x in p]
        p.append(qn * (r // qd))
    return q
