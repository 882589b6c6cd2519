"""Kernels for the hot loops: triangle fill, nested sums, series products and
long division.

Rationals travel as ``(num, den)`` tuples of Python ints with ``den > 0`` and
``gcd(num, den) == 1``.
"""

from math import gcd


def stirling_rows(max_n):
    """Signed first-kind Stirling triangle, rows 0..max_n.

    rows[n][k] = s(n,k), built by s(n+1,k) = s(n,k-1) - n*s(n,k) with
    s(0,0) = 1 and s(n,0) = 0 for n >= 1.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    rows = [[1]]
    for n in range(max_n):
        prev = rows[n]
        row = [0] * (n + 2)
        for k in range(1, n + 1):
            row[k] = prev[k - 1] - n * prev[k]
        row[n + 1] = prev[n]
        rows.append(row)
    return rows


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
    """
    d0n, d0d = den[0]
    if d0n == 0:
        raise ZeroDivisionError("leading coefficient of divisor is zero")
    n = len(num) - 1
    q = []
    for j in range(n + 1):
        sn, sd = num[j]
        for i in range(j):
            pn = q[i][0] * den[j - i][0]
            if pn:
                pd = q[i][1] * den[j - i][1]
                sn = sn * pd - pn * sd
                sd *= pd
                g = gcd(sn, sd)
                if g > 1:
                    sn //= g
                    sd //= g
        qn = sn * d0d
        qd = sd * d0n
        if qd < 0:
            qn = -qn
            qd = -qd
        g = gcd(qn, qd)
        if g > 1:
            qn //= g
            qd //= g
        q.append((qn, qd) if qn else (0, 1))
    return q
