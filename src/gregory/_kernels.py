"""Kernels for the hot loops: the Stirling row recursion, nested sums, series
products and long division.

Every exact sum in the package shares one substrate: it scales its terms to
integers over one denominator, adds integers only, and reduces once per
output entry.  The series kernels take coefficient sequences of ints or
``Fraction``s, scale each through :func:`_over_lcm`, and return a list of
``Fraction``s, each built once from its integer sum.  The nested sum table
returns ``(num, den)`` tuples of Python ints with ``den > 0`` and
``gcd(num, den) == 1``, reduced through :func:`_reduced`.  The b_n routes and
the Stirling column recurrence sum through :func:`lcm_sum`.  :func:`lcm_sum`
and series division scale in two levels over runs of denominators, so that a
large numerator meets a small multiplier.  A route builds the runs' lcms and
weights once per column (:func:`lcm_plan`) and sums every prefix it needs
against that plan.
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial, gcd, lcm
from operator import mul


def _over_lcm(coeffs):
    """(ints, L): each int or ``Fraction`` coefficient as an integer numerator
    over L, the lcm of the denominators.  ``coeffs`` is read twice, so it
    must be a sequence."""
    big = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (big // c.denominator) for c in coeffs], big


# Denominators per block of a two-level sum: a block's lcm stays a few
# machine words, so each weight Lb // d is small.
_BLOCK = 16


def lcm_plan(dens):
    """The fixed part of every :func:`lcm_sum` over a prefix of ``dens``, a
    sequence of positive ints, built once per column.

    A tuple (dens, lcms, weights, whole): per run dens[b:b + _BLOCK] its own
    lcm Lb and the small weights Lb // d, and whole[i], the lcm of the first
    i runs (whole[0] = 1)."""
    runs = [dens[b : b + _BLOCK] for b in range(0, len(dens), _BLOCK)]
    lcms = [lcm(*run) for run in runs]
    weights = [[lb // d for d in run] for run, lb in zip(runs, lcms)]
    return dens, lcms, weights, list(accumulate(lcms, lcm, initial=1))


def lcm_sum(nums, plan):
    """(S, L): the sum of nums[i]/dens[i] over the first m = len(nums)
    denominators of the plan's ``dens``, as the integer S over
    L = lcm(dens[:m]), unreduced; (0, 1) for no terms.

    Each run's numerators are summed against its small weights Lb // d, and
    each run sum is then scaled once by L // Lb.  The runs that end by m come
    from the plan; only a last run cut short by m has its lcm and weights
    computed here."""
    dens, lcms, weights, whole = plan
    m = len(nums)
    if m > len(dens):
        raise ValueError("%d numerators for %d denominators" % (m, len(dens)))
    full = len(lcms) if m == len(dens) else m // _BLOCK
    runs = list(zip(lcms[:full], weights[:full]))
    big = whole[full]
    if full * _BLOCK < m:
        cut = dens[full * _BLOCK : m]
        lb = lcm(*cut)
        runs.append((lb, [lb // d for d in cut]))
        big = lcm(big, lb)
    total = sum(
        (big // lb) * sum(map(mul, nums[b : b + _BLOCK], w))
        for b, (lb, w) in zip(range(0, m, _BLOCK), runs)
    )
    return total, big


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
    """Cauchy product of two equal-length coefficient sequences of ints or
    ``Fraction``s, as a list of ``Fraction``s.

    With a = A/La and b = B/Lb scaled to integers, coefficient j is the
    integer sum of A[i] B[j-i] over La*Lb, reduced once.
    """
    big_a, la = _over_lcm(a)
    big_b, lb = _over_lcm(b)
    return [Fraction(sum(map(mul, big_a[: j + 1], big_b[j::-1])), la * lb) for j in range(len(a))]


def series_div_pairs(num, den):
    """Long division of coefficient sequences of ints or ``Fraction``s;
    den[0] must be nonzero.

    Returns the list of ``Fraction``s q with (q * den)[j] = num[j] for all
    j <= len(num) - 1.

    The dividend is scaled to integers, num = N/Ln.  The divisor's tail
    den[1:] is cut into the runs of its :func:`lcm_plan` over L1, the lcm of
    its denominators, with each numerator folded into its block weight: W[m] =
    L1 den[m] is the block's factor times a small weight.  Every quotient
    coefficient found so far is held as an integer numerator P[i] over one
    running denominator R, a multiple of Ln, and kept newest first, so that
    each block reads its P[j-m] from one slice.  Then
    q[j] = (N[j] L1 R/Ln - sum_m P[j-m] W[m]) / (R L1 den[0]) is an integer
    sum, summed block by block, with one gcd per coefficient.
    """
    lead, *tail = den
    if lead == 0:
        raise ZeroDivisionError("leading coefficient of divisor is zero")
    big_n, ln = _over_lcm(num)
    tail_n = [c.numerator for c in tail]
    _, lcms, weights, whole = lcm_plan([c.denominator for c in tail])
    l1 = whole[-1]
    blocks = [
        (b, list(map(mul, tail_n[b : b + _BLOCK], w)), l1 // lb)
        for b, w, lb in zip(range(0, len(tail), _BLOCK), weights, lcms)
    ]
    r = ln
    p = []  # P[j-1], P[j-2], ..., P[0]
    q = []
    for j, nj in enumerate(big_n):
        live = blocks[: (j + _BLOCK - 1) // _BLOCK]  # the blocks with start < j
        s = nj * l1 * (r // ln) - sum(f * sum(map(mul, p[b : b + _BLOCK], w)) for b, w, f in live)
        c = Fraction(s * lead.denominator, r * l1 * lead.numerator)
        q.append(c)
        grow = c.denominator // gcd(r, c.denominator)
        if grow > 1:
            r *= grow
            p = [x * grow for x in p]
        p.insert(0, c.numerator * (r // c.denominator))
    return q
