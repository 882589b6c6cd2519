"""Kernels for the hot loops: the Stirling row recursion, nested sums, series
products, powers and long division.

Every exact sum in the package shares one substrate: it scales its terms to
integers over one denominator, adds integers only, and reduces once per
output entry.  The series kernels take coefficient sequences of ints or
``Fraction``s, scale each through :func:`_over_lcm`, and return a list of
``Fraction``s, each built once from its integer sum.  The power of a series
is J.C.P. Miller's recurrence, O(N^2) coefficient products whatever the
exponent, not k Cauchy products.  The nested sum table
returns ``(num, den)`` tuples of Python ints with ``den > 0`` and
``gcd(num, den) == 1``, reduced through :func:`_reduced`.

Every sum against a fixed list of denominators is one block sum,
:func:`lcm_sum`: the ``nemes`` and ``theorem`` b_n routes, series division
and ``gregory harmonic N``.  It scales in two levels over whole runs of
denominators, so that a large numerator meets a small multiplier.  A caller
builds the runs' lcms and weights once (:func:`lcm_plan`) and sums every
prefix it needs against that plan.
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
    sequence of nonzero ints of either sign, built once.

    A tuple (dens, lcms, weights, whole): per run dens[b:b + _BLOCK] its own
    lcm Lb and the small weights Lb // d, and whole[i], the lcm of the first
    i runs (whole[0] = 1).  ``math.lcm`` is non-negative and Lb is a multiple
    of every d of its run, so Lb // d is exact and carries the sign of d."""
    runs = [dens[b : b + _BLOCK] for b in range(0, len(dens), _BLOCK)]
    lcms = [lcm(*run) for run in runs]
    weights = [[lb // d for d in run] for run, lb in zip(runs, lcms)]
    return dens, lcms, weights, list(accumulate(lcms, lcm, initial=1))


def lcm_sum(nums, plan):
    """(S, L): the sum of nums[i]/dens[i] over the first m = len(nums)
    denominators of the plan's ``dens``, as the integer S over L, unreduced;
    (0, 1) for no terms.

    The sum reads whole runs of the plan: each run's numerators are summed
    against its small weights Lb // d, and each run sum is then scaled once
    by L // Lb.  A last run cut short by m reads only its first weights.  So
    L = whole[ceil(m / _BLOCK)], the lcm of the runs reached, a multiple of
    lcm(dens[:m])."""
    dens, lcms, weights, whole = plan
    m = len(nums)
    if m > len(dens):
        raise ValueError("%d numerators for %d denominators" % (m, len(dens)))
    big = whole[-(-m // _BLOCK)]
    total = sum(
        (big // lb) * sum(map(mul, nums[b : b + _BLOCK], w))
        for b, lb, w in zip(range(0, m, _BLOCK), lcms, weights)
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


def _push(p, r, c):
    """Put the ``Fraction`` c at the front of P, integer numerators over one
    running denominator R, and return the new R: the lcm of R and c's
    denominator, with every numerator already in P rescaled to it."""
    grow = c.denominator // gcd(r, c.denominator)
    if grow > 1:
        r *= grow
        p[:] = [x * grow for x in p]
    p.insert(0, c.numerator * (r // c.denominator))
    return r


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
    den[1:] gets one :func:`lcm_plan` over its denominators, with each
    numerator folded into its weight, so that (S, L) = lcm_sum(P, plan) is
    sum_i P[i] den[1+i] as S/L.  Every quotient coefficient found so far is
    held as an integer numerator over one running denominator R, a multiple
    of Ln, in P newest first: P[i] belongs to q[j-1-i], which meets den[1+i].
    Then q[j] = (N[j] L R/Ln - S) / (R L den[0]), with one gcd per
    coefficient.
    """
    lead, *tail = den
    if lead == 0:
        raise ZeroDivisionError("leading coefficient of divisor is zero")
    big_n, ln = _over_lcm(num)
    tail_n = [c.numerator for c in tail]
    dens, lcms, weights, whole = lcm_plan([c.denominator for c in tail])
    runs = zip(range(0, len(tail), _BLOCK), weights)
    plan = dens, lcms, [list(map(mul, tail_n[b : b + _BLOCK], w)) for b, w in runs], whole
    r = ln
    p = []  # P[j-1], P[j-2], ..., P[0]
    q = []
    for nj in big_n:
        s, big = lcm_sum(p, plan)
        c = Fraction((nj * big * (r // ln) - s) * lead.denominator, r * big * lead.numerator)
        q.append(c)
        r = _push(p, r, c)
    return q


def series_pow_pairs(f, k):
    """The first len(f) coefficients of f^k for a coefficient sequence of
    ints or ``Fraction``s with f[0] nonzero and an int k >= 0, as a list of
    ``Fraction``s.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): g = f^k has
    g[0] = f[0]^k and g[j] = 1/(j f[0]) sum_{i=1..j} ((k+1) i - j) f[i] g[j-i].
    f is scaled once to integers, f = F/L, and L cancels from every ratio
    f[i]/f[0].  As in :func:`series_div_pairs`, every coefficient found so
    far is held as an integer numerator over one running denominator R, in P
    newest first: P[i-1] belongs to g[j-i], which meets F[i].  Then
    g[j] = sum_i ((k+1) i - j) F[i] P[i-1] / (j F[0] R): one integer sum of
    j products and one gcd per coefficient.
    """
    (lead, *tail), big = _over_lcm(f)
    g = [Fraction(lead**k, big**k)]
    p = []  # newest first
    r = _push(p, 1, g[0])
    for j in range(1, len(f)):
        weighted = [((k + 1) * i - j) * x for i, x in enumerate(tail[:j], 1)]
        g.append(Fraction(sum(map(mul, weighted, p)), j * lead * r))
        r = _push(p, r, g[-1])
    return g
