"""Truncated formal power series over exact rationals.

A truncated series is a tuple of exact coefficients c_0..c_N standing in for
a power series whose terms above x^N have been discarded; its order N is the
length minus one.  Arithmetic never extends the order: products truncate, and
quotients lose exactly the order eaten by cancelling the divisor's leading
zeros.  This makes the precision of every derived coefficient auditable.
Inputs may hold ints or ``Fraction``s; results hold ``Fraction``s.  The
product, the power and the quotient pass their coefficients to the kernels
in :mod:`gregory._kernels` as they are, and the kernels return each result
coefficient as a ``Fraction`` reduced once.  A power is J.C.P. Miller's
recurrence, O(N^2) coefficient products whatever the exponent k, not k
successive products.

The two generating functions computed here are the series of ln(1+x) raised
to integer powers, whose x^n coefficient times n!/k! is the signed Stirling
number s(n,k), and the quotient x/ln(1+x), whose coefficients are the
Bernoulli numbers of the second kind (Gregory coefficients).  Both serve as
the independent cross-check for the recurrence- and sum-based routes in the
other modules.
"""

from fractions import Fraction
from math import factorial

from . import _kernels

__all__ = [
    "log1p_series",
    "series_mul",
    "series_div",
    "series_pow",
    "stirling_gf_coeff",
    "bernoulli2_series",
]


def _check(*series):
    """Every series has at least the constant term, and all have one order."""
    if not all(series):
        raise ValueError("a series needs at least the constant term")
    if len({len(s) for s in series}) > 1:
        raise ValueError("order mismatch: %d vs %d" % tuple(len(s) - 1 for s in series))


def log1p_series(order: int) -> tuple:
    """ln(1+x) truncated at the given order: x - x^2/2 + x^3/3 - ..."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return (Fraction(0),) + tuple(Fraction((-1) ** (j + 1), j) for j in range(1, order + 1))


def series_mul(a, b) -> tuple:
    """Cauchy product truncated at the common order."""
    _check(a, b)
    return tuple(_kernels.series_mul_pairs(a, b))


def series_div(num, den) -> tuple:
    """Power-series quotient.

    Common leading zeros of the divisor are cancelled first (the valuation
    shift), which is what removable singularities like x/ln(1+x) at 0 need.
    The result has order ``len(num) - 1 - v``, with v the index of the
    divisor's first nonzero coefficient, and satisfies
    ``series_mul(result, den[v:]) == num[v:]``.
    """
    _check(num, den)
    v = next((j for j, c in enumerate(den) if c), None)
    if v is None:
        raise ZeroDivisionError("division by the zero series")
    if any(num[:v]):
        raise ValueError(
            "no power-series quotient: the numerator has a nonzero term below x^%d, "
            "the divisor's valuation" % v
        )
    return tuple(_kernels.series_div_pairs(num[v:], den[v:]))


def series_pow(s, k: int) -> tuple:
    """Truncated power s^k by J.C.P. Miller's recurrence, O(N^2) coefficient
    products whatever k; k = 0 gives the constant-1 series.

    With v the valuation of s, s^k = x^(v k) f^k for f = s[v:], so the
    result is zero below x^(v k), and the zero series when v k passes the
    order.  f^k is needed through x^(N - v k), which reads f only that far.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check(s)
    order = len(s) - 1
    if k == 0:
        return (Fraction(1),) + (Fraction(0),) * order
    v = next((j for j, c in enumerate(s) if c), None)
    if v is None or v * k > order:
        return (Fraction(0),) * (order + 1)
    powered = _kernels.series_pow_pairs(s[v : order + 1 - v * (k - 1)], k)
    return (Fraction(0),) * (v * k) + tuple(powered)


def stirling_gf_coeff(n: int, k: int, order: int) -> Fraction:
    """s(n,k) extracted from the generating function: n! * [x^n] ln(1+x)^k / k!.

    Always integer-valued; kept as a Fraction so the caller can assert that.
    """
    if not 1 <= k <= n <= order:
        raise ValueError("need 1 <= k <= n <= order, got n=%d k=%d order=%d" % (n, k, order))
    powered = series_pow(log1p_series(order), k)
    return powered[n] * factorial(n) / factorial(k)


def bernoulli2_series(max_n: int) -> list:
    """Bernoulli numbers of the second kind b_0..b_max_n from x/ln(1+x).

    The division works at order max_n + 1 so that cancelling the shared
    factor x still leaves max_n + 1 usable coefficients.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    x = (0, 1) + (0,) * max_n
    return list(series_div(x, log1p_series(max_n + 1)))
