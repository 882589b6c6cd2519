"""Truncated formal power series over exact rationals.

A :class:`TruncatedSeries` is a polynomial of fixed order N standing in for a
power series whose terms above x^N have been discarded.  Arithmetic never
extends the order: products truncate, and quotients lose exactly the order
eaten by cancelling the divisor's leading zeros.  This makes the precision of
every derived coefficient auditable.

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
    "TruncatedSeries",
    "log1p_series",
    "series_mul",
    "series_div",
    "series_pow",
    "stirling_gf_coeff",
    "bernoulli2_series",
]


class TruncatedSeries:
    """Coefficients c_0..c_N of a power series truncated at order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        # A Fraction is immutable, so one passed in is kept, not rebuilt.
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def valuation(self):
        """Index of the lowest nonzero coefficient, or None for the zero series."""
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        return None

    def __getitem__(self, j) -> Fraction:
        return self.coeffs[j]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "TruncatedSeries(%s)" % (list(self.coeffs),)


def _pairs(s: TruncatedSeries):
    return [(c.numerator, c.denominator) for c in s.coeffs]


def _from_pairs(pairs) -> TruncatedSeries:
    return TruncatedSeries([Fraction(n, d) for n, d in pairs])


def log1p_series(order: int) -> TruncatedSeries:
    """ln(1+x) truncated at the given order: x - x^2/2 + x^3/3 - ..."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return TruncatedSeries(
        [Fraction(0)] + [Fraction((-1) ** (j + 1), j) for j in range(1, order + 1)]
    )


def one_series(order: int) -> TruncatedSeries:
    return TruncatedSeries([Fraction(1)] + [Fraction(0)] * order)


def x_series(order: int) -> TruncatedSeries:
    if order < 1:
        raise ValueError("the monomial x needs order >= 1")
    return TruncatedSeries([Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1))


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the common order."""
    if a.order != b.order:
        raise ValueError("order mismatch: %d vs %d" % (a.order, b.order))
    return _from_pairs(_kernels.series_mul_pairs(_pairs(a), _pairs(b)))


def series_div(num: TruncatedSeries, den: TruncatedSeries) -> TruncatedSeries:
    """Power-series quotient.

    Common leading zeros of the divisor are cancelled first (the valuation
    shift), which is what removable singularities like x/ln(1+x) at 0 need.
    The result has order ``num.order - valuation(den)`` and satisfies
    ``series_mul(result, den) == num`` on the coefficients that survive.
    """
    if num.order != den.order:
        raise ValueError("order mismatch: %d vs %d" % (num.order, den.order))
    v_den = den.valuation()
    if v_den is None:
        raise ZeroDivisionError("division by the zero series")
    v_num = num.valuation()
    if v_num is not None and v_num < v_den:
        raise ValueError(
            "no power-series quotient: numerator valuation %d < denominator valuation %d"
            % (v_num, v_den)
        )
    if v_den > 0:
        num = TruncatedSeries(num.coeffs[v_den:])
        den = TruncatedSeries(den.coeffs[v_den:])
    return _from_pairs(_kernels.series_div_pairs(_pairs(num), _pairs(den)))


def series_pow(s: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-fold truncated product; k = 0 gives the constant-1 series."""
    if k < 0:
        raise ValueError("k must be >= 0")
    result = one_series(s.order)
    for _ in range(k):
        result = series_mul(result, s)
    return result


def stirling_gf_coeff(n: int, k: int, order: int) -> Fraction:
    """s(n,k) extracted from the generating function: n! * [x^n] ln(1+x)^k / k!.

    Always integer-valued; kept as a Fraction so the caller can assert that.
    """
    if not 1 <= k <= n <= order:
        raise ValueError("need 1 <= k <= n <= order, got n=%d k=%d order=%d" % (n, k, order))
    powered = series_pow(log1p_series(order), k)
    return powered[n] * factorial(n) / factorial(k)


def bernoulli2_series(max_n: int):
    """Bernoulli numbers of the second kind b_0..b_max_n from x/ln(1+x).

    The division works at order max_n + 1 so that cancelling the shared
    factor x still leaves max_n + 1 usable coefficients.
    """
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    order = max_n + 1
    quotient = series_div(x_series(order), log1p_series(order))
    return list(quotient.coeffs)
