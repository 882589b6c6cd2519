"""Exact arithmetic substrate: big integers, normalized rationals, harmonic numbers.

Python ints are already exact at any size, and ``fractions.Fraction`` keeps
every value normalized (positive denominator, coprime parts, zero as 0/1),
so those are the number types used throughout the package.  This module adds
the handful of named operations the rest of the code builds on, and the one
decimal context in which integer rows may be held as ``Decimal`` for printing.
"""

import decimal
from fractions import Fraction

__all__ = [
    "harmonic",
    "format_rational",
    "decimal_string",
    "EXACT_DECIMAL",
]

# CPython prints an int in time quadratic in its digit count; libmpdec keeps
# digits in radix 10**19 and prints a Decimal in linear time.  Integer
# Decimals computed in this context are exact: any rounding raises.
EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


def harmonic(n: int) -> Fraction:
    """H(n) = 1 + 1/2 + ... + 1/n as an exact rational; H(0) = 0.

    Computed by direct summation (each addition reduces by gcd), so it can
    serve as an independent reference for the Stirling-number route in
    :func:`gregory.stirling.harmonic_from_stirling`.
    """
    if n < 0:
        raise ValueError("harmonic() is defined for n >= 0")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total


def format_rational(q) -> str:
    """Render a rational as 'p/q', or just 'p' for integers."""
    return str(Fraction(q))


def decimal_string(q, digits: int) -> str:
    """Fixed-point decimal expansion of a rational, round-half-even.

    ``digits`` is the number of places after the point; 0 gives an integer
    string.  The sign is dropped when the rounded value is zero.  The
    division and the rendering run in :data:`EXACT_DECIMAL`, so the time
    grows about linearly with ``digits``, where ``10**digits`` as an int
    would print in quadratic time.  Raises ValueError when the numerator
    shifted by ``digits`` places is past that context's exponent range.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    q = Fraction(q)
    den = decimal.Decimal(q.denominator)  # converted once: int to Decimal is not linear
    with decimal.localcontext(EXACT_DECIMAL):
        try:
            shifted = decimal.Decimal(abs(q.numerator)).scaleb(digits)
        except decimal.DecimalException:  # the context traps rather than overflow
            raise ValueError(
                "%d decimal places are past the Decimal exponent range" % digits
            ) from None
        scaled, rem = divmod(shifted, den)
        double = 2 * rem
        if double > den or (double == den and scaled % 2 == 1):
            scaled += 1
        text = format(scaled.scaleb(-digits), "f")
    return ("-" if q < 0 and scaled else "") + text
