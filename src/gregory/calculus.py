"""Closed-form n-th derivative of 1/ln x and its numeric verification.

The exact part never touches floats: the expansion is the list
[c_1, ..., c_n] of coefficients c_k = (-1)^k k! s(n,k), so k is the index
plus one and n is the length, giving

    (d/dx)^n (1/ln x) = x^(-n) * sum_{k=1}^{n} c_k (1/ln x)^(k+1).

The verifier is deliberately independent of the Stirling machinery: it
estimates the derivative by a central finite-difference stencil whose weights
are solved exactly from the moment conditions.  Both are summed in Decimal,
at enough digits that their difference is the stencil's truncation alone.
"""

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction

from .asequence import a_row
from .exact import EXACT_DECIMAL
from .stirling import StirlingTriangle, stirling_row

__all__ = [
    "FiniteDifferenceResult",
    "reciprocal_log_derivative_coeffs",
    "expansion_from_row",
    "evaluate_expansion",
    "central_difference_weights",
    "finite_difference_check",
]

MAX_CHECK_ORDER = 6


def reciprocal_log_derivative_coeffs(n: int, triangle: StirlingTriangle) -> list:
    """Exact expansion coefficients [c_1..c_n] of the n-th derivative of 1/ln x."""
    return expansion_from_row(n, triangle.row(n))


def expansion_from_row(n: int, s_row) -> list:
    """The expansion [c_1..c_n] of the n-th derivative from the Stirling row
    s(n, 0..n): c_k = (-1)^k k! s(n,k) = (-1)^n a(n,k+1), read from :func:`a_row`,
    for n >= 1 (the 0-th derivative is no sum of this form)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [(-1) ** n * a for a in a_row(n, s_row)]


def _context(digits):
    """Quiet rounding to that precision at any exponent (cli.main's context traps it)."""
    return Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _closed_form(coeffs, x):
    """x^(-n) sum_k c_k u^(k+1), u = 1/ln x, at a Decimal x in the current
    context, each c_k cut to its leading 4*prec bits (a whole big int converts
    in quadratic time); and the sum of |c_k u^(k+1)|, a bound for its error."""
    u, bits = 1 / x.ln(), 4 * getcontext().prec
    poly = bound = 0
    for c in reversed(coeffs):
        shift = max(0, c.bit_length() - bits)
        c = Decimal(c >> shift) * Decimal(2) ** shift
        poly, bound = poly * u + c, bound * abs(u) + abs(c)
    scale = u * u / x ** len(coeffs)
    return poly * scale, bound * abs(scale)


def evaluate_expansion(coeffs, x: float) -> float:
    """Evaluate the expansion [c_1..c_n] at finite x > 0, x != 1 (the pole of 1/ln x),
    in Decimal at the exact x, at 40 digits and more while its terms cancel
    (0 < x < 1), rounded to a float once.  Raises ValueError when the value is
    beyond float range: it overflows, or it rounds to 0; and for an expansion
    with no nonzero coefficient, whose value 0 no precision would confirm."""
    # ln x is transcendental at a rational x != 1 (Lindemann), so any other
    # integer expansion has a nonzero value, and the loop below ends.
    if not any(coeffs):
        raise ValueError("the expansion has no nonzero coefficient")
    if not math.isfinite(x):
        raise ValueError("x must be finite, got %r" % x)
    if x <= 0:
        raise ValueError("x must be positive")
    if x == 1:
        raise ValueError("x = 1 is the pole of 1/ln x")
    digits = 40
    while True:
        with localcontext(_context(digits)):
            exact, bound = _closed_form(coeffs, Decimal(x))
        if exact and bound.adjusted() - exact.adjusted() < digits - 25:  # 25 digits survive
            break
        digits *= 2
    value = float(exact)
    if not 0 < abs(value) < math.inf:
        raise ValueError("derivative of order %d at x=%r is beyond float range" % (len(coeffs), x))
    return value


def central_difference_weights(n: int):
    """Offsets and exact weights of the order-2 central stencil for f^(n).

    Uses 2*ceil(n/2) + 1 points.  The weights w_j solve the moment conditions
    sum_j w_j j^p = n! [p == n] for p = 0 .. 2m, so f^(n)(x) ~ h^(-n) sum_j
    w_j f(x + j h) with O(h^2) error.  That Vandermonde system is nonsingular,
    and its solution is w_j = n! [x^n] l_j(x), with l_j the Lagrange basis
    polynomial that is 1 at offset j and 0 at the others, built in exact
    rational arithmetic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = (n + 1) // 2
    offsets = list(range(-m, m + 1))
    weights = []
    for j in offsets:
        basis = [Fraction(1)]  # coefficients of l_j, lowest order first
        for i in offsets:
            if i != j:  # times (x - i) / (j - i)
                basis = [(low - i * c) / (j - i) for low, c in zip([0, *basis], [*basis, 0])]
        weights.append(math.factorial(n) * basis[n])
    return offsets, weights


FiniteDifferenceResult = namedtuple(
    "FiniteDifferenceResult", "passed residual expected estimate floor"
)
FiniteDifferenceResult.__doc__ = """The verdict passed; residual, the relative
deviation between stencil and closed form; expected, the closed-form value;
estimate, the stencil value; floor, the stencil's truncation error, relative
like residual.  All but passed are floats, rounded from Decimal."""


def finite_difference_check(n: int, x: float, h: float, tol: float) -> FiniteDifferenceResult:
    """Compare the closed form against a central-difference estimate.

    Supports 1 <= n <= 6.  The stencil must stay strictly right of the pole
    at t = 1, so x - m*h > 1 is required (m is the stencil half-width).

    The points x + j*h are exact Decimals, and the stencil is summed at 30
    digits more than its cancellation costs, about (n+2) log10(x/h), so the
    residual is its truncation alone (n = 6 at h = 5e-324 takes seconds).  The
    floor is that truncation's leading term |C h^2 f^(n+2)(x) / f^(n)(x)|, with
    C = sum_j w_j j^(n+2) / (n+2)! the first moment the weights leave unmatched.
    """
    if not 1 <= n <= MAX_CHECK_ORDER:
        raise ValueError("n must be in [1, %d]" % MAX_CHECK_ORDER)
    if not all(map(math.isfinite, (x, h, tol))):
        raise ValueError("x, h and tol must be finite, got %r, %r, %r" % (x, h, tol))
    if tol < 0:
        raise ValueError("tol must be >= 0, got %r" % tol)
    if h <= 0:
        raise ValueError("h must be positive")
    if x <= 1:
        raise ValueError("x must be > 1 to keep the stencil away from the pole")
    offsets, weights = central_difference_weights(n)
    x, h = Decimal(x), Decimal(h)
    points = [EXACT_DECIMAL.fma(j, h, x) for j in offsets]
    if points[0] <= 1:
        raise ValueError("stencil [%g, %g] crosses the pole at t = 1" % (points[0], points[-1]))
    moment = sum(w * j ** (n + 2) for j, w in zip(offsets, weights)) / math.factorial(n + 2)
    with localcontext(_context(30)):
        higher, _ = _closed_form(expansion_from_row(n + 2, stirling_row(n + 2)), x)
        truncation = abs(moment.numerator * higher / moment.denominator) * h ** (n + 2)
        # 1/ln t falls on t > 1: the term at the leftmost point is the largest.
        spread = math.ceil(sum(map(abs, weights))) / points[0].ln()
    with localcontext(_context(30 + max(0, spread.adjusted() - truncation.adjusted()))):
        expected, _ = _closed_form(expansion_from_row(n, stirling_row(n)), x)
        terms = [w.numerator / (w.denominator * t.ln()) for t, w in zip(points, weights)]
        estimate = sum(terms) / h ** n
        residual = float(abs(estimate - expected) / abs(expected))
        floor = float(truncation / h ** n / abs(expected))
    return FiniteDifferenceResult(
        residual <= tol, residual, float(expected), float(estimate), floor
    )
