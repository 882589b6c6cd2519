"""Closed-form n-th derivative of 1/ln x and its numeric verification.

The exact part never touches floats: the expansion is the list
[c_1, ..., c_n] of coefficients c_k = (-1)^k k! s(n,k), so k is the index
plus one and n is the length, giving

    (d/dx)^n (1/ln x) = x^(-n) * sum_{k=1}^{n} c_k (1/ln x)^(k+1).

The verifier is deliberately independent of the Stirling machinery: it
estimates the derivative by a central finite-difference stencil whose weights
are solved exactly from the moment conditions, then compares in double
precision at a relative tolerance.
"""

import math
import sys
from collections import namedtuple
from fractions import Fraction

from .asequence import a_row
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
    if n < 1:
        raise ValueError("n must be >= 1")
    return expansion_from_row(n, triangle.row(n))


def expansion_from_row(n: int, s_row) -> list:
    """The expansion [c_1..c_n] of the n-th derivative from the Stirling row
    s(n, 0..n): c_k = (-1)^k k! s(n,k) = (-1)^n a(n,k+1), read from :func:`a_row`."""
    return [(-1) ** n * a for a in a_row(n, s_row)]


def evaluate_expansion(coeffs, x: float) -> float:
    """Evaluate the expansion [c_1..c_n] at finite x > 0, x != 1 (1/ln x has a
    pole at 1).

    The sum of c_k u^(k+1) / x^n is exact, in the binary fractions x and
    u = 1/ln x (a float), and rounded to a float once, so a c_k past float
    range does not overflow a value that fits.  Raises ValueError when the
    value does not fit in a float, or rounds to 0 though it is not 0.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite, got %r" % x)
    if x <= 0:
        raise ValueError("x must be positive")
    if x == 1:
        raise ValueError("x = 1 is the pole of 1/ln x")
    n = len(coeffs)
    u = Fraction(1.0 / math.log(x))
    poly = 0
    for c in reversed(coeffs):
        poly = poly * u + c
    exact = poly * u * u / Fraction(x) ** n
    try:
        value = float(exact)
    except OverflowError:
        value = math.inf
    if math.isinf(value) or (value == 0 and exact != 0):
        raise ValueError("derivative of order %d at x=%r is beyond float range" % (n, x))
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
estimate, the stencil value; floor, the error the stencil is expected to
make, relative like residual."""


def finite_difference_check(n: int, x: float, h: float, tol: float) -> FiniteDifferenceResult:
    """Compare the closed form against a central-difference estimate.

    Supports 1 <= n <= 6.  The stencil must stay strictly right of the pole
    at t = 1, so x - m*h > 1 is required (m is the stencil half-width).

    The result also carries the error floor of the stencil at this step,
    relative to |f^(n)(x)| like the residual: truncation |C h^2 f^(n+2)(x)|,
    with C = sum_j w_j j^(n+2) / (n+2)! the first moment the weights leave
    unmatched and f^(n+2) from the closed form, plus the round-off
    eps * sum_j |w_j f(x + j h)| / h^n of summing the stencil in double
    precision.  A step so small that two stencil points x + j*h round to
    the same float is rejected with ValueError: the estimate would then be
    round-off, and its residual no verdict on the formula.
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
    points = [x + j * h for j in offsets]
    if points[0] <= 1:
        raise ValueError("stencil [%g, %g] crosses the pole at t = 1" % (points[0], points[-1]))
    # Coinciding points make the estimate say nothing about the formula; for
    # x > 1 this also covers every h whose h**n underflows to 0.
    if len(set(points)) < len(points):
        raise ValueError(
            "step h=%g too small: the stencil points x + j*h at x=%r are not all distinct" % (h, x)
        )
    expected = evaluate_expansion(expansion_from_row(n, stirling_row(n)), x)
    terms = [float(w) / math.log(t) for t, w in zip(points, weights)]
    estimate = math.fsum(terms) / h ** n
    residual = abs(estimate - expected) / abs(expected)
    if not math.isfinite(residual):
        raise ValueError("step h=%g too small: the stencil estimate is %r" % (h, estimate))
    moment = sum(w * Fraction(j) ** (n + 2) for j, w in zip(offsets, weights))
    try:
        higher = evaluate_expansion(expansion_from_row(n + 2, stirling_row(n + 2)), x)
    except ValueError:  # it would name order n+2, which the user did not ask for
        raise ValueError(
            "the error floor of the order-%d check at x=%r is beyond float range" % (n, x)
        ) from None
    truncation = abs(float(moment / math.factorial(n + 2)) * h * h * higher)
    roundoff = sys.float_info.epsilon * math.fsum(map(abs, terms)) / h ** n
    return FiniteDifferenceResult(
        passed=residual <= tol,
        residual=residual,
        expected=expected,
        estimate=estimate,
        floor=(truncation + roundoff) / abs(expected),
    )
