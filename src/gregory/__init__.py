"""Exact Bernoulli numbers of the second kind (Gregory coefficients), signed
Stirling numbers of the first kind, harmonic numbers, and the auxiliary table
a(n,k), each computable by several independent formulas that are cross-checked
for bit-exact agreement.

All sequence values are exact: arbitrary-precision integers or normalized
rationals.  Floating point only appears in the numeric finite-difference
verifier for the 1/ln x derivative formula.

The hot loops (the Stirling row recursion, nested sums, series products and
division) live in :mod:`gregory._kernels`; the ``bench`` CLI subcommand times
every b_n route side by side.
"""

from fractions import Fraction

from .asequence import (
    ASequence,
    ProbeReport,
    a_difference_identity_check,
    a_from_stirling,
    a_nested_sum,
    a_row,
    a_rows,
    probe_a_row,
    probe_row,
)
from .bernoulli import (
    MethodReport,
    bernoulli2_ank,
    bernoulli2_nemes,
    bernoulli2_report,
    bernoulli2_theorem,
)
from .calculus import (
    DerivativeExpansion,
    FiniteDifferenceResult,
    central_difference_weights,
    evaluate_expansion,
    expansion_from_row,
    finite_difference_check,
    reciprocal_log_derivative_coeffs,
)
from .exact import decimal_string, factorial, format_rational, harmonic, parse_rational
from .series import (
    TruncatedSeries,
    bernoulli2_series,
    log1p_series,
    series_div,
    series_mul,
    series_pow,
    stirling_gf_coeff,
)
from .stirling import (
    StirlingTriangle,
    harmonic_from_stirling,
    stirling_closed_form,
    stirling_column_recurrence,
    stirling_nested_sum,
    stirling_nested_sum_direct,
    stirling_row,
    stirling_triangle,
)

__version__ = "0.1.0"

__all__ = [
    "Fraction",
    "__version__",
    "ASequence",
    "ProbeReport",
    "a_difference_identity_check",
    "a_from_stirling",
    "a_nested_sum",
    "a_row",
    "a_rows",
    "probe_a_row",
    "probe_row",
    "MethodReport",
    "bernoulli2_ank",
    "bernoulli2_nemes",
    "bernoulli2_report",
    "bernoulli2_theorem",
    "DerivativeExpansion",
    "FiniteDifferenceResult",
    "central_difference_weights",
    "evaluate_expansion",
    "expansion_from_row",
    "finite_difference_check",
    "reciprocal_log_derivative_coeffs",
    "decimal_string",
    "factorial",
    "format_rational",
    "harmonic",
    "parse_rational",
    "TruncatedSeries",
    "bernoulli2_series",
    "log1p_series",
    "series_div",
    "series_mul",
    "series_pow",
    "stirling_gf_coeff",
    "StirlingTriangle",
    "harmonic_from_stirling",
    "stirling_closed_form",
    "stirling_column_recurrence",
    "stirling_nested_sum",
    "stirling_nested_sum_direct",
    "stirling_row",
    "stirling_triangle",
]
