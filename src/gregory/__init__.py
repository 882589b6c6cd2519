"""Exact Bernoulli numbers of the second kind (Gregory coefficients), signed
Stirling numbers of the first kind, harmonic numbers, and the auxiliary table
a(n,k), each computable by several independent formulas that are cross-checked
for bit-exact agreement.

All sequence values are exact: arbitrary-precision integers or normalized
rationals.  Floating point only appears where the 1/ln x derivative formula
meets a float x: its value there and its finite-difference check, both
evaluated in Decimal and rounded to floats once.

The hot loops (the Stirling row recursion, nested sums, series products and
division) live in :mod:`gregory._kernels`; the ``bench`` CLI subcommand times
every b_n route side by side.
"""

from . import asequence, bernoulli, calculus, exact, series, stirling
from .asequence import *  # noqa: F403
from .bernoulli import *  # noqa: F403
from .calculus import *  # noqa: F403
from .exact import *  # noqa: F403
from .series import *  # noqa: F403
from .stirling import *  # noqa: F403

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package
# re-exports them in import order.
__all__ = [
    "__version__",
    *asequence.__all__,
    *bernoulli.__all__,
    *calculus.__all__,
    *exact.__all__,
    *series.__all__,
    *stirling.__all__,
]
