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

The package exports each module's ``__all__`` lazily (PEP 562): ``import
gregory`` runs none of its modules, so ``import gregory.cli`` loads only the
modules the CLI imports (``_kernels`` and ``exact``; each subcommand imports
the rest it needs).  The first public name read imports the six modules that
own them, once.  ``gregory.NAME`` is then read from its module on every
access, so it is always the module's current binding, a replaced or wrapped
function included; ``from gregory import NAME`` and ``from gregory import *``
work as before.
"""

import functools
import importlib

__version__ = "0.1.0"

# The modules whose __all__ the package exports, in the order of its __all__.
_MODULES = ("asequence", "bernoulli", "calculus", "exact", "series", "stirling")


@functools.cache
def _owner_map():
    """Public name -> the module that defines it, built on first use."""
    modules = [importlib.import_module("." + name, __name__) for name in _MODULES]
    return {name: module for module in modules for name in module.__all__}


def __getattr__(name):
    if name == "__all__":
        return ["__version__", *_owner_map()]
    if name in _MODULES:
        return importlib.import_module("." + name, __name__)
    # No public name starts with "_".  A private one must not import the six
    # modules: ``from . import _kernels`` asks for it while a module of the
    # package is half imported, and tools probe for dunders.
    owner = None if name.startswith("_") else _owner_map().get(name)
    if owner is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(owner, name)


def __dir__():
    return [*globals(), *_owner_map()]
