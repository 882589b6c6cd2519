"""The package surface: ``gregory`` re-exports each module's ``__all__``, and
the installed version is ``gregory.__version__``."""

import importlib.metadata
import types

import pytest

import gregory
from gregory import asequence, bernoulli, calculus, exact, series, stirling

MODULES = (asequence, bernoulli, calculus, exact, series, stirling)


def test_all_is_the_modules_lists_in_import_order():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert gregory.__all__ == expected
    assert len(set(gregory.__all__)) == len(gregory.__all__)


def test_each_name_is_the_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(gregory, name) is getattr(module, name), (module.__name__, name)


def test_no_public_name_outside_all():
    public = {
        name
        for name, value in vars(gregory).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(gregory.__all__) - {"__version__"}


def test_installed_version_is_dunder_version():
    try:
        installed = importlib.metadata.version("gregory")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("gregory is imported from source, not installed")
    assert installed == gregory.__version__
