"""The package surface: ``gregory`` exports each module's ``__all__``, lazily
and as each module's current binding, and the installed version is
``gregory.__version__``.  The CLI loads only the modules its command runs."""

import importlib.metadata
import subprocess
import sys
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
    # The names resolve through the package's __getattr__, so its namespace
    # holds none of them; dir() lists them.
    public = {
        name
        for name in dir(gregory)
        if not name.startswith("_") and not isinstance(getattr(gregory, name), types.ModuleType)
    }
    assert public == set(gregory.__all__) - {"__version__"}


def test_a_name_is_its_modules_current_binding(monkeypatch):
    def fake(n):
        return [n]

    monkeypatch.setattr(stirling, "stirling_row", fake)
    assert gregory.stirling_row is fake
    monkeypatch.undo()
    assert gregory.stirling_row is stirling.stirling_row
    assert "stirling_row" not in vars(gregory)


def test_unknown_name_raises_attribute_error_naming_it():
    for name in ("no_such_name", "_no_such_private_name"):
        with pytest.raises(AttributeError, match="'gregory' has no attribute '%s'" % name):
            getattr(gregory, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gregory import *", namespace)
    del namespace["__builtins__"]
    assert list(namespace) == gregory.__all__
    assert all(namespace[name] is getattr(gregory, name) for name in gregory.__all__)


def test_installed_version_is_dunder_version():
    try:
        installed = importlib.metadata.version("gregory")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("gregory is imported from source, not installed")
    assert installed == gregory.__version__


def _modules_after(statement):
    """The names in sys.modules of a fresh interpreter, with this process's
    sys.path and environment, after it runs ``statement``: the last line of
    its output, taken before anything else is imported."""
    code = "import sys; sys.path[:] = %r; %s; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code % (sys.path, statement)],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.splitlines()[-1].split())


# A child that imports only the standard library the CLI itself imports, so
# that modules a site's .pth files load stay out of the verdicts.
BASE = "import argparse, fractions, decimal"

# What harmonic 1, the benchmark's start-up command, does not run: the
# modules that other commands import when they run, and json, which a JSON
# record loads.
LAZY = {
    "gregory.asequence",
    "gregory.bernoulli",
    "gregory.calculus",
    "gregory.series",
    "gregory.stirling",
    "json",
}


def test_cli_import_loads_no_heavy_module():
    base = _modules_after(BASE)
    cli = _modules_after("import gregory.cli")
    assert "gregory.cli" in cli
    assert not {"dataclasses", "inspect", "statistics"} & (cli - base)


def test_cli_loads_only_the_modules_its_command_runs():
    base = _modules_after(BASE)
    run = "import gregory.cli; gregory.cli.main(%r)"
    # A mistyped or missing subcommand ends in a usage error, which runs no
    # command and so loads none of the rest.
    commands = [run % argv for argv in (["harmonic", "1"], ["nosuch"], [])]
    for statement in ("import gregory.cli", *commands):
        loaded = _modules_after(statement)
        assert {"gregory.cli", "gregory._kernels", "gregory.exact"} <= loaded
        assert not LAZY & (loaded - base), statement
    # crosscheck runs bernoulli, which imports asequence, series and stirling;
    # only deriv imports calculus.
    crosscheck = run % ["crosscheck", "--max-n", "5", "--format", "json"]
    assert LAZY - {"gregory.calculus"} <= _modules_after(crosscheck)
    assert LAZY <= _modules_after(crosscheck + "; gregory.cli.main(['deriv', '3'])")


@pytest.mark.parametrize("module", [*(m.__name__ for m in MODULES), "gregory._kernels"])
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    # A module that imports ``_kernels`` from the package while it is itself
    # half imported must not make the package import the other modules.
    assert module in _modules_after("import " + module)
