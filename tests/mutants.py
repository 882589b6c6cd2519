"""Mutant corpus: source faults that the Tier-1 suite must catch.

The claim that every route agrees means something only if the checks are
independent of what they check, so their strength is measured here.  Each
mutant in :data:`MUTANTS` is one substitution of source text, found exactly
once in its file.  For each, the script copies ``src/``, ``tests/`` and
``pyproject.toml`` to a temporary directory, applies the substitution there
and runs ``python -m pytest -x -q -p no:cacheprovider`` in it with
``PYTHONPATH`` at that copy's ``src``.  A mutant is killed only when that run
fails a test or fails to collect one (pytest's exit status 1 or 2), or
runs past a timeout; it survives when the suite passes.  The unmutated copy
runs first and must pass.

:data:`EQUIVALENT` lists substitutions that leave every value the package
computes unchanged, each with the reason.  They are only checked to still
match the source and are never run: a survivor among them would say nothing
about the tests.

    python tests/mutants.py

Exit status 0 when every mutant run is killed, 1 when one survives, and 2
when the corpus is stale (a substitution does not match exactly once or does
not compile), the unmutated suite fails, or pytest itself errs.  pytest does
not collect this file (its name is no ``test_*.py``), so Tier-1 does not run
it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
# A mutant that makes the suite run this long counts as killed: the Tier-1
# run, about 30 s unmutated, would not finish in time either.
TIMEOUT_S = 900

Mutant = namedtuple("Mutant", "name path old new")
Equivalent = namedtuple("Equivalent", "name path old new reason")

KERNELS = "src/gregory/_kernels.py"

MUTANTS = [
    # The Stirling row recursion turns unsigned from row 251 on: only the
    # row routes past n = 250 read those rows.
    Mutant(
        "stirling_rows-sign-past-250",
        KERNELS,
        "row[k] = prev[k - 1] - n * prev[k]",
        "row[k] = prev[k - 1] - n * prev[k] if n < 250 else prev[k - 1] + n * prev[k]",
    ),
    # A dropped last run: it is lost when m - 1 is a multiple of _BLOCK.
    Mutant(
        "lcm_sum-drops-last-run",
        KERNELS,
        "for b, lb, w in zip(range(0, m, _BLOCK), lcms, weights)",
        "for b, lb, w in zip(range(0, m - 1, _BLOCK), lcms, weights)",
    ),
    Mutant(
        "nested_sum_table-divisor-off-by-one",
        KERNELS,
        "x // m for m, x in enumerate(row[:-1], 1)",
        "x // (m + 1) for m, x in enumerate(row[:-1], 1)",
    ),
    # Each quotient coefficient past the 200th forgets the oldest terms of
    # its correction.
    Mutant(
        "series_div_pairs-sum-cut-at-200",
        KERNELS,
        "s, big = lcm_sum(p, plan)",
        "s, big = lcm_sum(p[:200], plan)",
    ),
    Mutant(
        "series_pow_pairs-miller-weight",
        KERNELS,
        "((k + 1) * i - j) * x",
        "(k * i - j) * x",
    ),
    Mutant(
        "a_row-sign",
        "src/gregory/asequence.py",
        "row.append(value if (n + k) & 1 else -value)",
        "row.append(-value if (n + k) & 1 else value)",
    ),
    Mutant(
        "_next_a_row-last-term",
        "src/gregory/asequence.py",
        "(n + 1) * row[-1]]",
        "n * row[-1]]",
    ),
    Mutant(
        "_ank_sum-weight-off-by-one",
        "src/gregory/bernoulli.py",
        "total = (total + a_n[k - 2]) * (k + 1)",
        "total = (total + a_n[k - 2]) * (k + 2)",
    ),
    # The denominators (k+1)(k+2) shifted by one column.
    Mutant(
        "_theorem_plan-column-shift",
        "src/gregory/bernoulli.py",
        "for k in range(max_n)])",
        "for k in range(1, max_n + 1)])",
    ),
    # The error bound sums the signed terms.  Every derivative's coefficients
    # share one sign, so only an expansion of mixed signs tells.
    Mutant(
        "_closed_form-signed-bound",
        "src/gregory/calculus.py",
        "bound * abs(u) + abs(c)",
        "bound * abs(u) + c",
    ),
    # Round half up in place of half to even.
    Mutant(
        "decimal_string-half-up",
        "src/gregory/exact.py",
        "if double > den or (double == den and scaled % 2 == 1):",
        "if double >= den:",
    ),
    Mutant(
        "stirling_column_recurrence-horner-weight",
        "src/gregory/stirling.py",
        "total = total * m + (term",
        "total = total * (m + 1) + (term",
    ),
    # The bernoulli2 parser kept on its name alone: once built, its --method
    # never offers a route added to the registry after it.
    Mutant(
        "build_parser-bernoulli2-keyed-on-name-only",
        "src/gregory/cli.py",
        "return _subcommand_parser(command, routes)",
        "return _subcommand_parser(command, None)",
    ),
]

EQUIVALENT = [
    Equivalent(
        "_push-bigger-R",
        KERNELS,
        "grow = c.denominator // gcd(r, c.denominator)",
        "grow = c.denominator",
        "R stays a common denominator of every held coefficient, only a larger "
        "one; each quotient or power coefficient is a normalized Fraction of the "
        "same value.  Only operand sizes grow, which the suite's memory bound on "
        "a single b_n may still catch.",
    ),
    Equivalent(
        "_BLOCK-7",
        KERNELS,
        "_BLOCK = 16",
        "_BLOCK = 7",
        "Runs of 7 denominators sum to the same rational over another common "
        "multiple of the lcm; the kernel tests read _BLOCK from the module.",
    ),
    Equivalent(
        "lcm_sum-bigger-L",
        KERNELS,
        "big = whole[-(-m // _BLOCK)]",
        "big = 2 * whole[-(-m // _BLOCK)]",
        "S and L both double, so S/L, the only value any caller reads, is the "
        "same.  The kernel test that pins L to the lcm of the runs reached "
        "fails on it: a contract check, not a wrong value.",
    ),
]


def _mutated_text(mutant):
    """The mutant's file with its one substitution made; raises ValueError
    when the text does not match exactly once or the result does not compile."""
    path = ROOT / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError("%s: %r matches %d times in %s" % (mutant.name, mutant.old, count, mutant.path))
    text = text.replace(mutant.old, mutant.new)
    compile(text, str(path), "exec")
    return text


def _copy_tree(dest):
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def run_suite(mutant=None):
    """(status, seconds, first failing test or "") of the suite on a copy of
    the tree, with ``mutant`` applied; status is pytest's exit status, or
    None when the run timed out."""
    with tempfile.TemporaryDirectory(prefix="gregory-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        if mutant is not None:
            (tmp / mutant.path).write_text(_mutated_text(mutant))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src")}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                PYTEST, cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start, ""
        seconds = time.perf_counter() - start
    failed = next(
        (line.split(" - ")[0] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))),
        "",
    )
    if not failed and proc.returncode:
        failed = (proc.stdout.strip().splitlines() or [proc.stderr.strip()[-200:]])[-1]
    return proc.returncode, seconds, failed


def main():
    corpus = MUTANTS + EQUIVALENT
    names = [m.name for m in corpus]
    try:
        for mutant in corpus:
            _mutated_text(mutant)
        if len(set(names)) != len(names):
            raise ValueError("duplicate mutant names")
    except (ValueError, SyntaxError) as exc:
        print("stale corpus: %s" % exc)
        return 2

    status, seconds, failed = run_suite()
    print("unmutated  %6.1f s  %s" % (seconds, "passed" if status == 0 else failed), flush=True)
    if status != 0:
        return 2

    survivors = []
    for mutant in MUTANTS:
        status, seconds, failed = run_suite(mutant)
        if status == 0:
            survivors.append(mutant.name)
            verdict = "SURVIVED"
        elif status is None:
            verdict, failed = "killed", "timed out after %d s" % TIMEOUT_S
        elif status in (1, 2):
            verdict = "killed"
        else:
            print("pytest exit %d on %s: %s" % (status, mutant.name, failed))
            return 2
        print("%-10s %6.1f s  %s  %s" % (verdict, seconds, mutant.name, failed), flush=True)

    print(
        "%d of %d mutants killed; %d equivalent ones listed, not run"
        % (len(MUTANTS) - len(survivors), len(MUTANTS), len(EQUIVALENT))
    )
    if survivors:
        print("survivors: %s" % ", ".join(survivors))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
