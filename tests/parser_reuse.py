"""A kept parser gives every later call the output of the first.

``gregory.cli`` builds a subcommand's parser once per process and reuses it.
This battery runs every argv of :data:`EVERY_SUBCOMMAND` in each format, each
followed by a usage error, twice in one process, and compares the passes:
the second must give the same exit codes and byte-identical stdout and
stderr.  ``bench``'s median times, which differ from run to run, are masked
first.  ``tests/test_cli.py`` runs it under pytest; it also runs as a plain
script, with nothing but the package:

    python tests/parser_reuse.py

Exit status 0 when the passes match, 1 when an argv differs.
"""

import contextlib
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gregory.cli  # noqa: E402

# One argv per subcommand or mode, each exiting 0 in every format.
EVERY_SUBCOMMAND = [
    ["stirling1", "5"],
    ["stirling1", "5", "2"],
    ["bernoulli2", "6", "--method", "all", "--digits", "8"],
    ["harmonic", "7", "--digits", "4"],
    ["ank", "5", "3"],
    ["crosscheck", "--max-n", "5"],
    ["probe", "--max-n", "5"],
    ["bench", "--max-n", "3"],
    ["deriv", "2", "3.0"],
    ["deriv", "3", "2.0", "--check", "1e-3", "1e-4"],
]
FORMATS = ("frac", "json", "csv")
# Usage errors that reach a subcommand's parser (a value out of range, a bad
# choice, a malformed int, a missing option), run between the good argv.
USAGE_ERRORS = [
    ["harmonic", "-1"],
    ["bernoulli2", "7", "--method", "nosuch"],
    ["ank", "x", "3"],
    ["crosscheck"],
]
_BENCH_TIME = re.compile(r"\d+\.\d{6}")


def battery():
    """The argv of one pass: each of EVERY_SUBCOMMAND in each format, then a
    usage error, taken in turn."""
    argvs = [argv + ["--format", fmt] for argv in EVERY_SUBCOMMAND for fmt in FORMATS]
    errors = USAGE_ERRORS * -(-len(argvs) // len(USAGE_ERRORS))
    return [argv for pair in zip(argvs, errors) for argv in pair]


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run; bench's times
    are masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gregory.cli.main(list(argv))
    out = out.getvalue()
    if argv[0] == "bench":
        out = _BENCH_TIME.sub("<time>", out)
    return code, out, err.getvalue()


def two_passes():
    """The battery's results, pass by pass: two lists of (argv, result)."""
    argvs = battery()
    return [[(argv, run(argv)) for argv in argvs] for _ in range(2)]


def expected_exit(argv):
    return 1 if argv in USAGE_ERRORS else 0


def main():
    first, second = two_passes()
    bad = ["%s: exit %d" % (" ".join(argv), r[0]) for argv, r in first if r[0] != expected_exit(argv)]
    bad += [" ".join(argv) for (argv, a), (_, b) in zip(first, second) if a != b]
    print("%d argv, run twice: %s" % (len(first), "; ".join(bad) or "the second pass matches the first"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
