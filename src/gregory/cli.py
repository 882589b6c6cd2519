"""Command-line front end.

Subcommands compute single values or whole rows, cross-check every b_n
route, probe the a(n,k) row shapes, time the methods, and verify the
1/ln x derivative formula numerically.  Every per-method loop iterates the
route registry :data:`gregory.bernoulli.ROUTES`.

Output contract: ``--format frac`` prints human-readable text with exact
fractions; ``--format json`` emits one object per record with the keys
kind, n, k, method, value, decimal (plus kind-specific extras); ``--format
csv`` emits the same values with those six columns.  Every command, ``bench``
included, builds one stream of :class:`OutputRecord` named tuples, whose
``extra`` holds the kind-specific JSON fields, and hands it to one writer,
:func:`emit`, the only code that reads the format; a command whose frac
layout is its own passes a renderer that turns its whole stream into text.
Every exact rational's record comes from :func:`_rational`, which adds the
value's decimal under ``--digits D``: in frac it follows a single value after
a space, and each route's value in a report line in parentheses
(``series=1/24 (0.041667)``).  Records are written as they are made, so a
row command holds one row at a time.  A row record's value is the list of
the row's numbers, ints for stirling1 and deriv and Decimals for probe;
:func:`emit` checks once per row that it holds nothing else, then renders
the row once, joining its entries' str() with no escaping: such text has no
character that JSON escapes or CSV quotes.  Exact values are printed in full
however many digits they have.  Exit codes: 0 success, 1 usage or domain
error (an input too large to allocate or to index included), 2
verification failure.  The parser and the commands raise a usage or domain
error as ValueError, which :func:`main` prints as one ``error:`` line.  A
reader that closes the output pipe early ends the command quietly with
exit 1.

Fixed argument bounds are declared once, in the parser, and checked with
the rest of argv before any output: n >= 0 for stirling1, bernoulli2 and
harmonic; n >= 1 for ank and deriv; --max-n >= 2; --repeat >= 1; --digits
>= 0; and each of them at most sys.maxsize.  Bounds that depend on another
argument (k, a route's first n, deriv --check needing x) are checked by the
command, also before it writes.
Each subcommand is declared once, in :data:`_SUBCOMMANDS`, and each call
of :func:`main` builds the parser of the subcommand it runs, named by argv's
first word; all eight are built only for the help and for a missing or
unknown subcommand, whose usage error lists them.

Start-up imports only what the command runs.  This module loads
:mod:`gregory._kernels` and :mod:`gregory.exact`, all that ``harmonic``
needs; each other command imports the rest when it runs: ``stirling1``
:mod:`~gregory.stirling`, ``ank`` and ``probe`` :mod:`~gregory.asequence`
(with stirling), ``deriv`` :mod:`~gregory.calculus` (with asequence and
stirling), and ``bernoulli2``, ``crosscheck`` and ``bench``
:mod:`~gregory.bernoulli` (with asequence, series and stirling; the
bernoulli2 parser reads its registry too).  ``bench`` alone loads
``statistics``, and writing a JSON record alone loads ``json``.
"""

import argparse
import contextlib
import functools
import itertools
import os
import sys
import time
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain, repeat
from types import MappingProxyType

# The modules every command needs.  Each command imports the rest of the
# package it runs, where it runs it (see the module docstring).
from ._kernels import lcm_plan, lcm_sum
from .exact import EXACT_DECIMAL, decimal_string, format_rational

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


OutputRecord = namedtuple(
    "OutputRecord",
    "kind n value k decimal method row_keys extra",
    defaults=(None, None, None, None, MappingProxyType({})),
)
OutputRecord.__doc__ = """One record of a command's output.

kind, n (None for a summary record), and value: a scalar's text (a
fraction, an integer or a summary), or a row, a list of ints or Decimals,
which emit renders once, in the chosen format.  Then k, decimal and method,
row_keys (index labels parallel to a list value), and extra, the
kind-specific fields of the JSON object; by default one shared, read-only
empty mapping."""


def _record_dict(rec):
    d = {
        "kind": rec.kind,
        "n": rec.n,
        "k": rec.k,
        "method": rec.method,
        "value": rec.value,
        "decimal": rec.decimal,
    }
    d.update(rec.extra)
    return d


# The str() of an int or Decimal holds only digits, "-", ".", "E", "+" and the
# letters of NaN, sNaN or Infinity: nothing that JSON escapes or that makes CSV
# quote a field.  So emit writes a row's entries as their str(), unescaped.
_ROW_TYPES = frozenset((int, Decimal))


def _checked(rec):
    """Return ``rec``; raise TypeError when its value is a row that holds
    anything but ints and Decimals, such as a str, a bool or a float."""
    if isinstance(rec.value, list) and (stray := set(map(type, rec.value)) - _ROW_TYPES):
        names = ", ".join(sorted(t.__name__ for t in stray))
        raise TypeError("a row holds ints and Decimals only, not %s" % names)
    return rec


def _csv_field(value):
    """A field as csv.writer's default dialect writes it: None as nothing,
    quoted only when it holds a comma, a quote, CR or LF, with each inner
    quote doubled."""
    text = "" if value is None else str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def _csv_line(fields):
    return ",".join(map(_csv_field, fields)) + "\n"


def _frac_text(rec):
    """A record's frac line: the value (a row joined by spaces), then
    " " + decimal when one is set."""
    text = " ".join(map(str, rec.value)) if isinstance(rec.value, list) else rec.value
    return "%s\n" % text if rec.decimal is None else "%s %s\n" % (text, rec.decimal)


@functools.cache
def _json_encoders():
    """The JSON writer's two encoders, built on the first JSON record, so that
    no other output loads json.

    Any indent sends json.dumps through the json module's pure-Python
    encoder.  These two run in C, with no indent: their item separators carry
    the line breaks and indents that indent=2 gives a record's fields in the
    list and the items of a list or object field."""
    import json

    return (
        json.JSONEncoder(separators=(",\n    ", ": ")),
        json.JSONEncoder(separators=(",\n      ", ": ")),
    )


def _nested(item):
    value = item[1]
    return bool(value) and isinstance(value, (list, tuple, dict))


def _json_record(rec):
    """The text ``json.dumps(d, indent=2)`` gives for a record's dict ``d``
    one level into the list, as a list of fragments.  Each run of scalar
    fields comes from one call of a C encoder, and each non-empty list or
    object field alone, with its brackets on lines of their own; the items of
    such a field are scalars.  A non-empty row is one fragment, its entries'
    str() joined between quotes: it is rendered once, with no escaping and
    no copy into a larger string."""
    row = rec.value if isinstance(rec.value, list) else None
    field_encoder, item_encoder = _json_encoders()
    parts = []
    for nested, fields in itertools.groupby(_record_dict(rec).items(), _nested):
        if not nested:
            parts += ",\n    ", field_encoder.encode(dict(fields))[1:-1]
            continue
        for key, value in fields:
            parts += ",\n    ", field_encoder.encode(key), ": "
            if value is row:
                parts += '[\n      "', '",\n      "'.join(map(str, row)), '"\n    ]'
            else:
                text = item_encoder.encode(value)
                parts.append("%s\n      %s\n    %s" % (text[0], text[1:-1], text[-1]))
    parts[0] = "{\n    "  # the first field follows the brace, not a comma
    return parts + ["\n  }"]


def _frac_lines(records):
    return map(_frac_text, records)


def emit(records, fmt, frac=_frac_lines):
    """Write a command's stream of records as it is made, in any format; the
    only code that reads the format.

    A row's value holds ints and Decimals only, checked once per row in
    every format (:func:`_checked`), so each row is rendered once, from its
    numbers, with no escaping.  In frac, ``frac(records)`` turns the whole
    stream into text, and each string it yields, newlines included, is
    written at once; the default writes :func:`_frac_text` of each record.
    The JSON text is the one ``json.dump(list, indent=2)`` gives for the
    whole list with each row entry as its str(), written record by record
    through :func:`_json_record`, and the CSV text the one ``csv.writer``
    gives with ``lineterminator="\\n"``.
    """
    out = sys.stdout
    records = map(_checked, records)
    if fmt == "json":
        empty = True
        for r in records:
            out.write("[\n  " if empty else ",\n  ")
            out.writelines(_json_record(r))
            empty = False
        out.write("[]\n" if empty else "\n]\n")
    elif fmt == "csv":
        out.write(_csv_line(["kind", "n", "k", "method", "value", "decimal"]))
        for r in records:
            # A scalar is a row of one entry: kind,n,<k>,method,<value>,decimal
            # per entry, with the fixed fields rendered once.
            is_row = isinstance(r.value, list)
            keys = map(str, r.row_keys) if is_row else (_csv_field(r.k),)
            values = map(str, r.value) if is_row else (_csv_field(r.value),)
            head = _csv_field(r.kind) + "," + _csv_field(r.n) + ","
            middle = "," + _csv_field(r.method) + ","
            tail = "," + _csv_field(r.decimal) + "\n"
            lines = zip(repeat(head), keys, repeat(middle), values, repeat(tail))
            out.write("".join(chain.from_iterable(lines)))
    else:
        for text in frac(records):
            out.write(text)


def _rational(kind, n, value, digits, **fields):
    """The record of an exact rational: its text, and its decimal to
    ``digits`` places when --digits was given."""
    decimal = None if digits is None else decimal_string(value, digits)
    return OutputRecord(kind, n, format_rational(value), decimal=decimal, **fields)


# ---------------------------------------------------------------- commands


def cmd_stirling1(args):
    from .stirling import stirling_row

    n = args.n
    if args.k is not None and not 0 <= args.k <= n:
        raise ValueError("k=%d out of range for n=%d (need 0 <= k <= n)" % (args.k, n))
    s_row = stirling_row(n)
    if args.k is None:
        rec = OutputRecord("stirling1", n, list(s_row), row_keys=range(n + 1))
    else:
        rec = OutputRecord("stirling1", n, str(s_row[args.k]), k=args.k)
    emit([rec], args.format)
    return EXIT_OK


def _agreement(reports, max_n):
    """The summary of a b_n column check: 'ALL AGREE [2..N]', or the n that
    disagree."""
    disagree = ",".join(str(r.n) for r in reports if not r.agree)
    return "DISAGREE at n=%s" % disagree if disagree else "ALL AGREE [2..%d]" % max_n


def _verdict(reports):
    return EXIT_OK if all(r.agree for r in reports) else EXIT_VERIFY


def _report_entry(rec):
    text = "%s=%s" % (rec.method, rec.value)
    return text if rec.decimal is None else "%s (%s)" % (text, rec.decimal)


def _report_lines(records):
    """A report's frac text: one line 'n=N <method>=<b_n> ... agree=yes|NO'
    per n, each b_n followed by ' (<decimal>)' under --digits; a summary
    record as its value."""
    for n, group in itertools.groupby(records, lambda rec: rec.n):
        if n is None:
            yield from map(_frac_text, group)
            continue
        group = list(group)
        entries = " ".join(map(_report_entry, group))
        yield "n=%d %s agree=%s\n" % (n, entries, "yes" if group[0].extra["agree"] else "NO")


def _write_reports(reports, kind, args, summary=None):
    """Write MethodReports, one record per route and n, then the summary, if
    any.  Exit 0 when every n agrees, else 2."""

    def records():
        for r in reports:
            if not r.agree:
                for m, value in r.values.items():
                    yield _rational(kind, r.n, value, args.digits, method=m, extra={"agree": False})
                continue
            # One value: render it once, then build each route's record from it.
            rec = _rational(kind, r.n, next(iter(r.values.values())), args.digits)
            extra = {"agree": True}
            for m in r.values:
                yield OutputRecord(kind, r.n, rec.value, decimal=rec.decimal, method=m, extra=extra)
        if summary is not None:
            yield OutputRecord(kind, None, summary, method="summary")

    emit(records(), args.format, _report_lines)
    return _verdict(reports)


def cmd_bernoulli2(args):
    from .bernoulli import ROUTES, bernoulli2_report, bernoulli2_values

    n = args.n
    methods = ROUTES if args.method == "all" else (args.method,)
    need = max(ROUTES[m].min_n for m in methods)
    if n < need:
        instead = " or ".join(m for m, route in ROUTES.items() if route.min_n == 0)
        raise ValueError(
            "method %r is stated for n >= %d only; use %s for %s"
            % (args.method, need, instead, ", ".join("b_%d" % j for j in range(need)))
        )
    if args.method == "all":
        return _write_reports(bernoulli2_report(n, start=n), "bernoulli2", args)
    value = bernoulli2_values(args.method, n, start=n)[0]
    emit([_rational("bernoulli2", n, value, args.digits, method=args.method)], args.format)
    return EXIT_OK


def cmd_harmonic(args):
    # One kernel sum over lcm(1..n), planned without the prefix lcms that a
    # one-shot sum never reads, so its memory is O(n); exact.harmonic, which
    # adds one Fraction per term, stays the reference the tests compare it with.
    n = args.n
    value = Fraction(*lcm_sum([1] * n, lcm_plan(range(1, n + 1), prefixes=False)))
    emit([_rational("harmonic", n, value, args.digits)], args.format)
    return EXIT_OK


def cmd_ank(args):
    from .asequence import a_row
    from .stirling import stirling_row

    n, k = args.n, args.k
    if not 2 <= k <= n + 1:
        raise ValueError("k=%d out of range for n=%d (need 2 <= k <= n+1)" % (k, n))
    value = a_row(n, stirling_row(n))[k - 2]
    emit([OutputRecord("a_nk", n, str(value), k=k)], args.format)
    return EXIT_OK


def cmd_crosscheck(args):
    from .bernoulli import bernoulli2_report

    reports = bernoulli2_report(args.max_n)
    return _write_reports(reports, "crosscheck", args, _agreement(reports, args.max_n))


def _probe_lines(records):
    """probe's frac text: one line per row, then the summary with the rows
    whose entries shrank against the row before."""
    failed = []
    for rec in records:
        if rec.n is None:
            verdict = "FAIL at n=%s" % ",".join(failed) if failed else "OK"
            yield "%s\nincreasing_in_n: %s\n" % (rec.value, verdict)
            continue
        if not rec.extra["increasing_in_n"]:
            failed.append(str(rec.n))
        yield "n=%d row=[%s] peaks=%s unimodal=%s increasing=%s\n" % (
            rec.n,
            ", ".join(map(str, rec.value)),
            rec.extra["peaks"],
            "yes" if rec.extra["unimodal"] else "NO",
            "ok" if rec.extra["increasing_in_n"] else "NO",
        )


def cmd_probe(args):
    from .asequence import a_rows, probe_a_row

    def records():
        # Each a-row is probed and written as it streams; only row n-1 is kept.
        # The rows are Decimals, which print in linear time; they are exact
        # because main runs every command in EXACT_DECIMAL.
        unimodal = 0
        increasing = True
        previous = None
        for n, row in enumerate(a_rows(args.max_n, Decimal(1)), 1):
            r = probe_a_row(n, row, previous)
            previous = r.row
            unimodal += r.is_unimodal
            increasing &= r.increasing_in_n_ok
            yield OutputRecord(
                "probe",
                n,
                r.row,
                row_keys=range(2, n + 2),
                extra={
                    "peaks": r.peak_indices,
                    "unimodal": r.is_unimodal,
                    "increasing_in_n": r.increasing_in_n_ok,
                },
            )
        yield OutputRecord(
            "probe",
            None,
            "unimodal rows: %d/%d" % (unimodal, args.max_n),
            method="summary",
            extra={"increasing_in_n": increasing},
        )

    emit(records(), args.format, _probe_lines)
    return EXIT_OK


def _bench_table(records):
    """bench's frac text: a table of the route times under a header, then the
    summary."""
    yield "%-8s %6s %6s %12s\n" % ("method", "max_n", "repeat", "median_s")
    for rec in records:
        if rec.n is None:
            yield _frac_text(rec)
        else:
            yield "%-8s %6d %6d %12s\n" % (rec.method, rec.n, rec.extra["repeat"], rec.value)


def cmd_bench(args):
    """One record per route, its median time over --repeat runs of the column
    b_2..b_N, then the crosscheck summary of the columns it timed."""
    import statistics  # only bench reads it; kept off every other command's start-up

    from .bernoulli import ROUTES, _reports, bernoulli2_values

    columns = {}
    records = []
    for method in ROUTES:
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            columns[method] = bernoulli2_values(method, args.max_n)
            times.append(time.perf_counter() - t0)
        median = "%.6f" % statistics.median(times)
        records.append(
            OutputRecord("bench", args.max_n, median, method=method, extra={"repeat": args.repeat})
        )
    reports = _reports(columns, 2)
    records.append(OutputRecord("bench", None, _agreement(reports, args.max_n), method="summary"))
    emit(records, args.format, _bench_table)
    return _verdict(reports)


def _deriv_lines(records):
    """deriv's frac text: 'k=1: c1, k=2: c2, ...', then the value at x and
    the check, when they were asked for."""
    for rec in records:
        yield ", ".join("k=%d: %s" % kc for kc in zip(rec.row_keys, rec.value)) + "\n"
        if "x" in rec.extra:
            yield "value at x=%r: %.12g\n" % (rec.extra["x"], rec.extra["value_at_x"])
        check = rec.extra.get("check")
        if check is not None:
            verdict = "PASS" if check["passed"] else "FAIL"
            yield "check: residual=%.3e floor=%.3e tol=%g %s\n" % (
                check["residual"], check["floor"], check["tol"], verdict
            )


def cmd_deriv(args):
    from .calculus import evaluate_expansion, expansion_from_row, finite_difference_check
    from .stirling import stirling_row

    n = args.n
    if args.check is not None and args.x is None:
        raise ValueError("--check needs an evaluation point x")
    coeffs = expansion_from_row(n, stirling_row(n))
    extra = {}
    code = EXIT_OK
    if args.x is not None:
        extra["x"] = args.x
        extra["value_at_x"] = evaluate_expansion(coeffs, args.x)
    if args.check is not None:
        h, tol = args.check
        result = finite_difference_check(n, args.x, h, tol)
        extra["check"] = {
            "h": h,
            "tol": tol,
            "residual": result.residual,
            "floor": result.floor,
            "passed": result.passed,
        }
        code = EXIT_OK if result.passed else EXIT_VERIFY
    rec = OutputRecord("deriv_coeffs", n, coeffs, row_keys=range(1, n + 1), extra=extra)
    emit([rec], args.format, _deriv_lines)
    return code


# ---------------------------------------------------------------- parser


def _at_least(low):
    """An argparse type: an int from low to sys.maxsize.  A value below it is
    a usage error, reported like a malformed one before any command runs.  A
    value past sys.maxsize, which no list, range or islice can be sized by,
    raises OverflowError out of the parser, which :func:`main` reports as too
    large, also before any command runs."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d" % low)
        if value > sys.maxsize:
            raise OverflowError(text)
        return value

    return parse


def _stirling1_arguments(p):
    p.add_argument("n", type=_at_least(0))
    p.add_argument("k", type=int, nargs="?")


def _bernoulli2_arguments(p):
    from .bernoulli import ROUTES

    p.add_argument("n", type=_at_least(0))
    # The default is the first route, the reference column.  The choices are
    # read from the registry each time the parser is built.
    p.add_argument("--method", choices=(*ROUTES, "all"), default=next(iter(ROUTES)))


def _harmonic_arguments(p):
    p.add_argument("n", type=_at_least(0))


def _ank_arguments(p):
    p.add_argument("n", type=_at_least(1))
    p.add_argument("k", type=int)


def _max_n_argument(p):
    p.add_argument("--max-n", type=_at_least(2), required=True)


def _bench_arguments(p):
    _max_n_argument(p)
    p.add_argument("--repeat", type=_at_least(1), default=1)


def _deriv_arguments(p):
    p.add_argument("n", type=_at_least(1))
    p.add_argument("x", type=float, nargs="?")
    p.add_argument(
        "--check",
        nargs=2,
        type=float,
        metavar=("H", "TOL"),
        help="verify against a central finite difference with step H at relative tolerance TOL",
    )


# One declaration per subcommand, in the order the help lists them: its
# command, its help, whether it takes --digits, and the function that adds
# its own arguments.
_SUBCOMMANDS = {
    "stirling1": (cmd_stirling1, "signed s(n,k) or a whole row", False, _stirling1_arguments),
    "bernoulli2": (
        cmd_bernoulli2,
        "Bernoulli number of the second kind b_n",
        True,
        _bernoulli2_arguments,
    ),
    "harmonic": (cmd_harmonic, "harmonic number H(n)", True, _harmonic_arguments),
    "ank": (cmd_ank, "auxiliary table value a(n,k)", False, _ank_arguments),
    "crosscheck": (cmd_crosscheck, "verify every b_n route agrees", True, _max_n_argument),
    "probe": (cmd_probe, "row-shape probe of the a(n,k) table", False, _max_n_argument),
    "bench": (cmd_bench, "time every b_n route", False, _bench_arguments),
    "deriv": (cmd_deriv, "n-th derivative of 1/ln x", False, _deriv_arguments),
}


def build_parser(command=None):
    """The top-level parser with the parser of subcommand ``command`` alone,
    or with all eight when ``command`` is None or names none of them: the
    help, and the usage error that lists the subcommands, need them all."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("frac", "json", "csv"),
        default="frac",
        help="output format (default: frac)",
    )
    # Only the commands that print rationals take --digits.
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument(
        "--digits",
        type=_at_least(0),
        metavar="D",
        help="also render rational values as D-digit decimals (round-half-even)",
    )

    parser = _Parser(
        prog="gregory",
        description="Exact Bernoulli numbers of the second kind, Stirling numbers "
        "of the first kind, and friends, cross-checked across independent formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in (command,) if command in _SUBCOMMANDS else _SUBCOMMANDS:
        func, help_text, takes_digits, add_arguments = _SUBCOMMANDS[name]
        parents = [common, digits] if takes_digits else [common]
        p = sub.add_parser(name, parents=parents, help=help_text)
        add_arguments(p)
        p.set_defaults(func=func)
    return parser


@contextlib.contextmanager
def _exact_int_rendering():
    """Lift the interpreter's cap on int-to-text digits (4,300 by default) for
    the block, so that exact values print in full; restore it afterwards.
    Interpreters before 3.10.7 have no cap."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        yield
        return
    cap = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        yield
    finally:
        set_digits(cap)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A command's first word names its subcommand, the one parser it needs.
    parser = build_parser(argv[0] if argv else None)
    try:
        # argv is parsed under the cap; only the command's output is lifted.
        args = parser.parse_args(argv)
        # Exact text for every command: ints print in full, and Decimal rows
        # (probe) raise rather than round.  Entered here, not in a generator:
        # a suspended generator's context would leak into its caller between
        # yields and after an early close.
        with _exact_int_rendering(), localcontext(EXACT_DECIMAL):
            return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # An n so large that its first list cannot be allocated
        # (``bernoulli2 10**15``); the exception carries no message of its own.
        print("error: out of memory: the input is too large", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # An n past sys.maxsize (``harmonic 10**20``), refused by the parser.
        # The exception's own text would name the argument or a C type.
        print("error: the input is too large: past sys.maxsize", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout early (``gregory probe ... | head``).  Point
        # the stdout descriptor at devnull so that flushing the rest of the
        # buffer at interpreter exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
