"""Command-line front end.

Subcommands compute single values or whole rows, cross-check every b_n
route, probe the a(n,k) row shapes, time the methods, and verify the
1/ln x derivative formula numerically.  Every per-method loop iterates the
route registry :data:`gregory.bernoulli.ROUTES`.

Output contract: ``--format frac`` prints human-readable text with exact
fractions; ``--format json`` emits one object per record with the keys
kind, n, k, method, value, decimal (plus kind-specific extras); ``--format
csv`` emits the same values with those six columns.  One writer,
:func:`emit`, writes all three formats: a command builds records and hands
them over, with a frac line function where its frac layout is its own.
``bench`` is the exception, because its csv columns and its frac table with a
header are not records of the six-column contract.  Every exact rational's
record comes from :func:`_rational`, which adds the value's decimal under
``--digits D``: in frac it follows a single value after a space, and each
route's value in a report line in parentheses (``series=1/24 (0.041667)``).
Records are written as they are made, so a row command holds one row at a
time.  Exact values are printed in full however many digits they have.  Exit
codes: 0 success, 1 usage or domain error (an input too large to allocate
included), 2 verification failure.  The parser and the commands raise a
usage or domain error as ValueError, which :func:`main` prints as one
``error:`` line.  A reader that closes the output pipe early ends the command
quietly with exit 1.

Fixed argument bounds are declared once, in the parser, and checked with
the rest of argv before any output: n >= 0 for stirling1, bernoulli2 and
harmonic; n >= 1 for ank and deriv; --max-n >= 2; --repeat >= 1; --digits
>= 0.  Bounds that depend on another argument (k, a route's first n,
deriv --check needing x) are checked by the command, also before it writes.
"""

import argparse
import contextlib
import itertools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction

from ._kernels import lcm_plan, lcm_sum
from .asequence import a_row, a_rows, probe_a_row
from .bernoulli import ROUTES, _reports, bernoulli2_report, bernoulli2_values
from .calculus import evaluate_expansion, expansion_from_row, finite_difference_check
from .exact import EXACT_DECIMAL, decimal_string, format_rational
from .stirling import stirling_row

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# bench's "backend" column: the kernels are pure Python.
BACKEND = "python"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


@dataclass
class OutputRecord:
    kind: str
    n: int  # None for a summary record
    value: object  # fraction/integer string, or list of them for a row
    k: int = None
    decimal: str = None
    method: str = None
    row_keys: list = None  # index labels parallel to a list value
    extra: dict = field(default_factory=dict)


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
    text = " ".join(rec.value) if isinstance(rec.value, list) else rec.value
    return "%s\n" % text if rec.decimal is None else "%s %s\n" % (text, rec.decimal)


# Any indent sends json.dumps through the json module's pure-Python encoder.
# These two run in C, with no indent: their item separators carry the line
# breaks and indents that indent=2 gives a record's fields in the list and
# the items of a list or object field.
_FIELDS = json.JSONEncoder(separators=(",\n    ", ": "))
_ITEMS = json.JSONEncoder(separators=(",\n      ", ": "))


def _nested(item):
    value = item[1]
    return bool(value) and isinstance(value, (list, tuple, dict))


def _json_record(d):
    """The text ``json.dumps(d, indent=2)`` gives for a record one level into
    the list, from the C encoders: each run of scalar fields in one call, and
    each non-empty list or object field alone, with its brackets on lines of
    their own.  The items of such a field are scalars."""
    parts = []
    for nested, fields in itertools.groupby(d.items(), _nested):
        if not nested:
            parts.append(_FIELDS.encode(dict(fields))[1:-1])
            continue
        for key, value in fields:
            text = _ITEMS.encode(value)
            parts.append(
                "%s: %s\n      %s\n    %s" % (_FIELDS.encode(key), text[0], text[1:-1], text[-1])
            )
    return "{\n    %s\n  }" % ",\n    ".join(parts)


def emit(records, fmt, frac=_frac_text):
    """Write each record of an iterable as soon as it is made, in any format.

    In frac each record is the text ``frac(record)`` gives, newline included,
    written at once.  The JSON text is the one ``json.dump(list, indent=2)``
    gives for the whole list, written record by record through
    :func:`_json_record`, and the CSV text the one ``csv.writer`` gives with
    ``lineterminator="\\n"``.  Every command writes through here except
    ``bench``, whose csv columns (backend, method, max_n, repeat, median_s)
    and frac table with a header are its own.
    """
    out = sys.stdout
    if fmt == "json":
        empty = True
        for r in records:
            out.write(("[\n  " if empty else ",\n  ") + _json_record(_record_dict(r)))
            empty = False
        out.write("[]\n" if empty else "\n]\n")
    elif fmt == "csv":
        out.write(_csv_line(["kind", "n", "k", "method", "value", "decimal"]))
        for r in records:
            # A scalar is a row of one entry: kind,n,<k>,method,<value>,decimal
            # per entry, with the fixed fields rendered once.
            is_row = isinstance(r.value, list)
            keys, values = (r.row_keys, r.value) if is_row else ((r.k,), (r.value,))
            head = _csv_field(r.kind) + "," + _csv_field(r.n) + ","
            middle = "," + _csv_field(r.method) + ","
            tail = "," + _csv_field(r.decimal) + "\n"
            out.write("".join(
                head + _csv_field(kk) + middle + _csv_field(v) + tail
                for kk, v in zip(keys, values)
            ))
    else:
        for r in records:
            out.write(frac(r))


def _rational(kind, n, value, digits, **fields):
    """The record of an exact rational: its text, and its decimal to
    ``digits`` places when --digits was given."""
    decimal = None if digits is None else decimal_string(value, digits)
    return OutputRecord(kind, n, format_rational(value), decimal=decimal, **fields)


# ---------------------------------------------------------------- commands


def cmd_stirling1(args):
    n = args.n
    if args.k is not None and not 0 <= args.k <= n:
        raise ValueError("k=%d out of range for n=%d (need 0 <= k <= n)" % (args.k, n))
    s_row = stirling_row(n)
    if args.k is None:
        rec = OutputRecord("stirling1", n, [str(v) for v in s_row], row_keys=range(n + 1))
    else:
        rec = OutputRecord("stirling1", n, str(s_row[args.k]), k=args.k)
    emit([rec], args.format)
    return EXIT_OK


def _write_reports(reports, kind, args, summary=None):
    """Write MethodReports: in frac one line 'n=N <method>=<b_n> ...
    agree=yes|NO' per n, each b_n followed by ' (<decimal>)' under --digits,
    otherwise one record per route and n; then the summary, if any.  Exit 0
    when every n agrees, else 2."""

    def route_records(r):
        if r.agree:  # one value: render it once and copy its record per route
            value = next(iter(r.values.values()))
            rec = _rational(kind, r.n, value, args.digits, extra={"agree": True})
            return [replace(rec, method=m) for m in r.values]
        return [
            _rational(kind, r.n, value, args.digits, method=method, extra={"agree": False})
            for method, value in r.values.items()
        ]

    if args.format == "frac":

        def entry(rec):
            text = "%s=%s" % (rec.method, rec.value)
            return text if rec.decimal is None else "%s (%s)" % (text, rec.decimal)

        def line(r):
            values = " ".join(map(entry, route_records(r)))
            return "n=%d %s agree=%s" % (r.n, values, "yes" if r.agree else "NO")

        records = (OutputRecord(kind, r.n, line(r)) for r in reports)
    else:
        records = (rec for r in reports for rec in route_records(r))
    tail = [] if summary is None else [OutputRecord(kind, None, summary, method="summary")]
    emit(itertools.chain(records, tail), args.format)
    return EXIT_OK if all(r.agree for r in reports) else EXIT_VERIFY


def cmd_bernoulli2(args):
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
    # One kernel sum over lcm(1..n); exact.harmonic, which adds one Fraction
    # per term, stays the reference the tests compare it with.
    n = args.n
    value = Fraction(*lcm_sum([1] * n, lcm_plan(range(1, n + 1))))
    emit([_rational("harmonic", n, value, args.digits)], args.format)
    return EXIT_OK


def cmd_ank(args):
    n, k = args.n, args.k
    if not 2 <= k <= n + 1:
        raise ValueError("k=%d out of range for n=%d (need 2 <= k <= n+1)" % (k, n))
    value = a_row(n, stirling_row(n))[k - 2]
    emit([OutputRecord("a_nk", n, str(value), k=k)], args.format)
    return EXIT_OK


def cmd_crosscheck(args):
    reports = bernoulli2_report(args.max_n)
    disagree = ",".join(str(r.n) for r in reports if not r.agree)
    summary = "DISAGREE at n=%s" % disagree if disagree else "ALL AGREE [2..%d]" % args.max_n
    return _write_reports(reports, "crosscheck", args, summary)


def cmd_probe(args):
    unimodal = 0
    not_increasing = []

    def records():
        # Each a-row is probed and written as it streams; only row n-1 is kept.
        # The rows are Decimals, which print in linear time; they are exact
        # because main runs every command in EXACT_DECIMAL.
        nonlocal unimodal
        previous = None
        for n, row in enumerate(a_rows(args.max_n, Decimal(1)), 1):
            r = probe_a_row(n, row, previous)
            previous = r.row
            unimodal += r.is_unimodal
            if not r.increasing_in_n_ok:
                not_increasing.append(str(n))
            yield OutputRecord(
                "probe",
                n,
                [str(v) for v in r.row],
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
            extra={"increasing_in_n": not not_increasing},
        )

    def frac(rec):
        if rec.n is None:
            return "%s\nincreasing_in_n: %s\n" % (
                rec.value,
                "FAIL at n=%s" % ",".join(not_increasing) if not_increasing else "OK",
            )
        return "n=%d row=[%s] peaks=%s unimodal=%s increasing=%s\n" % (
            rec.n,
            ", ".join(rec.value),
            rec.extra["peaks"],
            "yes" if rec.extra["unimodal"] else "NO",
            "ok" if rec.extra["increasing_in_n"] else "NO",
        )

    emit(records(), args.format, frac)
    return EXIT_OK


def cmd_bench(args):
    rows = []
    columns = {}
    for method in ROUTES:
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            columns[method] = bernoulli2_values(method, args.max_n)
            times.append(time.perf_counter() - t0)
        rows.append((method, statistics.median(times)))
    agree = all(r.agree for r in _reports(columns, 2))
    if args.format == "csv":
        sys.stdout.write(_csv_line(["backend", "method", "max_n", "repeat", "median_s"]))
        for method, median in rows:
            fields = [BACKEND, method, args.max_n, args.repeat, "%.6f" % median]
            sys.stdout.write(_csv_line(fields))
    elif args.format == "json":
        emit(
            [
                OutputRecord(
                    "bench",
                    args.max_n,
                    "%.6f" % median,
                    method=method,
                    extra={"backend": BACKEND, "repeat": args.repeat},
                )
                for method, median in rows
            ],
            "json",
        )
    else:
        print("%-9s %-8s %6s %6s %12s" % ("backend", "method", "max_n", "repeat", "median_s"))
        for method, median in rows:
            print("%-9s %-8s %6d %6d %12.6f" % (BACKEND, method, args.max_n, args.repeat, median))
        print("methods agree: %s" % ("yes" if agree else "NO"))
    return EXIT_OK if agree else EXIT_VERIFY


def _deriv_frac(rec):
    """deriv's frac text: 'k=1: c1, k=2: c2, ...', then the value at x and
    the check, when they were asked for."""
    text = ", ".join("k=%d: %s" % kc for kc in zip(rec.row_keys, rec.value)) + "\n"
    if "x" in rec.extra:
        text += "value at x=%r: %.12g\n" % (rec.extra["x"], rec.extra["value_at_x"])
    check = rec.extra.get("check")
    if check is not None:
        verdict = "PASS" if check["passed"] else "FAIL"
        text += "check: residual=%.3e floor=%.3e tol=%g %s\n" % (
            check["residual"], check["floor"], check["tol"], verdict
        )
    return text


def cmd_deriv(args):
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
    rec = OutputRecord(
        "deriv_coeffs",
        n,
        [str(c) for c in coeffs],
        row_keys=range(1, n + 1),
        extra=extra,
    )
    emit([rec], args.format, _deriv_frac)
    return code


# ---------------------------------------------------------------- parser


def _at_least(low):
    """An argparse type: an int >= low.  A value below it is a usage error,
    reported like a malformed one before any command runs."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d" % low)
        return value

    return parse


def build_parser():
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

    p = sub.add_parser("stirling1", parents=[common], help="signed s(n,k) or a whole row")
    p.add_argument("n", type=_at_least(0))
    p.add_argument("k", type=int, nargs="?")
    p.set_defaults(func=cmd_stirling1)

    p = sub.add_parser(
        "bernoulli2", parents=[common, digits], help="Bernoulli number of the second kind b_n"
    )
    p.add_argument("n", type=_at_least(0))
    # The default is the first route, the reference column.
    p.add_argument("--method", choices=(*ROUTES, "all"), default=next(iter(ROUTES)))
    p.set_defaults(func=cmd_bernoulli2)

    p = sub.add_parser("harmonic", parents=[common, digits], help="harmonic number H(n)")
    p.add_argument("n", type=_at_least(0))
    p.set_defaults(func=cmd_harmonic)

    p = sub.add_parser("ank", parents=[common], help="auxiliary table value a(n,k)")
    p.add_argument("n", type=_at_least(1))
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_ank)

    p = sub.add_parser(
        "crosscheck", parents=[common, digits], help="verify every b_n route agrees"
    )
    p.add_argument("--max-n", type=_at_least(2), required=True)
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("probe", parents=[common], help="row-shape probe of the a(n,k) table")
    p.add_argument("--max-n", type=_at_least(2), required=True)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("bench", parents=[common], help="time every b_n route")
    p.add_argument("--max-n", type=_at_least(2), required=True)
    p.add_argument("--repeat", type=_at_least(1), default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("deriv", parents=[common], help="n-th derivative of 1/ln x")
    p.add_argument("n", type=_at_least(1))
    p.add_argument("x", type=float, nargs="?")
    p.add_argument(
        "--check",
        nargs=2,
        type=float,
        metavar=("H", "TOL"),
        help="verify against a central finite difference with step H at relative tolerance TOL",
    )
    p.set_defaults(func=cmd_deriv)

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
    parser = build_parser()
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
