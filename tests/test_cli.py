"""CLI contract: outputs, formats, exit codes."""

import contextlib
import csv
import decimal
import io
import json
import math
import os
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gregory.cli as cli
from gregory import MethodReport, asequence, bernoulli, bernoulli2_report, harmonic, stirling


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stirling1_row(capsys):
    code, out, _ = run(["stirling1", "4"], capsys)
    assert code == 0
    assert out.strip() == "0 -6 11 -6 1"


def test_stirling1_single_value(capsys):
    code, out, _ = run(["stirling1", "4", "2"], capsys)
    assert code == 0
    assert out.strip() == "11"


def test_stirling1_out_of_range(capsys):
    code, _, err = run(["stirling1", "3", "5"], capsys)
    assert code == 1
    assert "out of range" in err


def test_stirling1_negative_n(capsys):
    code, _, err = run(["stirling1", "-2"], capsys)
    assert code == 1
    assert err


def test_bernoulli2_default(capsys):
    code, out, _ = run(["bernoulli2", "4"], capsys)
    assert code == 0
    assert out.strip() == "-19/720"


def test_bernoulli2_digits(capsys):
    code, out, _ = run(["bernoulli2", "4", "--digits", "10"], capsys)
    assert code == 0
    assert out.split() == ["-19/720", "-0.0263888889"]


@pytest.mark.parametrize("method, expected", [
    ("series", "3/160"),
    ("nemes", "3/160"),
    ("theorem", "3/160"),
    ("ank", "3/160"),
])
def test_bernoulli2_each_method(method, expected, capsys):
    code, out, _ = run(["bernoulli2", "5", "--method", method], capsys)
    assert code == 0
    assert out.strip() == expected


def test_bernoulli2_all_methods_line(capsys):
    code, out, _ = run(["bernoulli2", "4", "--method", "all"], capsys)
    assert code == 0
    assert out.strip() == (
        "n=4 series=-19/720 nemes=-19/720 theorem=-19/720 ank=-19/720 agree=yes"
    )


@pytest.mark.parametrize("argv, expected", [
    (
        ["bernoulli2", "3", "--method", "all", "--digits", "6"],
        "n=3 series=1/24 (0.041667) nemes=1/24 (0.041667) theorem=1/24 (0.041667)"
        " ank=1/24 (0.041667) agree=yes\n",
    ),
    (
        ["crosscheck", "--max-n", "2", "--digits", "3"],
        "n=2 series=-1/12 (-0.083) nemes=-1/12 (-0.083) theorem=-1/12 (-0.083)"
        " ank=-1/12 (-0.083) agree=yes\nALL AGREE [2..2]\n",
    ),
])
def test_report_lines_show_each_routes_decimal(argv, expected, capsys):
    assert run(argv, capsys) == (0, expected, "")


@pytest.mark.parametrize("argv, out", [
    # 137 * 10**D passes the largest exponent even where D itself does not.
    (["harmonic", "5", "--digits", "999999999999999999"], ""),
    (["harmonic", "5", "--digits", "1000000000000000000"], ""),
    (["bernoulli2", "5", "--digits", "1000000000000000000"], ""),
    (["bernoulli2", "5", "--method", "all", "--digits", "1000000000000000000"], ""),
    # The header is written before the first value is rendered.
    (
        ["crosscheck", "--max-n", "5", "--digits", "1000000000000000000", "--format", "csv"],
        "kind,n,k,method,value,decimal\n",
    ),
])
def test_digits_past_the_decimal_exponent_range_is_a_clean_error(argv, out, capsys):
    digits = argv[argv.index("--digits") + 1]
    message = "error: %s decimal places are past the Decimal exponent range\n" % digits
    assert run(argv, capsys) == (1, out, message)


@pytest.mark.parametrize("fmt", ["frac", "json", "csv"])
def test_bernoulli2_past_memory_is_a_clean_error(fmt, capsys):
    # The series route's first list at this order cannot be allocated.
    code, out, err = run(["bernoulli2", "1000000000000000", "--format", fmt], capsys)
    assert (code, out) == (1, "")
    assert err == "error: out of memory: the input is too large\n"


HUGE = "100000000000000000000"  # 10**20, past sys.maxsize


@pytest.mark.parametrize("argv", [
    ["harmonic", HUGE],
    ["bernoulli2", HUGE],
    ["bernoulli2", HUGE, "--method", "nemes"],
    ["bernoulli2", HUGE, "--method", "all", "--format", "json"],
    ["crosscheck", "--max-n", HUGE],
    ["bench", "--max-n", HUGE, "--format", "csv"],
])
def test_n_past_the_index_range_is_a_clean_error(argv, capsys):
    # The first list or range such an n sizes cannot be indexed.
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: the input is too large: past sys.maxsize\n"


@pytest.mark.parametrize("argv", [
    ["stirling1", HUGE],
    ["stirling1", HUGE, "3"],
    ["ank", HUGE, "3"],
    ["deriv", HUGE],
    ["bernoulli2", HUGE, "--method", "theorem"],
    ["bernoulli2", HUGE, "--method", "ank"],
    ["probe", "--max-n", HUGE],
])
def test_n_past_the_index_range_is_refused_by_the_parser(argv):
    # Each of these ran without end, or failed inside islice, until the
    # parser refused such an n; a subprocess, so that a regression times out.
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-m", "gregory", *argv], capture_output=True, text=True, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: the input is too large: past sys.maxsize\n"


def test_the_largest_index_passes_the_parser():
    # sys.maxsize itself is a valid n for the parser; one past it is not.
    parse = cli._at_least(0)
    assert parse(str(sys.maxsize)) == sys.maxsize
    with pytest.raises(OverflowError):
        parse(str(sys.maxsize + 1))


def test_bernoulli2_theorem_below_stated_domain(capsys):
    code, _, err = run(["bernoulli2", "1", "--method", "theorem"], capsys)
    assert code == 1
    assert "n >= 2" in err


def test_harmonic(capsys):
    code, out, _ = run(["harmonic", "10"], capsys)
    assert code == 0
    assert out.strip() == "7381/2520"


def test_harmonic_matches_the_reference_sum_to_500(capsys):
    # The CLI sums through the kernel; exact.harmonic adds one Fraction a term.
    for n in range(501):
        expected = str(harmonic(n))
        code, out, _ = run(["harmonic", str(n)], capsys)
        assert (code, out) == (0, expected + "\n"), n
        code, out, _ = run(["harmonic", str(n), "--format", "json"], capsys)
        assert (code, json.loads(out)[0]["value"]) == (0, expected), n


def test_harmonic_memory_is_linear_in_n(capsys):
    # H(20,000) in about 1.6 MB traced: the block weights and the text.  A
    # sum that also held the lcm of every prefix of runs of 16 denominators
    # (up to 1.44 n bits each, n / 16 of them) peaked at about 4.1 MB.
    n = 20_000
    tracemalloc.start()
    try:
        code = cli.main(["harmonic", str(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    with cli._exact_int_rendering():
        assert capsys.readouterr().out == str(harmonic(n)) + "\n"
    assert peak < 150 * n, peak


def test_ank(capsys):
    code, out, _ = run(["ank", "4", "4"], capsys)
    assert code == 0
    assert out.strip() == "36"


def test_ank_out_of_range(capsys):
    code, _, err = run(["ank", "4", "6"], capsys)
    assert code == 1
    assert "out of range" in err


def test_crosscheck_agreeing(capsys):
    code, out, _ = run(["crosscheck", "--max-n", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # n = 2..5 plus the summary
    assert lines[0].startswith("n=2 ")
    assert lines[-1] == "ALL AGREE [2..5]"


def test_crosscheck_detects_injected_fault(capsys, monkeypatch):
    values = {**dict.fromkeys(bernoulli.ROUTES, Fraction(-1, 12)), "ank": Fraction(1, 12)}
    bad_report = [MethodReport.gather(2, values)]
    monkeypatch.setattr(bernoulli, "bernoulli2_report", lambda max_n: bad_report)
    code, out, _ = run(["crosscheck", "--max-n", "2"], capsys)
    assert code == 2
    assert "DISAGREE at n=2" in out
    # Each route's own value, not the first route's for all.
    assert "theorem=-1/12 ank=1/12 agree=NO" in out
    code, out, _ = run(["crosscheck", "--max-n", "2", "--format", "json", "--digits", "3"], capsys)
    assert code == 2
    shown = {r["method"]: (r["value"], r["decimal"]) for r in json.loads(out)[:-1]}
    assert shown == {
        **dict.fromkeys(bernoulli.ROUTES, ("-1/12", "-0.083")),
        "ank": ("1/12", "0.083"),
    }


def test_agreeing_report_copies_one_rendered_record_per_route(capsys, monkeypatch):
    rendered = []
    real = cli._rational
    monkeypatch.setattr(cli, "_rational", lambda *a, **kw: rendered.append(a[2]) or real(*a, **kw))
    code, out, _ = run(["crosscheck", "--max-n", "5", "--format", "json"], capsys)
    assert code == 0
    assert len(rendered) == 4  # b_2..b_5, once each
    records = json.loads(out)[:-1]
    assert [(r["n"], r["method"]) for r in records] == [
        (n, m) for n in range(2, 6) for m in bernoulli.ROUTES
    ]


def test_crosscheck_domain(capsys):
    code, _, err = run(["crosscheck", "--max-n", "1"], capsys)
    assert code == 1


def test_probe(capsys):
    code, out, _ = run(["probe", "--max-n", "4"], capsys)
    assert code == 0
    assert "n=4 row=[6, 22, 36, 24] peaks=[4] unimodal=yes increasing=ok" in out
    assert "n=2 row=[1, 2] peaks=[3]" in out
    assert "unimodal rows: 4/4" in out
    assert "increasing_in_n: OK" in out


def _failing_a_rows(max_n, one):
    """Three rows that real a(n,k) never give: row 2 shrinks against row 1,
    row 3 has two separated maxima."""
    assert max_n == 3
    for row in ([5], [4, 6], [8, 7, 8]):
        yield [one * v for v in row]


def test_probe_reports_shrinking_and_two_peaked_rows(capsys, monkeypatch):
    monkeypatch.setattr(asequence, "a_rows", _failing_a_rows)
    code, out, _ = run(["probe", "--max-n", "3"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "n=1 row=[5] peaks=[2] unimodal=yes increasing=ok",
        "n=2 row=[4, 6] peaks=[3] unimodal=yes increasing=NO",
        "n=3 row=[8, 7, 8] peaks=[2, 4] unimodal=NO increasing=ok",
        "unimodal rows: 2/3",
        "increasing_in_n: FAIL at n=2",
    ]

    code, out, _ = run(["probe", "--max-n", "3", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [(r["unimodal"], r["increasing_in_n"]) for r in records[:3]] == [
        (True, True), (True, False), (False, True)
    ]
    assert records[3] == {
        "kind": "probe", "n": None, "k": None, "method": "summary",
        "value": "unimodal rows: 2/3", "decimal": None, "increasing_in_n": False,
    }

    code, out, _ = run(["probe", "--max-n", "3", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "probe,,,summary,unimodal rows: 2/3,"


@pytest.mark.parametrize("argv", [
    ["stirling1", "5"],
    ["bernoulli2", "5", "--digits", "3"],
    ["bernoulli2", "5", "--method", "all"],
    ["harmonic", "5"],
    ["ank", "5", "3"],
    ["crosscheck", "--max-n", "6"],
    ["probe", "--max-n", "5"],
    ["bench", "--max-n", "4"],
    ["deriv", "3", "2.0", "--check", "1e-3", "1e-4"],
])
def test_only_emit_writes_frac_output(argv, capsys, monkeypatch):
    def stderr_only(*args, **kwargs):
        assert kwargs.get("file") is sys.stderr, "print to stdout: %r" % (args,)
        print(*args, **kwargs)

    monkeypatch.setattr(cli, "print", stderr_only, raising=False)
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out


def test_bench_default_has_four_method_rows(capsys):
    code, out, _ = run(["bench", "--max-n", "5", "--repeat", "1"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["method", "max_n", "repeat", "median_s"]
    body = [line.split() for line in lines[1:-1]]
    assert [row[:3] for row in body] == [[m, "5", "1"] for m in bernoulli.ROUTES]
    assert all(float(row[3]) >= 0 for row in body)
    assert lines[-1] == "ALL AGREE [2..5]"


def _wrong_b3_stream(max_n, start):
    for n, value in enumerate(bernoulli._nemes_stream(max_n, start), start):
        yield value + 1 if n == 3 else value


@pytest.mark.parametrize("fmt", ["frac", "json", "csv"])
def test_bench_reports_a_route_that_disagrees(fmt, capsys, monkeypatch):
    monkeypatch.setitem(bernoulli.ROUTES, "wrong", bernoulli.Route(0, _wrong_b3_stream))
    code, out, _ = run(["bench", "--max-n", "4", "--format", fmt], capsys)
    assert code == 2
    # The summary is the last record, in every format.
    if fmt == "json":
        last = json.loads(out)[-1]["value"]
    elif fmt == "csv":
        last = list(csv.reader(io.StringIO(out)))[-1][4]
    else:
        last = out.splitlines()[-1]
    assert last == "DISAGREE at n=3"


def test_a_route_added_to_the_registry_reaches_every_report_and_command(capsys, monkeypatch):
    # The registry is the only list of routes: a fifth entry (a second copy
    # of nemes) shows up in the reports, the agreement rule and the CLI,
    # --method's choices included.
    nemes_again = bernoulli.Route(0, bernoulli._nemes_stream)
    monkeypatch.setitem(bernoulli.ROUTES, "nemes_again", nemes_again)
    names = ["series", "nemes", "theorem", "ank", "nemes_again"]
    assert list(bernoulli.ROUTES) == names

    reports = bernoulli2_report(6)
    assert [r.n for r in reports] == [2, 3, 4, 5, 6]
    assert all(list(r.values) == names and r.agree for r in reports)

    code, out, _ = run(["crosscheck", "--max-n", "4"], capsys)
    assert code == 0
    assert "n=4 series=-19/720 " in out and " nemes_again=-19/720 agree=yes" in out
    code, out, _ = run(["crosscheck", "--max-n", "4", "--format", "json"], capsys)
    assert code == 0
    assert list(dict.fromkeys(r["method"] for r in json.loads(out))) == names + ["summary"]

    code, out, _ = run(["bernoulli2", "5", "--method", "nemes_again"], capsys)
    assert (code, out) == (0, "3/160\n")

    code, out, _ = run(["bench", "--max-n", "3"], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:-1]] == names
    assert out.endswith("ALL AGREE [2..3]\n")

    # A route stated from n = 3 on moves the bernoulli2 domain message, and
    # the routes it offers instead are the registry's routes stated from 0.
    monkeypatch.delitem(bernoulli.ROUTES, "nemes_again")
    monkeypatch.setitem(bernoulli.ROUTES, "late", bernoulli.Route(3, bernoulli._nemes_stream))
    code, out, err = run(["bernoulli2", "2", "--method", "late"], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: method 'late' is stated for n >= 3 only; use series or nemes for b_0, b_1, b_2\n"
    )


def test_bench_csv(capsys):
    # One six-column record per route, kind "bench", then the crosscheck
    # summary of the timed columns; --repeat is a JSON-only extra.
    code, out, _ = run(["bench", "--max-n", "4", "--repeat", "2", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "n", "k", "method", "value", "decimal"]
    assert [row[:4] + row[5:] for row in rows[1:-1]] == [
        ["bench", "4", "", m, ""] for m in bernoulli.ROUTES
    ]
    assert all(float(row[4]) >= 0 for row in rows[1:-1])
    assert rows[-1] == ["bench", "", "", "summary", "ALL AGREE [2..4]", ""]

    code, out, _ = run(["bench", "--max-n", "4", "--repeat", "2", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert [(r["method"], r["repeat"]) for r in records[:-1]] == [(m, 2) for m in bernoulli.ROUTES]
    assert records[-1] == {
        "kind": "bench", "n": None, "k": None, "method": "summary",
        "value": "ALL AGREE [2..4]", "decimal": None,
    }


def test_bench_domain(capsys):
    code, _, err = run(["bench", "--max-n", "1"], capsys)
    assert code == 1


# Each fixed bound the parser declares, one below it: argv, the argument the
# error line names, and the bound.
BELOW_BOUND = [
    (["stirling1", "-1"], "n", 0),
    (["bernoulli2", "-1"], "n", 0),
    (["harmonic", "-1"], "n", 0),
    (["ank", "0", "2"], "n", 1),
    (["deriv", "0"], "n", 1),
    (["crosscheck", "--max-n", "1"], "--max-n", 2),
    (["probe", "--max-n", "1"], "--max-n", 2),
    (["bench", "--max-n", "1"], "--max-n", 2),
    (["bench", "--max-n", "3", "--repeat", "0"], "--repeat", 1),
    (["bernoulli2", "3", "--digits", "-1"], "--digits", 0),
    (["bernoulli2", "3", "--method", "all", "--digits", "-1"], "--digits", 0),
    (["harmonic", "3", "--digits", "-1"], "--digits", 0),
    (["crosscheck", "--max-n", "5", "--digits", "-1"], "--digits", 0),
]


@pytest.mark.parametrize("fmt", ["frac", "json", "csv"])
@pytest.mark.parametrize(
    "argv, name, low", BELOW_BOUND, ids=[" ".join(argv) for argv, _, _ in BELOW_BOUND]
)
def test_argument_below_its_bound_is_rejected_before_any_output(argv, name, low, fmt, capsys):
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert (code, out) == (1, "")
    assert err == "error: argument %s: must be >= %d\n" % (name, low)


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "gregory", "stirling1", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0 -6 11 -6 1"


def test_deriv_coefficients(capsys):
    code, out, _ = run(["deriv", "2"], capsys)
    assert code == 0
    assert out.strip() == "k=1: 1, k=2: 2"


def test_deriv_check_passes(capsys):
    code, out, _ = run(["deriv", "1", "2.0", "--check", "1e-4", "1e-6"], capsys)
    assert code == 0
    assert "PASS" in out


def test_deriv_check_failure_is_exit_2(capsys):
    code, out, _ = run(["deriv", "1", "2.0", "--check", "1e-4", "1e-30"], capsys)
    assert code == 2
    assert "FAIL" in out


def test_deriv_at_pole(capsys):
    code, _, err = run(["deriv", "1", "1.0"], capsys)
    assert code == 1
    assert "pole" in err


def test_deriv_check_requires_x(capsys):
    code, _, err = run(["deriv", "1", "--check", "1e-4", "1e-6"], capsys)
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stirling1", "2500", "-1"], "error: k=-1 out of range for n=2500 (need 0 <= k <= n)"),
        (["deriv", "2500", "--check", "0.1", "0.1"], "error: --check needs an evaluation point x"),
    ],
)
def test_usage_error_comes_before_the_row_is_built(argv, message, capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("stirling_row(%d) built for a usage error" % n)

    monkeypatch.setattr(stirling, "stirling_row", refuse)
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "", message + "\n")


def test_deriv_check_step_whose_floor_exceeds_tol_fails(capsys):
    # An order-2 stencil for f^(6) at h = 0.1 misses by about 3.5e-2, its
    # truncation: the floor says that 1e-4 is out of reach, and the exit code is 2.
    argv = ["deriv", "6", "3.0", "--check", "0.1", "1e-4"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 2
    check = json.loads(out)[0]["check"]
    assert not check["passed"]
    assert check["residual"] > check["floor"] > check["tol"] == 1e-4
    code, out, _ = run(argv, capsys)
    assert code == 2
    assert "check: residual=3.588e-02 floor=3.494e-02 tol=0.0001 FAIL" in out


def test_deriv_json_keeps_coefficients_beside_value_at_x(capsys):
    code, out, _ = run(["deriv", "2", "3.0", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)[0]
    assert record["value"] == ["1", "2"]
    assert record["x"] == 3.0
    assert record["value_at_x"] == pytest.approx(0.2596518204009)


def test_deriv_beyond_float_range_is_clean_error():
    import subprocess
    import sys

    # At order 200 the sum overflows; 1e-300 ** 2 underflows to 0.0, which
    # must not surface as a bare division by zero.
    for x_args in (["200", "2.0"], ["2", "1e-300"]):
        proc = subprocess.run(
            [sys.executable, "-m", "gregory", "deriv", *x_args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "beyond float range" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_deriv_check_negative_tol_is_usage_error(capsys):
    # A negative TOL cannot be met by any residual: exit 1, not a FAIL (exit 2).
    code, out, err = run(["deriv", "3", "2.0", "--check", "1e-3", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: tol must be >= 0, got -1.0\n"


@pytest.mark.parametrize("argv", [
    ["deriv", "1", "nan", "--format", "json"],
    ["deriv", "1", "inf"],
    ["deriv", "3", "2.0", "--check", "nan", "1e-6"],
    ["deriv", "3", "2.0", "--check", "1e-4", "inf"],
])
def test_deriv_rejects_non_finite_input(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")



@pytest.mark.parametrize("argv, line", [
    # Steps that a double-precision stencil cannot sum (h**6 underflows, the
    # points round to x, the estimate overflows) or sums wrongly (rounding x + j*h
    # and ln t next to the pole): with exact points each is a verdict on the
    # truncation alone.
    (["6", "3.0", "--check", "1e-60", "1e-6"], "residual=3.494e-120 floor=3.494e-120 tol=1e-06 PASS"),
    (["1", "2", "--check", "5e-324", "1"], "residual=0.000e+00 floor=0.000e+00 tol=1 PASS"),
    (["4", "1.1", "--check", "1.3e-81", "1e-6"], "residual=8.450e-160 floor=8.450e-160 tol=1e-06 PASS"),
    (["6", "1.0000001", "--check", "1e-9", "1"], "residual=1.401e-03 floor=1.400e-03 tol=1 PASS"),
    # f^(3)(1e300), in the floor, is past float range; the floor, relative, is not.
    (["1", "1e300", "--check", "1e299", "1"], "residual=3.368e-03 floor=3.348e-03 tol=1 PASS"),
], ids=["h-power-underflows", "points-coincide", "estimate-overflows", "near-pole", "huge-x"])
def test_deriv_check_at_any_valid_step_is_a_verdict(argv, line, capsys):
    code, out, err = run(["deriv", *argv], capsys)
    assert (code, err) == (0, "")
    assert out.endswith("check: %s\n" % line)


def test_closed_output_pipe_ends_quietly():
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "gregory", "probe", "--max-n", "150"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"n=1 ")
    proc.stdout.close()  # the reader goes away with megabytes still unwritten
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""


@pytest.mark.parametrize("fmt", ["frac", "json", "csv"])
def test_probe_leaves_the_callers_decimal_context(fmt, capsys):
    with decimal.localcontext() as ctx:
        ctx.prec = 7
        code, out, _ = run(["probe", "--max-n", "40", "--format", fmt], capsys)
        assert code == 0 and "unimodal rows: 40/40" in out
        assert decimal.getcontext() is ctx
        assert ctx.prec == 7 and not ctx.traps[decimal.Inexact]


def test_probe_into_closed_pipe_leaves_the_callers_decimal_context(monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as out, decimal.localcontext() as ctx:
        ctx.prec = 7
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["probe", "--max-n", "150"]) == 1  # stopped by the pipe
        assert decimal.getcontext() is ctx
        assert ctx.prec == 7 and not ctx.traps[decimal.Inexact]


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run([], capsys)
    assert code == 1


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 1


def _subcommands(parser):
    """The subcommands a parser registered, in order, from its usage line."""
    return re.search(r"\{(.*)\}", parser.format_usage()).group(1).split(",")


ALL_EIGHT = ["stirling1", "bernoulli2", "harmonic", "ank", "crosscheck", "probe", "bench", "deriv"]


def test_build_parser_registers_the_named_subcommand_or_all_eight():
    assert _subcommands(cli.build_parser("crosscheck")) == ["crosscheck"]
    assert _subcommands(cli.build_parser()) == ALL_EIGHT
    assert _subcommands(cli.build_parser("nosuch")) == ALL_EIGHT


@pytest.mark.parametrize("argv, built", [
    (["crosscheck", "--max-n", "3"], ["crosscheck"]),
    (["stirling1", "4", "--format", "json"], ["stirling1"]),
    (["frobnicate"], ALL_EIGHT),
    ([], ALL_EIGHT),
])
def test_main_builds_the_parser_of_the_command_it_runs(argv, built, capsys, monkeypatch):
    progs = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    code, _, _ = run(argv, capsys)
    assert code == (0 if argv and argv[0] in ALL_EIGHT else 1)
    assert progs == ["gregory"] + ["gregory " + name for name in built]


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gregory [-h]\n")
    assert "{%s}" % ",".join(ALL_EIGHT) in out
    assert "    crosscheck          verify every b_n route agrees\n" in out


def _json_values(out):
    records = json.loads(out)
    values = []
    for r in records:
        if isinstance(r["value"], list):
            values.extend(r["value"])
        else:
            values.append(r["value"])
    return values


def _csv_values(out):
    rows = list(csv.reader(io.StringIO(out)))
    header = rows[0]
    idx = header.index("value")
    return [r[idx] for r in rows[1:]]


@pytest.mark.parametrize("argv", [
    ["stirling1", "4"],
    ["stirling1", "6", "3"],
    ["bernoulli2", "6", "--digits", "8"],
    ["harmonic", "12"],
    ["crosscheck", "--max-n", "4"],
    ["probe", "--max-n", "4"],
    ["deriv", "3"],
    ["stirling1", "40"],
    ["probe", "--max-n", "40"],
    ["deriv", "40"],
])
def test_json_and_csv_values_identical(argv, capsys):
    code_j, out_j, _ = run(argv + ["--format", "json"], capsys)
    code_c, out_c, _ = run(argv + ["--format", "csv"], capsys)
    assert code_j == code_c == 0
    assert _json_values(out_j) == _csv_values(out_c)


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


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


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_json_output_is_strict_and_exact(argv, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    records = json.loads(out, parse_constant=_reject_constant)
    # Written record by record, the text is still what json.dump gives.
    assert out == json.dumps(records, indent=2) + "\n"
    for r in records:
        assert {"kind", "n", "k", "method", "value", "decimal"} <= set(r)
        values = r["value"] if isinstance(r["value"], list) else [r["value"]]
        assert all(isinstance(v, str) for v in values)


class _UncomparableFormat(str):
    """A --format value that fails the test when any code compares it."""

    def __eq__(self, other):
        raise AssertionError("--format compared with %r outside emit" % (other,))

    __ne__ = __eq__
    __hash__ = str.__hash__


@pytest.mark.parametrize("fmt", ["frac", "json", "csv"])
@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_only_emit_reads_the_format(argv, fmt, capsys, monkeypatch):
    # The command sees a format it cannot compare; the emit spy hands the
    # plain string on to the real writer.
    real_build_parser, real_emit = cli.build_parser, cli.emit
    seen = []

    def build_parser(*args):
        parser = real_build_parser(*args)
        parse_args = parser.parse_args

        def parse_uncomparable(argv):
            args = parse_args(argv)
            args.format = _UncomparableFormat(args.format)
            return args

        parser.parse_args = parse_uncomparable
        return parser

    def emit(records, fmt, *renderer):
        assert isinstance(fmt, _UncomparableFormat)
        seen.append(fmt)
        real_emit(records, str(fmt), *renderer)

    monkeypatch.setattr(cli, "build_parser", build_parser)
    monkeypatch.setattr(cli, "emit", emit)
    code, out, _ = run(argv + ["--format", fmt], capsys)
    assert code == 0
    assert len(seen) == 1 and out


def _words(*parts):
    """The concatenation of drawn word lists."""
    return st.tuples(*parts).map(lambda lists: [word for words in lists for word in words])


def _maybe(words):
    return st.one_of(st.just([]), words)


_N = st.integers(-2, 30).map(lambda n: [str(n)])
_MAX_N = _N.map(lambda m: ["--max-n", *m])
_DIGITS = _maybe(st.integers(-2, 40).map(lambda d: ["--digits", str(d)]))
_FLOAT = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e-300]), st.floats()).map(
    lambda x: [repr(x)]
)

# argv for every subcommand, with n, k and --max-n in [-2, 30] and --digits
# in [-2, 40] on the three commands that take it.
ANY_ARGV = st.one_of(
    _words(st.just(["stirling1"]), _N, _maybe(_N)),
    _words(
        st.just(["bernoulli2"]),
        _N,
        _maybe(st.sampled_from([*bernoulli.ROUTES, "all"]).map(lambda m: ["--method", m])),
        _DIGITS,
    ),
    _words(st.just(["harmonic"]), _N, _DIGITS),
    _words(st.just(["ank"]), _N, _N),
    _words(st.just(["crosscheck"]), _MAX_N, _DIGITS),
    _words(st.just(["probe"]), _MAX_N),
    _words(st.just(["bench"]), _MAX_N, _maybe(st.integers(-1, 2).map(lambda r: ["--repeat", str(r)]))),
    _words(
        st.just(["deriv"]), _N, _maybe(_FLOAT), _maybe(_words(st.just(["--check"]), _FLOAT, _FLOAT))
    ),
)


@settings(max_examples=300, deadline=None)
@given(ANY_ARGV)
@example(["bernoulli2", "3", "--method", "all", "--digits", "-1"])
@example(["deriv", "2", "1e-300"])
@example(["deriv", "3", "2.0", "--check", "1e-3", "-1.0"])
def test_any_json_run_is_a_clean_error_or_strict_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    out, err = out.getvalue(), err.getvalue()
    if code == cli.EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY) and err == ""
    for r in json.loads(out, parse_constant=_reject_constant):
        values = r["value"] if isinstance(r["value"], list) else [r["value"]]
        assert all(isinstance(v, str) for v in values)


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND)
def test_csv_output_survives_reader_writer_round_trip(argv, capsys):
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
    assert again.getvalue() == out


def test_emit_json_of_no_records_is_an_empty_list(capsys):
    cli.emit([], "json")
    assert capsys.readouterr().out == "[]\n"


def test_json_with_a_nested_object_is_the_indent_2_text(capsys):
    code, out, _ = run(["deriv", "5", "2.0", "--check", "1e-3", "1e-2", "--format", "json"], capsys)
    assert code == 0
    records = json.loads(out)
    assert set(records[0]["check"]) == {"h", "tol", "residual", "floor", "passed"}
    assert out == json.dumps(records, indent=2) + "\n"


_scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_field = _scalar | st.lists(_scalar, max_size=4) | st.dictionaries(st.text(), _scalar, max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.text(), _field, min_size=1, max_size=8), max_size=3))
# Empty and non-empty list and object fields between runs of scalars.
@example([{"kind": "p", "value": [], "peaks": [4, 5], "check": {}, "x": 0.5}])
@example([{"check": {"h": 1e-3, "passed": True}, "value": ["1", "-2"]}, {"n": None}])
def test_emit_json_is_the_indent_2_text_of_the_list(records):
    # A record's fields hold scalars, or lists or objects of scalars.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.emit([cli.OutputRecord(None, None, None, extra=d) for d in records], "json")
    expected = [
        {**dict.fromkeys(("kind", "n", "k", "method", "value", "decimal")), **d} for d in records
    ]
    assert out.getvalue() == json.dumps(expected, indent=2) + "\n"


# Rows always have five or six fields; csv.writer writes a lone empty field as
# "" so that the row is not blank, which no row of ours needs.
@given(st.lists(st.text(), min_size=2, max_size=6))
@example(["crosscheck", "", "", "summary", "DISAGREE at n=3,5", ""])
def test_csv_quoter_matches_csv_writer(fields):
    # With CR and LF in the line terminator, csv.writer quotes a field holding
    # either, as the quoter always does.
    expected = io.StringIO()
    csv.writer(expected, lineterminator="\r\n").writerow(fields)
    assert cli._csv_line(fields) == expected.getvalue()[:-2] + "\n"


@pytest.mark.parametrize("argv", [
    ["stirling1", "40"],
    ["probe", "--max-n", "40"],
    ["deriv", "40"],
])
def test_row_records_carry_ints_or_decimals(argv, capsys, monkeypatch):
    real_emit = cli.emit
    records = []

    def emit(stream, fmt, *renderer):
        records.extend(stream)
        real_emit(records, fmt, *renderer)

    monkeypatch.setattr(cli, "emit", emit)
    code, out, _ = run(argv, capsys)
    assert code == 0 and out
    rows = [r.value for r in records if isinstance(r.value, list)]
    assert rows
    assert all(type(v) in (int, decimal.Decimal) for row in rows for v in row)


def test_records_built_without_extra_share_no_mutable_mapping():
    first = cli.OutputRecord(kind="harmonic", n=1, value="1")
    second = cli.OutputRecord(
        kind="harmonic", n=2, value="3/2", k=None, decimal="1.5", method=None, row_keys=None
    )
    assert first.extra == second.extra == {}
    with pytest.raises(TypeError):
        first.extra["agree"] = True
    assert second.extra == {}
    given = {"agree": True}
    assert cli.OutputRecord("crosscheck", 2, "-1/12", extra=given).extra is given


@pytest.mark.parametrize("fmt", ["frac", "json", "csv"])
@pytest.mark.parametrize("entry", ['1"2', True, 1.5])
def test_a_row_entry_neither_int_nor_decimal_is_a_type_error(entry, fmt, capsys):
    record = cli.OutputRecord("row", 1, [1, entry], row_keys=range(2))
    with pytest.raises(TypeError, match="ints and Decimals"):
        cli.emit([record], fmt)
    # The row is checked before any of its text is written.
    assert capsys.readouterr().out == ("kind,n,k,method,value,decimal\n" if fmt == "csv" else "")


_row_entry = st.one_of(
    st.integers(),
    st.integers(-(10**450), 10**450),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, decimal.Decimal("-0"), decimal.Decimal("1E+3"), decimal.Decimal("NaN")]),
)
_extras = st.sampled_from([{}, {"peaks": [2, 3], "unimodal": False}, {"x": 0.5}])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(_row_entry, max_size=6), _extras), max_size=3))
@example([([10**401 + 7, -(10**400), 0], {})])
@example([([decimal.Decimal("-0"), decimal.Decimal("1E+3"), decimal.Decimal("NaN")], {"x": 1.0})])
@example([([], {"peaks": [2]}), ([-5], {})])
def test_rows_render_as_the_generic_writers_render_their_text(rows):
    # The oracle: each entry's str() through the json and csv modules'
    # own writers and a plain join.
    records = [
        cli.OutputRecord("row", n, row, row_keys=range(2, len(row) + 2), extra=extra)
        for n, (row, extra) in enumerate(rows)
    ]
    texts = [[str(v) for v in row] for row, _ in rows]
    dicts = [
        {"kind": "row", "n": n, "k": None, "method": None, "value": text, "decimal": None, **extra}
        for n, (text, (_, extra)) in enumerate(zip(texts, rows))
    ]
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["kind", "n", "k", "method", "value", "decimal"])
    for n, text in enumerate(texts):
        writer.writerows(["row", n, k, None, v, None] for k, v in enumerate(text, 2))
    expected = {
        "frac": "".join(" ".join(text) + "\n" for text in texts),
        "json": json.dumps(dicts, indent=2) + "\n",
        "csv": table.getvalue(),
    }
    for fmt, text in expected.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.emit(records, fmt)
        assert out.getvalue() == text, fmt


@pytest.mark.parametrize("argv, expected", [
    # b_4 = -19/720 = -0.026388..., rounded at place 5000.
    (["bernoulli2", "4", "--digits", "5000"], "-19/720 -0.0263" + "8" * 4995 + "9\n"),
    # H(3) = 11/6 = 1.8333...
    (["harmonic", "3", "--digits", "4400", "--format", "json"], "1.8" + "3" * 4399),
], ids=["bernoulli2-5000-places", "harmonic-4400-places-json"])
def test_exact_output_past_the_int_digit_cap(argv, expected, capsys):
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    if "json" in argv:
        assert json.loads(out)[0]["decimal"] == expected
    else:
        assert out == expected
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_interpreter_without_int_digit_cap(capsys, monkeypatch):
    # Python before 3.10.7 has no cap and no function to set it.
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, _ = run(["bernoulli2", "4", "--digits", "10"], capsys)
    assert (code, out) == (0, "-19/720 -0.0263888889\n")


def test_json_value_round_trips(capsys):
    _, out, _ = run(["bernoulli2", "7", "--format", "json"], capsys)
    record = json.loads(out)[0]
    assert Fraction(record["value"]) == Fraction(275, 24192)


def test_negative_values_use_ascii_hyphen(capsys):
    _, out, _ = run(["stirling1", "4", "--format", "csv"], capsys)
    assert "-6" in out
    assert "−" not in out
