"""Seeded operation streams, their execution through gregory's public API,
and the checks on every output.

A stream is an endless sequence of blocks; the runner executes whole blocks
until its time is up.  Within a block the sizes are stratified: every block
holds one operation per (kind, size stratum) cell, at a point of the stratum
drawn from the seeded generator.  The strata are narrow, so each block covers
the size distribution evenly: the seed changes every input, but percentiles
stay comparable across seeds.  (With plain seeded sampling, no strata, the
interquartile spread over ten seeds of cli-queries p90 latency and values/s
reached 0.28 and 0.33 of the median.)  The first block puts every top
stratum at its largest size, so peak memory, which the largest table sets,
does not depend on the seed.

probe-rows runs sessions: one operation is a probe and two full rows in one
format.  The probe takes about 97% of a session, so every operation costs
about the same for a given format, and the percentiles do not hinge on which
row sizes the seed drew or on the timing noise of 20 ms row calls.

Each operation yields an :class:`Outcome`; :func:`check` turns it into a
:class:`Verdict` whose claims are (key, digest) pairs.  The runner resolves
the keys after the timed loop, against ``digests.json`` (values recorded when
the benchmark was defined) or against the sympy oracle in ``oracle.py``.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import random
import re
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import gregory
import gregory.cli

from oracle import KNOWN_B, digest

FORMATS = ("frac", "json", "csv")

CROSSCHECK_MAX_N = 400
PROBE_MAX_N = 400
ROW_N = (300, 400)  # full-row stirling1 N / deriv N in probe-rows
# cli-queries is a synthetic stress stream: nothing records how the CLI is
# used, so the mix below (eight query kinds in equal shares, n log-uniform)
# follows the description the benchmark was built to, not measured traffic.
QUERY_MAX_N = 400  # n log-uniform on [2, QUERY_MAX_N] ...
# ... except for series division, whose cost grows as n^3.8: one query at
# n=400 takes 2.7 s, and whether one more of them lands in a 24 s run would
# swing throughput by 10% from seed to seed.  At 250 one query takes 0.45 s.
QUERY_SERIES_MAX_N = 250
QUERY_STRATA = 64  # per kind; a block of 512 queries takes 8-9 s
QUERY_KINDS = (
    ("bernoulli2", "series"),
    ("bernoulli2", "nemes"),
    ("bernoulli2", "theorem"),
    ("bernoulli2", "ank"),
    ("stirling1", None),
    ("ank", None),
    ("harmonic", None),
    ("deriv", None),
)
ROUTE_N = (2, 120)  # stirling-routes: n uniform on this range
ROUTE_STRATA = 16
GF_MAX_N = 60  # the generating-function route is O(k n^2) Fraction products


@dataclass(frozen=True)
class Op:
    """One operation: ``cli`` runs ``gregory.cli.main(args)``; ``session``
    runs ``gregory.cli.main`` once for each argument list in ``args``;
    ``routes`` cross-checks s(n,k) and a(n,k+1) for each k, the closed forms
    of s(n,.), and H(n), for ``args = (n, ks)``."""

    name: str
    args: tuple


@dataclass
class Outcome:
    rc: int = None
    text: str = None  # captured stdout, when the check parses it
    digest: str = None  # sha256 of stdout, or of the route values
    stderr: str = ""
    error: str = None  # traceback of an exception
    values: dict = None  # routes ops: {oracle key: {route: value}}
    parts: list = None  # session ops: the Outcome of each call


@dataclass
class Verdict:
    failure: str = None
    claims: list = field(default_factory=list)  # [(key, digest)]
    values: int = 0  # exact values the claims cover


# ---------------------------------------------------------------- streams


def _point(rng, largest):
    """Where in its stratum an input lies, in [0, 1]; 1 when ``largest``."""
    return 1.0 if largest else rng.random()


def stream(workload, seed):
    """Endless iterator of blocks (lists of Op) for a workload."""
    makers = {
        "crosscheck": _crosscheck,
        "cli-queries": _cli_queries,
        "probe-rows": _probe_rows,
        "stirling-routes": _stirling_routes,
    }
    return makers[workload](random.Random(seed))


def _crosscheck(rng):
    # The paper's deliverable has one input; the seed has nothing to vary.
    op = Op("cli", ("crosscheck", "--max-n", str(CROSSCHECK_MAX_N), "--format", "json"))
    return itertools.repeat([op])


def _cli_queries(rng):
    for j in itertools.count():
        block = []
        for cmd, method in QUERY_KINDS:
            top = QUERY_SERIES_MAX_N if method == "series" else QUERY_MAX_N
            for s in range(QUERY_STRATA):
                t = _point(rng, j == 0 and s == QUERY_STRATA - 1)
                n = round(2 * (top / 2) ** ((s + t) / QUERY_STRATA))
                block.append(_query(rng, cmd, method, n))
        rng.shuffle(block)
        yield block


def _query(rng, cmd, method, n):
    if cmd == "bernoulli2":
        return Op("cli", (cmd, str(n), "--method", method))
    if cmd == "stirling1":
        return Op("cli", (cmd, str(n), str(rng.randint(0, n))))
    if cmd == "ank":
        return Op("cli", (cmd, str(n), str(rng.randint(2, n + 1))))
    return Op("cli", (cmd, str(n)))


def _probe_rows(rng):
    # The probe builds the largest tables, so peak memory needs no forced block.
    while True:
        block = [
            Op(
                "session",
                (
                    ("probe", "--max-n", str(PROBE_MAX_N), "--format", f),
                    ("stirling1", str(rng.randint(*ROW_N)), "--format", f),
                    ("deriv", str(rng.randint(*ROW_N)), "--format", f),
                ),
            )
            for f in FORMATS
        ]
        rng.shuffle(block)
        yield block


def _stirling_routes(rng):
    # An operation takes k at positions v/2 and 1 - v/2 of [1, n].  The nested
    # sums cost about k*n, so its cost is a smooth function of n whatever v
    # is, and n is stratified like every other size.
    for j in itertools.count():
        block = []
        for s in range(ROUTE_STRATA):
            v = rng.random()
            t = _point(rng, j == 0 and s == ROUTE_STRATA - 1)
            n = ROUTE_N[0] + round((s + t) / ROUTE_STRATA * (ROUTE_N[1] - ROUTE_N[0]))
            ks = {1 + round(x * (n - 1)) for x in (v / 2, 1 - v / 2)}
            block.append(Op("routes", (n, tuple(sorted(ks)))))
        rng.shuffle(block)
        yield block


def repeat_share(ops):
    """Share of cli ops whose (subcommand, n) already occurred earlier."""
    seen, repeats, total = set(), 0, 0
    for op in ops:
        if op.name != "cli":
            continue
        key = op.args[:2]
        repeats += key in seen
        seen.add(key)
        total += 1
    return repeats / total if total else 0.0


# ---------------------------------------------------------------- execution


class _Sink(io.TextIOBase):
    """Stdout stand-in that hashes everything written and optionally keeps it.

    It times its own writes: ``seconds`` is what the caller takes out of the
    operation's time, and ``charge``, when given, is told the duration of
    each write (the tracer counts it as harness time)."""

    def __init__(self, keep, charge=None):
        self._hash = hashlib.sha256()
        self._parts = [] if keep else None
        self._charge = charge
        self.seconds = 0.0

    def writable(self):
        return True

    def write(self, s):
        t0 = perf_counter()
        self._hash.update(s.encode())
        if self._parts is not None:
            self._parts.append(s)
        spent = perf_counter() - t0
        self.seconds += spent
        if self._charge is not None:
            self._charge(spent)
        return len(s)

    def text(self):
        return None if self._parts is None else "".join(self._parts)

    def hexdigest(self):
        return self._hash.hexdigest()


def execute(op, charge=None):
    """Run one operation; returns (seconds, Outcome).  Only the call into
    gregory is timed: the time the stdout sink spends hashing and keeping
    the output is taken out, and reported to ``charge`` write by write."""
    if op.name == "routes":
        return _execute_routes(*op.args)
    if op.name == "session":
        calls = [execute(Op("cli", args), charge) for args in op.args]
        parts = [outcome for _, outcome in calls]
        return sum(t for t, _ in calls), Outcome(rc=0, digest=digest([o.digest for o in parts]), parts=parts)
    # probe output (~46 MB at n=400) is checked by digest only, so it is hashed
    # as it streams and never held in memory.
    sink = _Sink(keep=op.args[0] != "probe", charge=charge)
    err = io.StringIO()
    outcome = Outcome()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            outcome.rc = gregory.cli.main(list(op.args))
        except Exception:
            outcome.error = traceback.format_exc(limit=3)
        elapsed = perf_counter() - t0 - sink.seconds
    outcome.text = sink.text()
    outcome.digest = sink.hexdigest()
    outcome.stderr = err.getvalue()
    return elapsed, outcome


def _execute_routes(n, ks):
    t0 = perf_counter()
    try:
        triangle = gregory.stirling_triangle(n + 1)
        values = {
            ("H", n): {
                "direct": gregory.harmonic(n),
                "from_stirling": gregory.harmonic_from_stirling(n, triangle),
            }
        }
        closed = {1, 2, n - 1, n}
        for k in sorted(closed.union(ks)):
            s = values[("s", n, k)] = {"triangle": triangle.value(n, k)}
            if k in closed:
                s["closed_form"] = gregory.stirling_closed_form(n, k)
            if k not in ks:
                continue
            s["nested_sum"] = gregory.stirling_nested_sum(n, k)
            if k >= 2:
                s["column_recurrence"] = gregory.stirling_column_recurrence(n, k, triangle)
            if n <= GF_MAX_N:
                s["gf_coeff"] = gregory.stirling_gf_coeff(n, k, n)
            values[("a", n, k + 1)] = {
                "nested_sum": gregory.a_nested_sum(n, k + 1),
                "from_stirling": gregory.a_from_stirling(n, k + 1, triangle),
            }
    except Exception:
        return perf_counter() - t0, Outcome(error=traceback.format_exc(limit=3))
    elapsed = perf_counter() - t0
    text = repr(sorted((key, sorted((r, str(Fraction(v))) for r, v in d.items())) for key, d in values.items()))
    return elapsed, Outcome(rc=0, digest=hashlib.sha256(text.encode()).hexdigest(), values=values)


# ---------------------------------------------------------------- checks


def check(op, outcome):
    """Verdict for one outcome; the runner resolves its claims after the
    timed loop."""
    if outcome.error is not None:
        return Verdict(failure="exception: %s" % outcome.error.splitlines()[-1])
    if outcome.rc != 0:
        return Verdict(failure="exit code %r: %s" % (outcome.rc, outcome.stderr.strip()))
    try:
        if op.name == "routes":
            return _check_routes(outcome.values)
        if op.name == "session":
            return _merge([check(Op("cli", args), part) for args, part in zip(op.args, outcome.parts)])
        cmd = op.args[0]
        if cmd == "crosscheck":
            return _check_crosscheck(outcome.text)
        if cmd == "probe":
            fmt = op.args[op.args.index("--format") + 1]
            rows = int(op.args[op.args.index("--max-n") + 1])
            key = ("recorded", "probe-%d-%s" % (rows, fmt))
            return Verdict(claims=[(key, outcome.digest)], values=rows * (rows + 1) // 2)
        return _check_values(op.args, outcome.text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(failure="unparsable output: %r" % (exc,))


def _merge(verdicts):
    merged = Verdict(failure=next((v.failure for v in verdicts if v.failure), None))
    for v in verdicts:
        merged.claims.extend(v.claims)
        merged.values += v.values
    return merged


def _check_crosscheck(text):
    by_method = {}
    summary = None
    for rec in json.loads(text):
        if rec["method"] == "summary":
            summary = rec["value"]
            continue
        if rec["agree"] is not True:
            return Verdict(failure="crosscheck reports disagreement at n=%s" % rec["n"])
        by_method.setdefault(rec["method"], []).append((rec["n"], rec["value"]))
    max_n = max(n for n, _ in by_method["series"])
    if summary != "ALL AGREE [2..%d]" % max_n:
        return Verdict(failure="crosscheck summary %r" % (summary,))
    reference = by_method["series"]
    if [n for n, _ in reference] != list(range(2, max_n + 1)):
        return Verdict(failure="crosscheck does not list n = 2..%d once each" % max_n)
    if sorted(by_method) != ["ank", "nemes", "series", "theorem"]:
        return Verdict(failure="crosscheck methods %s" % sorted(by_method))
    for method, values in by_method.items():
        if values != reference:
            return Verdict(failure="crosscheck column %s differs from series" % method)
    for n, value in reference:
        if n in KNOWN_B and value != KNOWN_B[n]:
            return Verdict(failure="b_%d = %s, literature says %s" % (n, value, KNOWN_B[n]))
    values = [v for _, v in reference]
    key = ("recorded", "crosscheck-%d" % max_n)
    return Verdict(claims=[(key, digest(values))], values=4 * len(values))


def _parse_values(cmd, fmt, text):
    """Every exact value in a cli output, as strings, in output order."""
    if fmt == "json":
        out = []
        for rec in json.loads(text):
            value = rec["value"]
            out.extend(value if isinstance(value, list) else [value])
        return out
    if fmt == "csv":
        return [row[4] for row in list(csv.reader(io.StringIO(text)))[1:]]
    if cmd == "deriv":
        return re.findall(r"k=\d+: (-?\d+)", text.splitlines()[0])
    return text.split()


def _check_values(args, text):
    cmd, n = args[0], int(args[1])
    positional, options = [], {}
    rest = iter(args[2:])
    for arg in rest:
        if arg.startswith("--"):
            options[arg] = next(rest)
        else:
            positional.append(arg)
    fmt = options.get("--format", "frac")
    values = _parse_values(cmd, fmt, text)
    if cmd == "bernoulli2":
        key = ("b", n)
    elif cmd == "harmonic":
        key = ("H", n)
    elif cmd == "deriv":
        key = ("deriv", n)
    elif cmd == "stirling1":
        key = ("s", n, int(positional[0])) if positional else ("s_row", n)
    elif cmd == "ank":
        key = ("a", n, int(positional[0]))
    else:
        raise ValueError("no check for subcommand %r" % cmd)
    return Verdict(claims=[(key, digest(values))], values=len(values))


def _check_routes(values):
    verdict = Verdict()
    for key, by_route in values.items():
        distinct = {Fraction(v) for v in by_route.values()}
        if len(distinct) != 1:
            return Verdict(failure="routes disagree on %s: %s" % (list(key), by_route))
        verdict.claims.append((key, digest(distinct)))
        verdict.values += len(by_route)
    return verdict
