"""Record the CLI output corpus that ``tests/test_golden.py`` replays.

    python tests/golden/record.py            # add new cases; refuse changed ones
    python tests/golden/record.py --accept   # also overwrite changed digests

Runs every case below in-process and writes ``cli_digests.json``.  A case
whose digest or exit code differs from the recorded one is listed, and the
file is left as it is unless ``--accept`` is given: an accepted change is a
change of the output contract, to be named where the change is described.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import gregory.cli  # noqa: E402
from gregory.bernoulli import ROUTES  # noqa: E402

DIGESTS = HERE / "cli_digests.json"

FORMATS = ([], ["--format", "json"], ["--format", "csv"])
METHODS = (*ROUTES, "all")
MAX_N = 60  # single values and rows
MAX_N_TABLE = 200  # crosscheck and probe


def replay(argv):
    """{"exit", "stdout", "stderr"} of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gregory.cli.main(list(argv))
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def cases():
    """Every argv of the corpus, as lists of strings."""
    for n in range(MAX_N + 1):
        for m in METHODS:
            base = ["bernoulli2", str(n), "--method", m]
            for fmt in FORMATS:
                yield base + fmt
            yield base + ["--digits", "12"]
            yield base + ["--digits", "12", "--format", "json"]
    for n in range(MAX_N + 1):
        for fmt in FORMATS:
            yield ["stirling1", str(n)] + fmt
            yield ["stirling1", str(n), str(n // 2)] + fmt
            yield ["harmonic", str(n)] + fmt
            yield ["harmonic", str(n), "--digits", "20"] + fmt
    for n in range(1, MAX_N + 1):
        for fmt in FORMATS:
            yield ["ank", str(n), str(n // 2 + 2)] + fmt
            yield ["deriv", str(n)] + fmt
    for n in range(1, 13):
        for fmt in FORMATS:
            yield ["deriv", str(n), "2.5"] + fmt
    for fmt in FORMATS:
        yield ["crosscheck", "--max-n", str(MAX_N_TABLE)] + fmt
        yield ["probe", "--max-n", str(MAX_N_TABLE)] + fmt
        yield ["crosscheck", "--max-n", "20", "--digits", "6"] + fmt
        yield ["deriv", "3", "2.0", "--check", "1e-3", "1e-4"] + fmt
        yield ["deriv", "1", "2.0", "--check", "1e-4", "1e-6"] + fmt
        # an argument below its bound, whatever the format
        yield ["harmonic", "3", "--digits", "-1"] + fmt
        yield ["bernoulli2", "3", "--method", "all", "--digits", "-1"] + fmt
        yield ["crosscheck", "--max-n", "5", "--digits", "-1"] + fmt
    # --digits on every subcommand
    yield ["stirling1", "4", "--digits", "3"]
    yield ["bernoulli2", "4", "--digits", "3"]
    yield ["harmonic", "4", "--digits", "3"]
    yield ["ank", "4", "3", "--digits", "3"]
    yield ["crosscheck", "--max-n", "5", "--digits", "3"]
    yield ["probe", "--max-n", "5", "--digits", "3"]
    yield ["bench", "--max-n", "1", "--digits", "3"]  # timings vary: errors only
    yield ["deriv", "2", "--digits", "3"]
    # domain and usage errors
    yield from (
        ["stirling1", "-1"],
        ["stirling1", "3", "5"],
        ["stirling1", "3", "-1"],
        ["bernoulli2", "-1"],
        ["harmonic", "-1"],
        ["ank", "0", "2"],
        ["ank", "4", "1"],
        ["ank", "4", "6"],
        ["crosscheck", "--max-n", "1"],
        ["crosscheck"],
        ["probe", "--max-n", "1"],
        ["bench", "--max-n", "1"],
        ["bench", "--max-n", "3", "--repeat", "0"],
        ["deriv", "0"],
        ["deriv", "1", "1.0"],
        ["deriv", "1", "0.5"],
        ["deriv", "1", "nan"],
        ["deriv", "200", "2.0"],
        ["deriv", "1", "--check", "1e-4", "1e-6"],
        ["deriv", "7", "3.0", "--check", "1e-3", "1e-4"],
        ["deriv", "6", "3.0", "--check", "1e-60", "1e-6"],
        # steps at which the points of a double-precision stencil coincided
        ["deriv", "1", "2", "--check", "5e-324", "1"],
        ["deriv", "1", "2", "--check", "5e-324", "1", "--format", "json"],
        ["deriv", "3", "1.5", "--check", "1e-17", "2"],
        ["deriv", "2", "1e-300"],
        ["deriv", "3", "2.0", "--check", "1e-3", "-1"],
        # the floor's f^(3)(x), not the derivative asked for, is past float range
        ["deriv", "1", "1e300", "--check", "1e299", "1"],
        # a stencil next to the pole, which double precision mis-measured
        ["deriv", "6", "1.0000001", "--check", "1e-9", "1"],
        ["deriv", "6", "1.0000001", "--check", "1e-9", "1", "--format", "json"],
        # --digits past the Decimal exponent range
        ["harmonic", "5", "--digits", "1000000000000000000"],
        ["bernoulli2", "5", "--digits", "1000000000000000000"],
        ["crosscheck", "--max-n", "5", "--digits", "1000000000000000000", "--format", "csv"],
        ["bernoulli2", "x"],
        # argv that names no subcommand first, which the top-level parser
        # reads: each ends in a usage error, whatever follows; but a "--"
        # before a subcommand's name is skipped on every Python release
        [],
        ["nosuch"],
        ["--"],
        ["--", "harmonic", "5"],
        ["-x"],
        ["-x", "harmonic"],
        ["-x", "harmonic", "5"],
        ["-x", "harmonic", "--help"],
        ["NOSUCH", "harmonic"],
        ["--format", "json", "harmonic", "5"],
        # an n past what memory holds
        ["bernoulli2", "1000000000000000"],
        ["bernoulli2", "1000000000000000", "--format", "json"],
        # an n past sys.maxsize, which no list can be indexed by
        ["harmonic", "100000000000000000000"],
        ["bernoulli2", "100000000000000000000"],
        ["bernoulli2", "100000000000000000000", "--method", "nemes"],
        ["bernoulli2", "100000000000000000000", "--method", "all"],
        ["crosscheck", "--max-n", "100000000000000000000"],
        ["bench", "--max-n", "100000000000000000000"],
        # the same n refused by the parser, where a command would run without end
        ["stirling1", "100000000000000000000"],
        ["stirling1", "100000000000000000000", "3"],
        ["ank", "100000000000000000000", "3"],
        ["deriv", "100000000000000000000"],
        ["bernoulli2", "100000000000000000000", "--method", "theorem"],
        ["bernoulli2", "100000000000000000000", "--method", "ank"],
        ["probe", "--max-n", "100000000000000000000"],
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--accept", action="store_true", help="overwrite changed digests")
    args = parser.parse_args()
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    new = {" ".join(argv): replay(argv) for argv in cases()}
    changed = [key for key in new if key in old and old[key] != new[key]]
    for key in changed:
        print("changed: %s" % key)
    for key in old.keys() - new.keys():
        print("dropped: %s" % key)
    print("%d cases, %d new, %d changed" % (len(new), len(new.keys() - old.keys()), len(changed)))
    if changed and not args.accept:
        print("not written: pass --accept to record the changed digests", file=sys.stderr)
        return 1
    text = ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v)) for k, v in new.items())
    DIGESTS.write_text("{\n" + text + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
