"""Record the digests that the benchmark checks large outputs against.

    python3 perfbench/record_digests.py

Runs ``crosscheck --max-n 400 --format json`` and ``probe --max-n 400`` in
every format, checks each value they print against the sympy oracle (b_n for
crosscheck, a(n,k) rows for probe), and only then writes digests.json: the
digest of the b_2..b_400 list, and of each probe output as printed.  Re-run it
only when a deliberate change alters these outputs.
"""

import contextlib
import csv
import hashlib
import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gregory.cli  # noqa: E402

import oracle  # noqa: E402
from workloads import CROSSCHECK_MAX_N, FORMATS, PROBE_MAX_N  # noqa: E402


def cli(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = gregory.cli.main(list(args))
    if rc != 0:
        raise SystemExit("gregory %s exited with %d" % (" ".join(args), rc))
    return out.getvalue()


def probe_rows(fmt, text):
    """{n: [a(n,2), ..., a(n,n+1)]} parsed from one probe output."""
    rows = {}
    if fmt == "json":
        for rec in json.loads(text):
            if rec["method"] != "summary":
                rows[rec["n"]] = rec["value"]
    elif fmt == "csv":
        for kind, n, k, method, value, decimal in list(csv.reader(io.StringIO(text)))[1:]:
            if method != "summary":
                rows.setdefault(int(n), []).append(value)
    else:
        for n, row in re.findall(r"^n=(\d+) row=\[([^\]]*)\]", text, re.M):
            rows[int(n)] = row.split(", ")
    return rows


def main():
    max_n = CROSSCHECK_MAX_N
    records = json.loads(cli("crosscheck", "--max-n", str(max_n), "--format", "json"))
    b = {r["n"]: r["value"] for r in records if r["method"] == "series"}
    keys = [("b", n) for n in range(2, max_n + 1)]
    if [oracle.digest([b[n]]) for n in range(2, max_n + 1)] != oracle.query(keys):
        raise SystemExit("crosscheck values differ from the oracle; nothing recorded")
    digests = {"crosscheck-%d" % max_n: oracle.digest([b[n] for n in range(2, max_n + 1)])}

    keys = [("a_row", n) for n in range(1, PROBE_MAX_N + 1)]
    expected = oracle.query(keys)
    for fmt in FORMATS:
        text = cli("probe", "--max-n", str(PROBE_MAX_N), "--format", fmt)
        rows = probe_rows(fmt, text)
        if [oracle.digest(rows.get(n, [])) for n in range(1, PROBE_MAX_N + 1)] != expected:
            raise SystemExit("probe --format %s rows differ from the oracle; nothing recorded" % fmt)
        digests["probe-%d-%s" % (PROBE_MAX_N, fmt)] = hashlib.sha256(text.encode()).hexdigest()

    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % (HERE / "digests.json"))


if __name__ == "__main__":
    main()
