"""Benchmark for gregory: one workload per run, or all four with ``--workload all``.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 24 --trace 0

One process, one thread, a closed loop with one caller: each operation starts
after the previous one has finished and been checked.  Inputs come from the
seed; every output is checked against digests recorded when the benchmark was
defined (digests.json) or against the sympy oracle (oracle.py), which runs in
its own process after the timed loop so that it never adds to peak memory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
operation twice, back to back, once untraced and once with every layer
wrapped (tracing.py), alternating which goes first; it reports the per-layer
metrics of the traced runs.  Both runs of an operation must print the same
output, and their time ratio gives the tracing overhead.  The last line of
stdout is the JSON result.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("crosscheck", "cli-queries", "probe-rows", "stirling-routes")
SETUP_RUNS = 8  # before the timed loop, and again after it
SETUP_SNIPPET = """\
import contextlib, io, time
t0 = time.perf_counter()
import gregory.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = gregory.cli.main(["harmonic", "1"])
elapsed = time.perf_counter() - t0
assert rc == 0 and out.getvalue().split() == ["1"], (rc, out.getvalue())
print(elapsed)
"""
END_TO_END = {
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "throughput_ops_s": ("1/s", "higher"),
    "values_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


@dataclass
class Record:
    op: object
    elapsed: float
    digest: str
    verdict: object
    failure: str = None


def setup_times(runs):
    """Times for ``runs`` fresh interpreters to import gregory.cli and run one
    trivial command (``harmonic 1``), which every CLI invocation pays before
    its own work, each measured inside the child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(out.stdout))
    return times


def run_op(op, tracer=None):
    from workloads import check, execute

    if tracer is None:
        elapsed, outcome = execute(op)
    else:
        with tracer.enabled():
            elapsed, outcome = tracer.run(execute, op, tracer.charge_harness)
    verdict = check(op, outcome)
    return Record(op, elapsed, outcome.digest, verdict, verdict.failure)


def run_blocks(blocks, seconds, step):
    """Call step(op) for every op of whole blocks until ``seconds`` of wall
    time have passed."""
    start = perf_counter()
    for block in blocks:
        for op in block:
            step(op)
        if perf_counter() - start >= seconds:
            break


def verify(records):
    """Resolve every claim against digests.json and the oracle; marks failures."""
    import oracle

    recorded = json.loads((HERE / "digests.json").read_text())
    keys = sorted({key for r in records for key, _ in r.verdict.claims if key[0] != "recorded"})
    expected = dict(zip(keys, oracle.query(keys)))
    for key in {key for r in records for key, _ in r.verdict.claims if key[0] == "recorded"}:
        expected[key] = recorded.get(key[1])
    for r in records:
        if r.failure is None:
            wrong = [key for key, got in r.verdict.claims if got != expected[key]]
            if wrong:
                r.failure = "value differs from the expected digest: %s" % list(wrong[0])


def environment(seed):
    compiled = sorted(
        name
        for name, module in sys.modules.items()
        if name.startswith("gregory")
        and (getattr(module, "__file__", None) or "").endswith((".so", ".pyd"))
    )
    return {
        "seed": seed,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "compiled_kernel_modules": compiled,
    }


def end_to_end_metrics(records, setup_s, peak_rss_mb):
    durations = [r.elapsed for r in records]
    busy = sum(durations)
    if len(durations) > 1:
        p90 = statistics.quantiles(durations, n=10, method="inclusive")[-1]
    else:
        p90 = durations[0]
    verified = sum(r.verdict.values for r in records if r.failure is None)
    return {
        "latency_p50_s": statistics.median(durations),
        "latency_p90_s": p90,
        "throughput_ops_s": len(durations) / busy,
        "values_per_s": verified / busy,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
    }


def run_workload(args):
    import tracing
    import workloads

    blocks = workloads.stream(args.workload, args.seed)
    info = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = [], []

        def paired(op):
            if len(plain) % 2:
                traced.append(run_op(op, tracer))
                plain.append(run_op(op))
            else:
                plain.append(run_op(op))
                traced.append(run_op(op, tracer))
            if traced[-1].failure is None and traced[-1].digest != plain[-1].digest:
                traced[-1].failure = "traced output differs from untraced output"

        run_blocks(blocks, args.seconds, paired)
        ops = [r.op for r in plain]
        records = plain + traced
        metrics = tracer.metrics(len(traced))
        # Bit scans and wrapping the tables run outside every span, so they
        # are left out.  Read tracking runs inside the spans of the functions
        # that read the tables and stays in: the figure is the distortion
        # that traced self times carry.
        traced_s = sum(r.elapsed for r in traced) - tracer.instrument_s
        metrics["trace_overhead_frac"] = traced_s / sum(r.elapsed for r in plain) - 1
        units = tracing.metric_units()
        info["notes"] = tracer.notes
    else:
        # The machine's speed drifts within seconds, so set-up is sampled on
        # both sides of the timed loop; the first run fills the bytecode
        # cache and is discarded.
        setup = setup_times(SETUP_RUNS + 1)[1:]
        records = []
        run_blocks(blocks, args.seconds, lambda op: records.append(run_op(op)))
        setup_s = statistics.median(setup + setup_times(SETUP_RUNS))
        ops = [r.op for r in records]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end_metrics(records, setup_s, peak_rss_mb)
        units = END_TO_END
    verify(records)

    failures = [r for r in records if r.failure is not None]
    info["operations"] = len(records)
    info["failed_frac"] = len(failures) / len(records)
    info["first_failures"] = ["%s: %s" % (r.op.args, r.failure) for r in failures[:5]]
    if args.workload == "cli-queries":
        info["repeat_share"] = workloads.repeat_share(ops)
    print(json.dumps(info))
    for name, value in metrics.items():
        print("%-44s %16.6g %-6s (%s is better)" % (name, value, units[name][0], units[name][1]))
    print("%-44s %16.6g %-6s (lower is better)" % ("failed_frac", info["failed_frac"], "ratio"))
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, so that peak memory is per workload."""
    results = {}
    for workload in WORKLOAD_NAMES:
        argv = ["--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve())] + argv,
            stdout=subprocess.PIPE,
            text=True,
            timeout=900,
        )
        print("== %s" % workload)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gregory" / "__init__.py").is_file():
        print("error: gregory sources not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
