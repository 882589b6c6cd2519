"""Self-checks for the benchmark harness.

    python3 -m pytest perfbench/test_harness.py

They use small inputs, so the whole file runs in about half a minute.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gregory.cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# Small operations whose every value the oracle can check.
SMALL_OPS = [
    Op("cli", ("stirling1", "25", "--format", "json")),
    Op("cli", ("stirling1", "18", "--format", "frac")),
    Op("cli", ("deriv", "14", "--format", "csv")),
    Op("cli", ("deriv", "9")),
    Op("cli", ("bernoulli2", "20", "--method", "ank")),
    Op("cli", ("bernoulli2", "33", "--method", "series")),
    Op("cli", ("ank", "20", "5")),
    Op("cli", ("harmonic", "30")),
    Op("cli", ("stirling1", "20", "7")),
    Op("routes", (40, (2, 20))),
    Op("routes", (23, (5, 11, 17))),
    Op("session", (("stirling1", "21", "--format", "csv"), ("deriv", "12", "--format", "csv"))),
]


def checked(op, corrupt=None):
    """Run op, optionally corrupt its output, check it, resolve its claims."""
    _, outcome = workloads.execute(op)
    if corrupt is not None:
        corrupt(outcome)
    verdict = workloads.check(op, outcome)
    record = run.Record(op, 0.0, outcome.digest, verdict, verdict.failure)
    run.verify([record])
    return record


def bump_last_digit(outcome):
    if outcome.parts is not None:
        bump_last_digit(outcome.parts[-1])
        return
    if outcome.values is not None:
        next(d for key, d in outcome.values.items() if key[0] == "s")["triangle"] += 1
        return
    text = outcome.text
    i = max(i for i, c in enumerate(text) if c.isdigit())
    outcome.text = text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


def first_blocks(workload, seed, count=3):
    return list(itertools.islice(workloads.stream(workload, seed), count))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_the_same_operation_stream(workload):
    assert first_blocks(workload, 7) == first_blocks(workload, 7)
    if workload != "crosscheck":
        assert first_blocks(workload, 7) != first_blocks(workload, 8)


def test_correct_outputs_pass():
    for op in SMALL_OPS:
        record = checked(op)
        assert record.failure is None, (op, record.failure)
        assert record.verdict.values > 0


@pytest.mark.parametrize("op", SMALL_OPS, ids=str)
def test_a_corrupted_value_is_a_failure(op):
    assert checked(op, bump_last_digit).failure is not None


def test_a_corrupted_crosscheck_column_is_a_failure():
    op = Op("cli", ("crosscheck", "--max-n", "12", "--format", "json"))
    _, outcome = workloads.execute(op)
    records = json.loads(outcome.text)
    ank = next(r for r in records if r["method"] == "ank" and r["n"] == 7)
    ank["value"] = "1/3"
    outcome.text = json.dumps(records)
    assert "differs" in workloads.check(op, outcome).failure


def test_an_error_exit_is_a_failure():
    record = checked(Op("cli", ("bernoulli2", "1", "--method", "theorem")))
    assert "exit code 1" in record.failure


def test_traced_and_untraced_runs_emit_the_same_values():
    ops = SMALL_OPS + [
        Op("cli", ("crosscheck", "--max-n", "30", "--format", "json")),
        Op("cli", ("probe", "--max-n", "15", "--format", "csv")),
    ]
    original_main = gregory.cli.main
    tracer = tracing.Tracer()
    for op in ops:
        _, plain = workloads.execute(op)
        with tracer.enabled():
            assert gregory.cli.main is not original_main
            _, traced = tracer.run(workloads.execute, op)
        assert traced.digest == plain.digest, op
    assert gregory.cli.main is original_main
    metrics = tracer.metrics(len(ops))
    assert not tracer.notes
    calls = sum(len(op.args) if op.name == "session" else op.name == "cli" for op in ops)
    assert metrics["cli.main.calls"] == calls / len(ops)
    assert metrics["kernels.series_div_pairs.calls"] > 0
    assert 0 < metrics["stirling.rows_used_ratio"] <= 1


def test_sink_time_is_harness_time_not_operation_time():
    op = Op("cli", ("probe", "--max-n", "40", "--format", "json"))
    charged = []
    elapsed, _ = workloads.execute(op, charged.append)
    assert charged and elapsed > 0
    tracer = tracing.Tracer()
    traced = []

    def charge(seconds):
        traced.append(seconds)
        tracer.charge_harness(seconds)

    with tracer.enabled():
        tracer.run(workloads.execute, op, charge)
    assert len(traced) == len(charged)
    assert tracer.harness_self_s >= sum(traced)


def test_a_missing_hook_is_a_note_not_a_crash():
    hooks = tracing.HOOKS + (
        ("kernels", "gregory._kernels", "no_such_kernel", True),
        ("gone", "gregory.no_such_module", "anything", False),
    )
    tracer = tracing.Tracer(hooks)
    op = Op("cli", ("bernoulli2", "12", "--method", "series"))
    with tracer.enabled():
        _, outcome = tracer.run(workloads.execute, op)
    assert outcome.rc == 0
    assert len(tracer.notes) == 2
    metrics = tracer.metrics(1)
    assert "kernels.no_such_kernel.calls" not in metrics
    assert metrics["kernels.series_div_pairs.calls"] == 1


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == tracing.metric_units()


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_prints_the_result_line(trace):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args = ["--workload", "stirling-routes", "--seed", "3", "--seconds", "1", "--trace", trace]
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py")] + args,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "crosscheck", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py"] + args,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
