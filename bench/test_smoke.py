"""Smoke test of the benchmark itself (a few ops per workload).

    python3 -m pytest -q bench/test_smoke.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that a clean run has no failed op, that a corrupted trace counts as
exactly one failed op, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "0", "--pool-cycles", "1",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def assert_metrics(result, text, listed):
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    table = text.splitlines()[:-1]
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in table), name


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    result, text = result_of(bench("--workload", workload, "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
    assert_metrics(result, text, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_traced_run_prints_every_layer_metric(workload):
    # correct also means: traced trace bytes equal the untraced ones, and no
    # span the workload exists to exercise reads zero
    result, text = result_of(bench("--workload", workload, "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, text, SPEC["per_layer"])


@pytest.mark.parametrize("workload", ["cohen", "plane"])
def test_corrupted_trace_counts_as_one_failed_op(workload):
    result, _ = result_of(bench("--workload", workload, "--corrupt-op", "1"))
    assert result["attempted"] == 5
    assert result["failed"] == 1
    assert not result["correct"]


def test_inputs_are_a_function_of_the_seed():
    a = workloads.generate("cohen", 7, 2)
    b = workloads.generate("cohen", 7, 2)
    c = workloads.generate("cohen", 8, 2)
    assert [(o.family, o.payload) for o in a] == [(o.family, o.payload) for o in b]
    assert [o.payload for o in a] != [o.payload for o in c]
    # a smaller pool is a prefix of a larger one
    assert [o.payload for o in workloads.generate("cohen", 7, 1)] == \
        [o.payload for o in a[:5]]


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "cohen", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
