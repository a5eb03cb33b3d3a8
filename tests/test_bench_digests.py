"""The benchmark's correctness gates, run from the tier-1 suite.

`bench/run.py --workload W --seconds 0 --pool-cycles 2` builds, writes and
verifies the 10 ops of two pool cycles and compares each op's trace bytes
with `bench/digests.json`; `"correct": true` means every op passed and
every digest matched. It runs for `plane` (chain-bound and generic-plane
traces) and `cohen` (pair and many traces up to 192 stages). A traced run
(`--trace 1`) is correct only when, in addition, every layer span the
benchmark expects for the workload was entered, so a refactor that empties
one shows up here. The runs only read `bench/` and remove their working
directory on exit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench(*args):
    run = subprocess.run([sys.executable, "bench/run.py", *args, "--seconds",
                          "0"], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.strip().splitlines()[-1])


def _check_digests(workload):
    result = _bench("--workload", workload, "--pool-cycles", "2")
    assert result["correct"] is True, result
    assert result["attempted"] == 10 and result["failed"] == 0, result


def test_plane_workload_trace_bytes_match_recorded_digests():
    _check_digests("plane")


def test_cohen_workload_trace_bytes_match_recorded_digests():
    _check_digests("cohen")


@pytest.mark.parametrize("workload", ["cohen", "wide", "plane"])
def test_traced_run_is_correct(workload):
    result = _bench("--workload", workload, "--trace", "1",
                    "--pool-cycles", "1")
    assert result["correct"] is True, result
    assert result["attempted"] == 5 and result["failed"] == 0, result
