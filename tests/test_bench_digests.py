"""The plane workload's trace bytes against the benchmark's recorded digests.

`bench/run.py --workload plane --seconds 0 --pool-cycles 2` builds, writes
and verifies the 10 ops of two pool cycles and compares each op's trace
bytes with `bench/digests.json`; `"correct": true` means every op passed
and every digest matched. The run only reads `bench/` and removes its
working directory on exit.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_plane_workload_trace_bytes_match_recorded_digests():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "plane",
         "--seconds", "0", "--pool-cycles", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    assert result["attempted"] == 10 and result["failed"] == 0, result
