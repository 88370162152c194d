"""The benchmark harness's own traced self-check, run against the library.

The tracer wraps the library's public functions by name and checks that
every declared metric is present and that counts repeat across traced ops,
so a library change that breaks the benchmark fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_self_check_passes():
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "0",
            "--seconds", "0", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["correct"]
    # the scalar solves of a sweep reach their fine level through
    # solve_ground_state, so the tracer counts their iterations
    assert result["metrics"]["sweep-cli/experiments.scalar_iters"]["value"] > 0
