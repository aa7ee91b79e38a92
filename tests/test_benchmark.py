"""The traced benchmark still runs against src/: perfbench wraps rawsim's
layer functions by name and checks one traced hop call per hop event, so a
renamed function or a broken check shows here, not only in the slower
perfbench smoke test."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_traced_benchmark_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-n400", "--seed", "3",
         "--seconds", "0.2", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
