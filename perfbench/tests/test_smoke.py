"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
        elif parts[0] == "digest":
            printed["digest"] = parts[1]
    return json.loads(last), printed


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload):
    digests = set()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, printed = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            expected["fail_ratio"] = "ratio"
            if workload != "active-sweep":
                expected["events_per_s"] = "1/s"
            for name in ("wall_s", "peak_rss_mb", "setup_s"):
                assert result["metrics"][name]["value"] > 0
        for name, unit in expected.items():
            assert printed.get(name) == unit, name
        digests.add(printed["digest"])
    # tracing must not change what is simulated
    assert len(digests) == 1
