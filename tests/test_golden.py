"""Bit-exactness reference for the event engine.

Each hash is the sha256 of summary_json() + sink_csv() + samples_csv() for
one short run of a coverage variant (n=30, horizon 120 s, sink visits from
20 s, seed 42). A refactor must leave every hash unchanged. A change that
alters published numbers on purpose (for example exact integer time)
updates the hashes here and records the before and after values in
CHANGES.md.
"""

import hashlib

import pytest

from rawsim.engine import run
from rawsim.experiments import COVERAGE_VARIANTS, coverage_config

GOLDEN = {
    "normal": "4cc8fd992b9888807a97cd80069796122ae078f2b0c88df82ac8a9a95cc75e9c",
    "small-timeout": "dac9c9c7d422fcf52d2e21c9c00a7858a652092e0e88aad62f987d1036bf2b32",
    "all-active": "1c87042ecf1c394f962a113eb3e4d35171377d985e62a9e97bdab5d1c72c3dd8",
    "dense": "bc2c6902b70b94c08fb113f3f60942fe65ceed192d0c3d7b9bec1bdeafa26286",
}


@pytest.mark.parametrize("variant", COVERAGE_VARIANTS)
def test_golden_run_is_bit_exact(variant):
    cfg = coverage_config(variant, seed=42).with_updates(
        n=30, horizon_s=120.0, sink_start_s=20.0
    )
    trace = run(cfg)
    assert trace.sink_report.visits  # the sink part of the output is exercised
    text = trace.summary_json() + trace.sink_csv() + trace.samples_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[variant]
