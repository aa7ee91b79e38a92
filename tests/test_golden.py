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
from rawsim.experiments import (
    COVERAGE_VARIANTS,
    active_sweep_config,
    apply_param,
    coverage_config,
    exp_active_vs_delta,
)

GOLDEN = {
    "normal": "4cc8fd992b9888807a97cd80069796122ae078f2b0c88df82ac8a9a95cc75e9c",
    "small-timeout": "dac9c9c7d422fcf52d2e21c9c00a7858a652092e0e88aad62f987d1036bf2b32",
    "all-active": "1c87042ecf1c394f962a113eb3e4d35171377d985e62a9e97bdab5d1c72c3dd8",
    "dense": "bc2c6902b70b94c08fb113f3f60942fe65ceed192d0c3d7b9bec1bdeafa26286",
}


# Runs whose walk hops land at exactly the times of hellos, launches and
# other hops, which the 0.01 s default latency does not do; these pin the
# dispatch order of equal-time events. Latencies 0.25 and 0.5 divide the
# hello interval, so a hop usually ties with events scheduled before it;
# at 1.5 (longer than the hello interval) a hop also ties with hellos
# scheduled after it. Short walks make most of them end in the horizon.
GOLDEN_TIES = {
    ("normal", 0.25, "8"): "8f09391bcc944467f0b226c959317a8bce643f2089507ff2a8eca8b7af9e7af7",
    ("normal", 0.5, "8"): "4b683ad8db797852022687e38a5887b529408077bef1e74f2cc0ea341634f01b",
    ("normal", 1.5, "15"): "cc1b93c6fd9bff304a2a2105adf675045145336f0baac30488fa910c92c5a9fe",
    ("small-timeout", 0.25, "8"): "5a551028edeecdd69a5cbe03914bd1ed26fb433ce644fb6d4aabb2bdb4c3ccba",
    ("small-timeout", 0.5, "8"): "b36e819f19941af40acb05f3a98e0c2ee57a5b90af0291e545b7750b62090ab0",
    ("small-timeout", 1.5, "15"): "4b7ad9378a5a1c31c1dfadb1e16367edd1350c34e315671d0d3f2ef7c979c71e",
    ("all-active", 0.25, "8"): "1b34dbc483216f7c4e95821bdc760f956bfa45f5fb770c2e378479add9acf61c",
    ("all-active", 0.5, "8"): "fe01714ad3c2dc3c522c333185e0ee4684b294e3523648707a43dbc3d5d40c63",
    ("all-active", 1.5, "15"): "6bb166707866ac5b954e347f63e3cc4ef1c8e3dccc8a9142dbc8423ba61ce7e4",
    ("dense", 0.25, "8"): "f463f178b330afca85d7db25bc906e4dfdb369e3526f9d51cf58f8c8a2081385",
    ("dense", 0.5, "8"): "8ded475d5a879a67d030cae4d5458b405e4a1a73f9d9605431e8efbad82bd81e",
    ("dense", 1.5, "15"): "cece3452cb00a983e244bed303e6596d75cff23381a66fe782a9fd1846f8e062",
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


@pytest.mark.parametrize("variant, latency, rw_length", sorted(GOLDEN_TIES))
def test_golden_equal_time_order_is_bit_exact(variant, latency, rw_length):
    cfg = coverage_config(variant, seed=42).with_updates(
        n=30, horizon_s=120.0, sink_start_s=20.0, hop_latency_s=latency, rw_length=rw_length
    )
    trace = run(cfg)
    text = trace.summary_json() + trace.sink_csv() + trace.samples_csv()
    expected = GOLDEN_TIES[(variant, latency, rw_length)]
    assert hashlib.sha256(text.encode()).hexdigest() == expected


# The active-node analysis: a small delta sweep, and a run at delta 0.9
# with zero timeouts, where every phase is 0 and every window edge falls
# exactly on an integer sample time.
GOLDEN_SWEEP = "a0450f5a400291595b37a4b0e3bd467fbf3feee1b623cc88b676778bceaf65fc"
GOLDEN_EDGES = "848cb7e8f2f8c02a4039da99ddbb0cde794058f02a48d4b3904356477ebb16b2"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_active_sweep_is_bit_exact():
    assert sha256(exp_active_vs_delta(50, runs=3, seed=42).to_csv()) == GOLDEN_SWEEP


def test_golden_samples_on_window_edges_are_bit_exact():
    cfg = apply_param(active_sweep_config(50, seed=42), "delta", 0.9).with_updates(
        timeout_min_s=0.0, timeout_max_s=0.0
    )
    assert sha256(run(cfg).samples_csv()) == GOLDEN_EDGES
