"""Bit-exactness reference for the event engine.

Each hash is the sha256 of summary_json() + sink_csv() + samples_csv() for
one short run of a coverage variant (n=30, horizon 120 s, sink visits from
20 s, seed 42). A refactor must leave every hash unchanged. A change that
alters published numbers on purpose (for example a new walk rule)
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
    "normal": "e15e96afb3e53d1e1c999e9f08db5b520a69233dfb125af6b1479380238ad6d8",
    "small-timeout": "9fef24ac67980746e38c371ea9190e3389656ce1bd7fc1d7833a6e74b9befe55",
    "all-active": "d0b44b7ca1afb6acbce85c362c565815d455957fa534e3a003f4aef6d21bd7d7",
    "dense": "577f919cbad36c304401167371ea1061cb2a983df0bab643724c5967cee83752",
}


# Runs whose walk hops land at exactly the times of hellos, launches and
# other hops, which the 0.01 s default latency does not do; these pin the
# dispatch order of equal-time events (times are integer ticks, so such
# ties are exact). Latencies 0.25 and 0.5 divide the
# hello interval, so a hop usually ties with events scheduled before it;
# at 1.5 (longer than the hello interval) a hop also ties with hellos
# scheduled after it. Short walks make most of them end in the horizon.
GOLDEN_TIES = {
    ("normal", 0.25, "8"): "b8e1d1034ce8de3a485ebd5fd4168066978cb7912e1a867defa4cebb0606350e",
    ("normal", 0.5, "8"): "c32fd4b55d04af89a35a523ba0925d3a695fda3398280a69ad31a9797bdf0f93",
    ("normal", 1.5, "15"): "f55b6ab8d625d8ea4abefb08207689bba3aaa67554b81e8ea5a3341e1dcf7453",
    ("small-timeout", 0.25, "8"): "e9c8ecc3d7f1165217332af1d3b86526580280d877e7fa2d17382d4c3864b75e",
    ("small-timeout", 0.5, "8"): "fb08443de8832c41502cbf43c0767b1e037cdb0362a521ef5e2161f1bc326c36",
    ("small-timeout", 1.5, "15"): "e645f4aa377f3ac3ce4f11a747216412c42b7ea29217ad8c89079ca0cecf6dbe",
    ("all-active", 0.25, "8"): "d966c37318fde84fc5a71c0484eb2099ae7a8a0cb3e0e8ee3bc6ebe6656d6353",
    ("all-active", 0.5, "8"): "a6959ebc4ef09aa582531ce3b48fccadfef603c24e6f12848984d576f3120c8c",
    ("all-active", 1.5, "15"): "c5a022f2f62bc621a60b5c28dde13058a4991b9033d771af101fc731f7b5dc57",
    ("dense", 0.25, "8"): "f96fa1742b5b4661df676ed3d953aad8f7b3fdef6d7484bd98a6c94a4ab15d4a",
    ("dense", 0.5, "8"): "8b85fb2a890264e62a51b1d156d1a9002ba78b916ba9bea7fe5778ae19c2a049",
    ("dense", 1.5, "15"): "c531a79a73d634ee9e20080d77a29ccced3ccb1cd1b179284bc59c7e87e6bbee",
    # 20 hops of 0.5 s end exactly on the sink's visit ticks, so this pins
    # that a visit collects before the deposits of its own tick
    ("all-active", 0.5, "20"): "fd4979c62d9cba1a3602069f997d9a560d26432130fa4a0b242b33ac38980602",
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


# Zero-length walks with every phase at the first visit's tick: every
# first launch deposits at the tick of the first visit.
GOLDEN_FIRST_VISIT_DEPOSITS = (
    "e25b925f39768773f715bad21b4200e96dd64ab435f90aeee53362332c6508b0"
)


def test_golden_deposits_at_a_visit_tick_are_bit_exact():
    cfg = coverage_config("normal", seed=42).with_updates(
        n=30, horizon_s=120.0, sink_start_s=20.0, rw_length="0",
        timeout_min_s=20.0, timeout_max_s=20.0,
    )
    trace = run(cfg)
    text = trace.summary_json() + trace.sink_csv() + trace.samples_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FIRST_VISIT_DEPOSITS


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
