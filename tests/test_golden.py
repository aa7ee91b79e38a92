"""Bit-exactness reference for the walk engine.

Each hash is the sha256 of summary_json() + sink_csv() + samples_csv() for
one short run of a coverage variant (n=30, horizon 120 s, sink visits from
20 s, seed 42). A refactor must leave every hash unchanged. A change that
alters published numbers on purpose (for example a new walk rule)
updates the hashes here and records the before and after values in
CHANGES.md.
"""

import hashlib

import pytest

from rawsim import engine
from rawsim.engine import run
from rawsim.experiments import (
    COVERAGE_VARIANTS,
    active_sweep_config,
    apply_param,
    coverage_config,
    exp_active_vs_delta,
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "normal": "6c676c58ffc2cd17e7b2e6f1e5621b91b6d0431df0a91572f30de27852e6207b",
    "small-timeout": "9dacfea4ea236798b664d973498637e54778085c3b24efdb9198dfc76b49ae6e",
    "all-active": "ca406181a7e392231451f96078e79272ea4b90e014fb4e16e2bbd5f25db57a81",
    "dense": "23a2da45b617fa73da293c90324c586e1bb19f3eacaa3aa9b504eb77eb7d7e1e",
}


# Runs whose walk hops land at exactly the times of hellos, launches and
# other hops, which the 0.01 s default latency does not do (times are
# integer ticks, so such ties are exact). These pin that a hop sees the
# hearings of its own tick, and that the deposits of one tick replay in
# one order. Latencies 0.25 and 0.5 divide the hello interval; 1.5 is
# longer than it. Short walks make most of them end in the horizon.
GOLDEN_TIES = {
    ("normal", 0.25, "8"): "ff775af8ad60ee8bf1f9847f7eb25840f73cd92020e9b8d3c7a69f2afc4adc93",
    ("normal", 0.5, "8"): "9a4fe81ca84d969108c2156dd5550c8f7c840666a33d0606b161529a822c2d5b",
    ("normal", 1.5, "15"): "a41fc1482b32f2546b5e9231249638e0f3a9c5a5b68c036098f241302fb7c275",
    ("small-timeout", 0.25, "8"): "5a0a2993200af8eb1b4f9e037066eaa0bd6240b6611097b5a71b13f2c42bd24a",
    ("small-timeout", 0.5, "8"): "1be947484b9075a3c8d555642e90c182683008d97f2888e166ba480f830657cf",
    ("small-timeout", 1.5, "15"): "50a3529005915cc2942aef07f144b0be433b0b0023ecbe10efd96e9076a10f57",
    ("all-active", 0.25, "8"): "cc3ed1e268517f44c3d13ca59870bc106056cfd2858e63115074bcd9a474251e",
    ("all-active", 0.5, "8"): "0b70ab21c61893f26c0cc78f744758a70a379edafdd3c0a8e4f41404e8847826",
    ("all-active", 1.5, "15"): "038ccd54e06fd9491f3aefa54c87ad7fca23f43601cf2979c1911967c9086260",
    ("dense", 0.25, "8"): "b9dbdd31167fd5fa7180676fce40caee7e17615b92f122edbac4ccc263726583",
    ("dense", 0.5, "8"): "609d3b48de37cc4daf0d3ee9a6f0db38f98e8c084f44ceba76f14460d8928fd2",
    ("dense", 1.5, "15"): "9f999e278441feb05e698e82460d65bbf63413d666780fa09048ac61668b95b8",
    # 20 hops of 0.5 s end exactly on the sink's visit ticks, so this pins
    # that a visit collects before the deposits of its own tick
    ("all-active", 0.5, "20"): "6c6dc0c7ec4c3e5f604c660552755d57018de794a110c9f52b2e5ae32e336250",
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
    "0f733f9b80eebef9740f3f0d89237730a984dbd48e5f0a29afedf80a1c37f213"
)


def test_golden_deposits_at_a_visit_tick_are_bit_exact():
    cfg = coverage_config("normal", seed=42).with_updates(
        n=30, horizon_s=120.0, sink_start_s=20.0, rw_length="0",
        timeout_min_s=20.0, timeout_max_s=20.0,
    )
    trace = run(cfg)
    text = trace.summary_json() + trace.sink_csv() + trace.samples_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_FIRST_VISIT_DEPOSITS


# The sorted deposit log (tick, storage, origin) of one normal run: n=100,
# seed 42, horizon 300 s. GOLDEN["normal"] and the normal coverage curve
# can stay the same when the draw each hop takes changes; this log cannot.
GOLDEN_NORMAL_DEPOSITS = "24ec5992e2c6edefc100ba4278436384d590ac062f354bf3d9f88db1de975e1d"


def test_golden_normal_deposit_log_is_bit_exact(monkeypatch):
    logs = []
    real_dispatch = engine.dispatch

    def recording_dispatch(*args):
        walked = real_dispatch(*args)
        logs.append(sorted(walked.deposits))  # a copy: the replay empties the log
        return walked

    monkeypatch.setattr(engine, "dispatch", recording_dispatch)
    trace = run(coverage_config("normal", seed=42).with_updates(horizon_s=300.0))
    assert trace.depositions == len(logs[0]) > 0
    text = "".join(f"{t},{storage},{origin}\n" for t, storage, origin in logs[0])
    assert sha256(text) == GOLDEN_NORMAL_DEPOSITS


# The active-node analysis: a small delta sweep, and a run at delta 0.9
# with zero timeouts, where every phase is 0 and every window edge falls
# exactly on an integer sample time.
GOLDEN_SWEEP = "a0450f5a400291595b37a4b0e3bd467fbf3feee1b623cc88b676778bceaf65fc"
GOLDEN_EDGES = "848cb7e8f2f8c02a4039da99ddbb0cde794058f02a48d4b3904356477ebb16b2"


def test_golden_active_sweep_is_bit_exact():
    assert sha256(exp_active_vs_delta(50, runs=3, seed=42).to_csv()) == GOLDEN_SWEEP


def test_golden_samples_on_window_edges_are_bit_exact():
    cfg = apply_param(active_sweep_config(50, seed=42), "delta", 0.9).with_updates(
        timeout_min_s=0.0, timeout_max_s=0.0
    )
    assert sha256(run(cfg).samples_csv()) == GOLDEN_EDGES
