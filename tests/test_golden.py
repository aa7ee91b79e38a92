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
    "normal": "e15e96afb3e53d1e1c999e9f08db5b520a69233dfb125af6b1479380238ad6d8",
    "small-timeout": "576a15f3931fdc06900a4c7baf495f8ca64e953acc075ef5342a5ec3be0ea061",
    "all-active": "1c81d1d446bd94cc08b63b203f61b8bc1cca68994ef166cf5f4edba94b318826",
    "dense": "1deed1f7525af727e89ba005af8961293821d7e91aca3df8dbdec38f8d3aba51",
}


# Runs whose walk hops land at exactly the times of hellos, launches and
# other hops, which the 0.01 s default latency does not do (times are
# integer ticks, so such ties are exact). These pin that a hop sees the
# hearings of its own tick, and that the deposits of one tick replay in
# one order. Latencies 0.25 and 0.5 divide the hello interval; 1.5 is
# longer than it. Short walks make most of them end in the horizon.
GOLDEN_TIES = {
    ("normal", 0.25, "8"): "36fd6c1c327dc8078c36a3056142099ebe20821b9ecf923efc09beadbedfa128",
    ("normal", 0.5, "8"): "458e7c43485fe3eb205c4c5c14deda8f252e41023de50ac6af0362ae2919742a",
    ("normal", 1.5, "15"): "60d0e66ef6e9350a902e1106692b30444272353db1bb32b39409e357696932d6",
    ("small-timeout", 0.25, "8"): "9eef5aafa3f884211cf5932ed495926a2aaa1a8c56ed7c2e57002ab50474ee37",
    ("small-timeout", 0.5, "8"): "6ef0ffe881e6ce31e1e6146b049beafffd0b8df28d3e84cdb390d71ad5ec47e6",
    ("small-timeout", 1.5, "15"): "0bb9d50d2393fc77d0011a89abf5c83481b5fb5fb1ee26f007bee4aa1f71ebbd",
    ("all-active", 0.25, "8"): "d1243ac536d1352570622b17fee54778b5fe4e0ecfdea84ffd69318b071d63c9",
    ("all-active", 0.5, "8"): "c992d3341d63d5d2bb563012fadc3942ce615da40a8c1facf6831cde695dac5b",
    ("all-active", 1.5, "15"): "97923cfd56e1db96f2e15b8be82285eef7ff3017c519706aa7c0d4f3dcf37767",
    ("dense", 0.25, "8"): "170a071335cd08a627a783e80e34b65a6cb1cf2202c2695c7acb39da0b3b7e06",
    ("dense", 0.5, "8"): "9ac8617febb8b4e03d0422b67433331e9a37e89fcec31883352ff1e2f88f3288",
    ("dense", 1.5, "15"): "7365cd0f326fa8de3e7236b4f40eb01c97b5fd82d38ba1d6373410c1610522b8",
    # 20 hops of 0.5 s end exactly on the sink's visit ticks, so this pins
    # that a visit collects before the deposits of its own tick
    ("all-active", 0.5, "20"): "321d5bb1bfbb62a71aa3aee55708cf1b872a51e4b11dab443fe69d2c46c936e6",
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
