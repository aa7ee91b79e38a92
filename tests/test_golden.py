"""Bit-exactness reference for the simulator.

Each entry of PINS is one short run of a coverage variant (n=30, horizon
120 s, sink visits from 20 s, seed 42) with its overrides, and the sha256
of oracles.simulated_text for it: the summary() metrics and event counts
as sorted JSON, the sink rows and the sample rows. The config echo of
summary.json is not hashed, so a new config key or summary.json block
moves no entry; test_summary_json_layout pins that layout once, on the
run of PINS["normal"]. The other pins hash the deposit log of one run,
the active-node sweep and samples that fall on window edges.

A refactor must leave every hash unchanged. A change that alters
published numbers on purpose (for example a new walk rule) updates the
hashes here and records the before and after values in CHANGES.md.
"""

import dataclasses
import hashlib
import json

import pytest

import oracles
from rawsim import engine
from rawsim.engine import SimConfig, run
from rawsim.experiments import (
    COVERAGE_VARIANTS,
    active_sweep_config,
    apply_param,
    coverage_config,
    exp_active_vs_delta,
)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


BASE = {"n": 30, "horizon_s": 120.0, "sink_start_s": 20.0}


def ties(latency, rw_length):
    return {"hop_latency_s": latency, "rw_length": rw_length}


# pin id -> (coverage variant, overrides of BASE, sha256 of simulated_text)
#
# The ties runs have walk hops land at exactly the times of hellos,
# launches and other hops, which the 0.01 s default latency does not do
# (times are integer ticks, so such ties are exact). They pin that a hop
# sees the hearings of its own tick, and that the deposits of one tick
# replay in one order. Latencies 0.25 and 0.5 divide the hello interval;
# 1.5 is longer than it. Short walks make most of them end in the horizon.
PINS = {
    "normal": ("normal", {}, "65b1701f400484fd3b1c83a7a9d9867d9c17e7321cb23faf3bc9b3a0e85ffbb8"),
    "small-timeout": ("small-timeout", {}, "72b3bfa5f77e6e9796f9f70368c768da4b2836d047651a1141484732c3aaa825"),
    "all-active": ("all-active", {}, "1a0cdad460bb6f6de2f963a76a43cd1b3747f06007aa8f210673ee497af4be85"),
    "dense": ("dense", {}, "6786da62743718903bde949c8bf1131dabe30d3e8cae29bf181af9d4a65e809e"),
    "normal-0.25-8": ("normal", ties(0.25, "8"), "5cd2e09f4f94eb426b50eb53d5bb3085b580a9076d91d49d00cd16f6dc27a6a3"),
    "normal-0.5-8": ("normal", ties(0.5, "8"), "a772ca67a79953e6512669481d3d05608a9114c630f2ad7a273fe81b00d7b9c7"),
    "normal-1.5-15": ("normal", ties(1.5, "15"), "0ec30d77aefa9ccb6f59ea4d7fc66ebfd9bf4bcd2e4be80d39b2bbefb7acd885"),
    "small-timeout-0.25-8": ("small-timeout", ties(0.25, "8"), "d1296d021338aefbdc17d299b696ec67d66bd38d1703e1bc1251301a1aa3ea46"),
    "small-timeout-0.5-8": ("small-timeout", ties(0.5, "8"), "945e62952dadd8a51c7bc8e680007a830f5207e821939d0e335037761a61923f"),
    "small-timeout-1.5-15": ("small-timeout", ties(1.5, "15"), "a9f4e0dbe672895268a013867b08a4f6523446855e2e74d9f7b5d091a6b8b71e"),
    "all-active-0.25-8": ("all-active", ties(0.25, "8"), "23f9b5a59b427d8a37a733e64040be354d1caf65b1079f90889ff2838226786f"),
    "all-active-0.5-8": ("all-active", ties(0.5, "8"), "1f122ba4c2c399fb0b41c14b86890ab00f25b14fad5699eb64a2a3eb7a50b4f8"),
    "all-active-1.5-15": ("all-active", ties(1.5, "15"), "fb21a0bcbba9d399ded9cf35b72611ead66edd4021448ba24cbb130f317ae0b3"),
    "dense-0.25-8": ("dense", ties(0.25, "8"), "617f9eaa08cc3e729cf042cc901afc1a5b5cc29e57d4f5820475020653ae5305"),
    "dense-0.5-8": ("dense", ties(0.5, "8"), "9560442ede8a523b97ae5caf7241d5b4302b90eadc6dba91cc44ebfee5f9031c"),
    "dense-1.5-15": ("dense", ties(1.5, "15"), "ac7da1a7c8b8991252e20038611575ae12b31b8cdd1f19c788697c4ac9c8a56d"),
    # 20 hops of 0.5 s end exactly on the sink's visit ticks, so this pins
    # that a visit collects before the deposits of its own tick
    "all-active-0.5-20": ("all-active", ties(0.5, "20"), "5d87cde1c0a4c2292b5b47b045d029cd917792d16a09b69cc11980761e835943"),
    # zero-length walks with every phase at the first visit's tick: every
    # first launch deposits at the tick of the first visit
    "first-visit-deposits": (
        "normal",
        {"rw_length": "0", "timeout_min_s": 20.0, "timeout_max_s": 20.0},
        "541a855e4136ec331090aeb0b6e4807ebe6e60366e9671533004993d5ec55ba8",
    ),
}
TIES = [pin for pin, (_, overrides, _) in PINS.items() if "hop_latency_s" in overrides]


def pinned_run(pin):
    variant, overrides, _ = PINS[pin]
    return run(coverage_config(variant, seed=42).with_updates(**BASE, **overrides))


def assert_pinned(pin):
    trace = pinned_run(pin)
    assert trace.sink_report.visits  # the sink part of the text is exercised
    assert sha256(oracles.simulated_text(trace)) == PINS[pin][2]


# one body over the table; the tests split it by kind of run: the
# variants as they are, the ties runs, and first-visit-deposits
@pytest.mark.parametrize("pin", COVERAGE_VARIANTS)
def test_golden_run_is_bit_exact(pin):
    assert_pinned(pin)


@pytest.mark.parametrize("pin", TIES)
def test_golden_equal_time_order_is_bit_exact(pin):
    assert_pinned(pin)


def test_golden_deposits_at_a_visit_tick_are_bit_exact():
    assert_pinned("first-visit-deposits")


# The whole summary.json of PINS["normal"]: a layout change, such as a new
# config key or block, re-records this one pin and none of PINS.
GOLDEN_SUMMARY_JSON = "f386fe6ceee647cd8cd8d108b4b24092d86a2abe3ca77e938cad6b4185cca983"


def test_summary_json_layout():
    text = pinned_run("normal").summary_json()
    payload = json.loads(text)
    assert payload.keys() == {"config", "seed", "metrics", "event_counts", "tick_s"}
    assert payload["config"].keys() == {f.name for f in dataclasses.fields(SimConfig)}
    assert payload["metrics"].keys() == {
        "time_avg_active", "launches", "depositions", "launch_skips",
        "dropped_in_flight", "final_mean_view_size", "coverage", "visits",
    }
    assert payload["event_counts"].keys() == {"hello", "launch", "hop", "visit"}
    assert sha256(text) == GOLDEN_SUMMARY_JSON


def test_simulated_text_ignores_the_config_echo():
    # run never reads replications, so the two runs simulate the same
    # thing and only the config echo of summary.json tells them apart
    one = pinned_run("normal")
    other = run(one.config.with_updates(replications=one.config.replications + 1))
    assert one.summary_json() != other.summary_json()
    assert oracles.simulated_text(one) == oracles.simulated_text(other)


# The sorted deposit log (tick, storage, origin) of one normal run: n=100,
# seed 42, horizon 300 s. PINS["normal"] and the normal coverage curve
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
