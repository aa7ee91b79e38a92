import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rawsim.dissemination import pick_next
from rawsim.dutycycle import TICK_S, Schedule, draw_phases, to_ticks
from rawsim.engine import SimConfig, rng_stream
from rawsim.errors import InvalidConfigError
from rawsim.experiments import apply_param
from rawsim.kernels import active_counts

S = 1_000_000  # ticks per second


def checked_awake(phases, period, t_active):
    """oracles.awake_predicate, held at every call to the scalar copy of the
    rule in src: pick_next on a one-entry table moves iff the node is
    awake (-1 holds the walk). The vector copy, kernels.awake, is held to
    the reference by test_kernels and test_dissemination."""
    reference = oracles.awake_predicate(phases, period, t_active)
    schedule = Schedule(np.asarray(phases, dtype=np.int64).tolist(), period, t_active)

    def awake(node, t):
        state = reference(node, t)
        assert (pick_next(-1, [node], schedule, t, 0.0) == node) == state
        return state

    return awake


def test_delta_rejects_bad_inputs():
    # the sleep fraction t_sleep / (t_active + t_sleep) needs both in range
    with pytest.raises(InvalidConfigError):
        SimConfig(t_active_s=0.0, t_sleep_s=5.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(t_active_s=1.0, t_sleep_s=-1.0)


def test_config_invariants():
    cfg = SimConfig(t_active_s=1.0, t_sleep_s=9.0)
    assert cfg.period == 10.0
    assert cfg.t_sleep_s / cfg.period == 0.9
    assert cfg.resolved_timeout_max() == 10.0  # defaults to the period
    with pytest.raises(InvalidConfigError):
        SimConfig(t_active_s=0.0, t_sleep_s=1.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(t_active_s=1.0, t_sleep_s=1.0, timeout_min_s=5.0, timeout_max_s=2.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(timeout_min_s=-1.0)


def test_apply_param_delta_rejects_full_sleep():
    cfg = SimConfig(t_active_s=5.0, t_sleep_s=5.0)
    with pytest.raises(InvalidConfigError):
        apply_param(cfg, "delta", 1.0)
    swept = apply_param(cfg, "delta", 0.9)
    assert swept.t_active_s == pytest.approx(1.0)
    assert swept.t_sleep_s == pytest.approx(9.0)


def test_to_ticks_rounds_to_whole_microseconds():
    assert TICK_S == 1e-6
    assert to_ticks(1.0) == S and type(to_ticks(1.0)) is int
    assert to_ticks(0.01) == 10_000  # 0.01 * 1e6 is 10000.000000000002
    assert to_ticks(0.1 + 0.2) == 300_000
    assert to_ticks(9.999999999999998) == 10 * S
    assert to_ticks(4e-7) == 0 and to_ticks(6e-7) == 1
    assert to_ticks(2.5e-6) == 2  # half to even, as np.rint
    ticks = to_ticks(np.array([0.0, 0.1, 7.3]))
    assert ticks.dtype == np.int64 and ticks.tolist() == [0, 100_000, 7_300_000]
    with pytest.raises(InvalidConfigError):
        to_ticks(1e300)


def test_awake_predicate_examples():
    awake = checked_awake(np.array([0, 3 * S, 12 * S]), 10 * S, S)
    assert not awake(1, 2 * S)   # before its phase, a node is not awake
    # nor when the window arithmetic alone would say so: (2.5 - 12) % 10 = 0.5
    assert not awake(2, 5 * S // 2)
    assert awake(0, S // 2)
    assert not awake(0, 5 * S)
    assert awake(0, 10 * S + S // 2)  # period U = 10 s
    # window edges are exact: awake at a window start, asleep at its end
    assert awake(1, 3 * S) and awake(1, 13 * S) and awake(1, 4 * S - 1)
    assert not awake(1, 4 * S) and not awake(1, 13 * S - 1)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 10 * S),
    st.integers(0, 10 * S),
    st.integers(0, 20 * S),
    st.integers(-2, 50),
    st.sampled_from((-1, 0, 1)),
    st.integers(0, 100 * S),
)
def test_awake_predicate_is_pure_and_periodic(t_active, t_sleep, phase, q, shift, t):
    period = t_active + t_sleep
    awake = checked_awake(np.array([phase]), period, t_active)
    # besides any t, a window edge or a tick next to one
    for when in (t, phase + q * period + shift, phase + q * period + t_active + shift):
        state = awake(0, when)
        assert awake(0, when) == state
        if when < phase:
            assert not state
        else:
            # periodicity holds exactly, on window edges too
            assert state == ((when - phase) % period < t_active)
            assert awake(0, when + period) == state


def test_long_run_active_fraction_exact_over_whole_periods():
    phase, period, t_active = 4 * S, 10 * S, S
    awake = checked_awake(np.array([phase]), period, t_active)
    # every millisecond over 20 whole periods past the phase
    ts = range(phase, phase + 20 * period, 1000)
    frac = np.mean([awake(0, t) for t in ts])
    assert frac == t_active / period


def test_population_matches_expectation_over_replications():
    # time-averaged active count over one period after all phases expire
    n = 100
    frac = 0.9
    cfg = apply_param(SimConfig(n=n), "delta", frac)
    lo, hi = cfg.timeout_min_s, cfg.resolved_timeout_max()
    averages = []
    for rep in range(15):
        phases = to_ticks(draw_phases(n, lo, hi, rng_stream(100 + rep, "phases")))
        times = to_ticks(np.arange(hi, hi + cfg.period, 0.05))
        period, t_active = to_ticks(cfg.period), to_ticks(cfg.t_active_s)
        counts = active_counts(phases, period, t_active, times)
        averages.append(counts.mean())
    sigma = math.sqrt(n * frac * (1 - frac))
    assert abs(np.mean(averages) - (1 - frac) * n) <= 3 * sigma


def test_active_counts_matches_awake_predicate():
    phases = to_ticks(draw_phases(8, 0.0, 5.0, rng_stream(9, "phases")))
    awake = checked_awake(phases, 5 * S, 2 * S)
    times = to_ticks(np.linspace(0.0, 30.0, 61))
    counts = active_counts(phases, 5 * S, 2 * S, times)
    for t, count in zip(times.tolist(), counts):
        manual = sum(awake(i, t) for i in range(len(phases)))
        assert manual == count
