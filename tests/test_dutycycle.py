import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawsim.dutycycle import (
    DutyCycleConfig,
    active_counts,
    awake_predicate,
    config_for_delta,
    delta,
    delta_for_target,
    draw_phases,
    expected_active,
)
from rawsim.engine import rng_stream
from rawsim.errors import InvalidConfigError


def test_delta_values():
    assert delta(1, 9) == 0.9
    assert delta(5, 0) == 0.0
    assert delta(2, 2) == 0.5


def test_delta_rejects_bad_inputs():
    with pytest.raises(InvalidConfigError):
        delta(0, 5)
    with pytest.raises(InvalidConfigError):
        delta(1, -1)


def test_config_invariants():
    cfg = DutyCycleConfig(t_active=1.0, t_sleep=9.0)
    assert cfg.period == 10.0
    assert cfg.delta == 0.9
    assert cfg.timeout_max == 10.0  # defaults to the period
    with pytest.raises(InvalidConfigError):
        DutyCycleConfig(t_active=0.0, t_sleep=1.0)
    with pytest.raises(InvalidConfigError):
        DutyCycleConfig(t_active=1.0, t_sleep=1.0, timeout_min=5.0, timeout_max=2.0)


def test_config_for_delta_rejects_full_sleep():
    with pytest.raises(InvalidConfigError):
        config_for_delta(1.0, 10.0)
    cfg = config_for_delta(0.9, 10.0)
    assert cfg.t_active == pytest.approx(1.0)
    assert cfg.t_sleep == pytest.approx(9.0)


def test_awake_predicate_examples():
    cfg = DutyCycleConfig(t_active=1.0, t_sleep=9.0, timeout_max=20.0)
    awake = awake_predicate(np.array([0.0, 3.0, 12.0]), cfg)
    assert not awake(1, 2.0)   # before its phase, a node is not awake
    # nor when the window arithmetic alone would say so: (2.5 - 12) % 10 = 0.5
    assert not awake(2, 2.5)
    assert awake(0, 0.5)
    assert not awake(0, 5.0)
    assert awake(0, 10.5)      # period U = 10


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.1, 10),
    st.floats(0, 10),
    st.floats(0, 20),
    st.floats(0, 100),
)
def test_awake_predicate_is_pure_and_periodic(t_active, t_sleep, phase, t):
    cfg = DutyCycleConfig(t_active=t_active, t_sleep=t_sleep, timeout_max=20.0)
    awake = awake_predicate(np.array([phase]), cfg)
    state = awake(0, t)
    assert awake(0, t) == state
    if t < phase:
        assert not state
    else:
        # periodicity, checked away from window boundaries where float
        # rounding of the modulo can flip the state
        offset = (t - phase) % cfg.period
        eps = 1e-9 * max(1.0, t + cfg.period)
        boundaries = (0.0, cfg.t_active, cfg.period)
        if all(abs(offset - b) > eps for b in boundaries):
            assert state == (offset < cfg.t_active)
            assert awake(0, t + cfg.period) == state


def test_long_run_active_fraction_exact_over_whole_periods():
    cfg = DutyCycleConfig(t_active=1.0, t_sleep=9.0)
    phase = 4.0
    awake = awake_predicate(np.array([phase]), cfg)
    # integrate on a fine grid over 20 whole periods past the phase
    dt = 0.001
    ts = np.arange(phase, phase + 20 * cfg.period, dt)
    frac = np.mean([awake(0, t) for t in ts])
    assert frac == pytest.approx(cfg.t_active / cfg.period, abs=0.001)


def test_expected_active_values():
    assert expected_active(100, 0.9) == pytest.approx(10.0)
    assert expected_active(400, 0.9) == pytest.approx(40.0)
    assert expected_active(123, 0.0) == 123.0


def test_delta_for_target_values():
    assert delta_for_target(100, 10) == pytest.approx(0.9)
    assert delta_for_target(50, 50) == 0.0
    assert delta_for_target(300, math.ceil(math.sqrt(300))) == pytest.approx(0.94)
    with pytest.raises(InvalidConfigError):
        delta_for_target(10, 0)
    assert delta_for_target(10, 10) == 0.0


def test_population_matches_expectation_over_replications():
    # time-averaged active count over one period after all phases expire
    n = 100
    frac = 0.9
    cfg = config_for_delta(frac, 10.0)
    averages = []
    for rep in range(15):
        phases = draw_phases(n, cfg, rng_stream(100 + rep, "phases"))
        times = np.arange(cfg.timeout_max, cfg.timeout_max + cfg.period, 0.05)
        averages.append(active_counts(phases, cfg, times).mean())
    sigma = math.sqrt(n * frac * (1 - frac))
    assert abs(np.mean(averages) - expected_active(n, frac)) <= 3 * sigma


def test_active_counts_matches_awake_predicate():
    cfg = DutyCycleConfig(t_active=2.0, t_sleep=3.0, timeout_max=5.0)
    phases = draw_phases(8, cfg, rng_stream(9, "phases"))
    awake = awake_predicate(phases, cfg)
    times = np.linspace(0.0, 30.0, 61)
    counts = active_counts(phases, cfg, times)
    for t, count in zip(times, counts):
        manual = sum(awake(i, t) for i in range(len(phases)))
        assert manual == count
