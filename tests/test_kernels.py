import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawsim import dutycycle, kernels
from rawsim.dutycycle import to_ticks
from rawsim.engine import rng_stream

S = 1_000_000  # ticks per second
# 10 s and 0.3 s; a period of 7 ticks makes windows outnumber samples
PERIODS = (10 * S, 3 * S // 10, 7)


def test_active_counts_handles_always_on():
    phases = np.array([0, 0, 3 * S, 5 * S, 200 * S])
    counts = kernels.active_counts(phases, 7 * S, 7 * S, np.arange(0, 101 * S, 50 * S))
    assert counts.tolist() == [2, 4, 4]


def divisors(k):
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


@st.composite
def schedules(draw):
    """(phases, period, t_active, times) in ticks. times is an evenly
    spaced grid of 1 to 300 samples that starts on or next to a window
    edge, or next to 0. Its step divides U or t_active, so that later
    samples land on later edges too, or divides neither."""
    n = draw(st.integers(1, 6))
    period = draw(st.sampled_from(PERIODS))
    t_active = draw(
        st.one_of(
            st.just(period),
            st.integers(1, 9).map(lambda k: max(1, period * k // 10)),
            st.sampled_from((period - 1, 1)),
        )
    )
    phases = draw(
        st.one_of(
            st.lists(st.integers(0, 20).map(lambda k: k * S), min_size=n, max_size=n),
            st.just([0] * n),
            st.lists(st.integers(0, 100).map(lambda k: k * S // 10), min_size=n, max_size=n),
            st.lists(st.integers(0, period), min_size=n, max_size=n),
        )
    )
    # the edge phase + q*U or phase + q*U + t_active of a drawn node
    edge = (
        draw(st.sampled_from(phases))
        + draw(st.integers(0, 40)) * period
        + draw(st.sampled_from((0, t_active)))
    )
    t0 = draw(st.sampled_from((0, edge))) + draw(st.integers(-3, 3))
    neither = [k for k in (7, 13, S // 3 + 1) if period % k and t_active % k]
    step = draw(st.sampled_from(divisors(period) + divisors(t_active) + neither))
    times = t0 + step * np.arange(draw(st.integers(1, 300)))
    return np.array(phases, dtype=np.int64), period, t_active, times


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_active_counts_matches_awake_predicate(schedule):
    phases, period, t_active, times = schedule
    awake = dutycycle.awake_predicate(phases, period, t_active)
    expected = [sum(awake(i, t) for i in range(len(phases))) for t in times.tolist()]
    counts = kernels.active_counts(phases, period, t_active, times)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


def sweep_shape(delta, timeout_max):
    """The sweep's shape: n=400, samples 0..500 s, U = 10 s; returns
    (phases, t_active, times, the per-cell counts)."""
    phases = to_ticks(rng_stream(1, "phases").uniform(0.0, timeout_max, 400))
    times = to_ticks(np.arange(0.0, 501.0))
    t_active = to_ticks(10.0 - 10.0 * delta)
    return phases, t_active, times, kernels.active_counts_per_cell(phases, 10 * S, t_active, times)


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("timeout_max", [0.0, 10.0])
def test_sweep_never_counts_per_cell(monkeypatch, delta, timeout_max):
    """The sweep's shape never falls back to the per-cell count, even when
    every window edge is on a sample, and gives the same counts."""
    phases, t_active, times, expected = sweep_shape(delta, timeout_max)

    def per_cell(*args):
        raise AssertionError("fell back to the per-cell count")

    monkeypatch.setattr(kernels, "active_counts_per_cell", per_cell)
    counts = kernels.active_counts(phases, 10 * S, t_active, times)
    assert counts.tolist() == expected.tolist()


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
def test_sweep_never_searches(monkeypatch, delta):
    """On the sweep's grid every window edge finds its sample index by
    arithmetic, the always-on case (delta 0) included."""
    phases, t_active, times, expected = sweep_shape(delta, 10.0)

    def searchsorted(*args, **kwargs):
        raise AssertionError("searched the sample times")

    monkeypatch.setattr(np, "searchsorted", searchsorted)
    counts = kernels.active_counts(phases, 10 * S, t_active, times)
    assert counts.tolist() == expected.tolist()


def test_active_counts_requires_ascending_times():
    phases = np.zeros(2, dtype=np.int64)
    for times in ([1, 0], [0, 1, 3], [0, 2, 1, 3], [4, 4], [4, 4, 4]):
        with pytest.raises(ValueError, match="ascending"):
            kernels.active_counts(phases, 10, 1, np.array(times))


@pytest.mark.parametrize("t_active", [3, 10])
@pytest.mark.parametrize("t", [-1, 0, 2, 3, 25, 33])
def test_active_counts_on_one_sample(t_active, t):
    phases = np.array([0, 2, 3, 30])
    awake = dutycycle.awake_predicate(phases, 10, t_active)
    counts = kernels.active_counts(phases, 10, t_active, np.array([t]))
    assert counts.tolist() == [sum(awake(i, t) for i in range(4))]
