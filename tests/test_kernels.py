from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rawsim import dutycycle, kernels
from rawsim.engine import rng_stream

# 9.999999999999998 is the period U = t_active + t_sleep can round to
PERIODS = (10.0, 0.3, 9.999999999999998)


def test_active_counts_handles_always_on():
    phases = np.zeros(5)
    counts = kernels.active_counts(phases, 7.0, 7.0, np.array([0.0, 3.0, 100.0]))
    assert np.asarray(counts).tolist() == [5, 5, 5]


@st.composite
def schedules(draw):
    """(phases, period, t_active, times) with many samples on or next to
    a window edge."""
    n = draw(st.integers(1, 6))
    period = draw(st.sampled_from(PERIODS))
    t_active = draw(
        st.one_of(
            st.just(period),
            st.integers(1, 9).map(lambda k: period * k / 10),
            st.sampled_from((period - 1e-12, 1e-12)),
        )
    )
    phases = draw(
        st.one_of(
            st.lists(st.integers(0, 20).map(float), min_size=n, max_size=n),
            st.just([0.0] * n),
            st.lists(st.integers(0, 100).map(lambda k: k * 0.1), min_size=n, max_size=n),
            st.lists(st.floats(0.0, period), min_size=n, max_size=n),
        )
    )
    kind = draw(st.sampled_from(("arange", "linspace", "edges")))
    if kind == "arange":
        step = draw(st.sampled_from((1.0, 0.5, 0.1)))
        times = np.arange(0.0, draw(st.integers(1, 100)), step)
    elif kind == "linspace":
        times = np.linspace(0.0, draw(st.integers(1, 100)), draw(st.integers(1, 300)))
    else:
        # every window edge, phase + q*U and that plus t_active as the
        # kernel adds them, all moved by the same few ulps; some twice
        q = np.arange(draw(st.integers(1, 40)))[:, None]
        starts = (np.array(phases) + q * period).ravel()
        times = np.concatenate([starts, starts + t_active])
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            times = np.nextafter(times, np.copysign(np.inf, ulps))
        repeats = draw(st.integers(0, times.shape[0]))
        times = np.sort(np.concatenate([times, times[:repeats]]))
    return np.array(phases), period, t_active, times


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_active_counts_matches_awake_predicate(schedule):
    phases, period, t_active, times = schedule
    awake = dutycycle.awake_predicate(
        phases, SimpleNamespace(period=period, t_active=t_active)
    )
    expected = [sum(awake(i, t) for i in range(len(phases))) for t in times.tolist()]
    counts = kernels.active_counts(phases, period, t_active, times)
    assert counts.dtype == np.int64
    assert counts.tolist() == expected


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("timeout_max", [0.0, 10.0])
def test_sweep_never_counts_per_cell(monkeypatch, delta, timeout_max):
    """The sweep's shape (n=400, samples 0..500 s, U = 10 s) never falls
    back to the per-cell count, even when every window edge is on a
    sample, and gives the same counts."""
    phases = rng_stream(1, "phases").uniform(0.0, timeout_max, 400)
    times = np.arange(0.0, 501.0)
    t_active = 10.0 - 10.0 * delta
    expected = kernels.active_counts_per_cell(phases, 10.0, t_active, times)

    def per_cell(*args):
        raise AssertionError("fell back to the per-cell count")

    monkeypatch.setattr(kernels, "active_counts_per_cell", per_cell)
    counts = kernels.active_counts(phases, 10.0, t_active, times)
    assert counts.tolist() == expected.tolist()


def test_active_counts_requires_ascending_times():
    with pytest.raises(ValueError, match="ascending"):
        kernels.active_counts(np.zeros(2), 10.0, 1.0, np.array([1.0, 0.0]))
