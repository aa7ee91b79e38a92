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
    phases = np.zeros(5, dtype=np.int64)
    counts = kernels.active_counts(phases, 7 * S, 7 * S, np.array([0, 3 * S, 100 * S]))
    assert np.asarray(counts).tolist() == [5, 5, 5]


@st.composite
def schedules(draw):
    """(phases, period, t_active, times) in ticks, with many samples on or
    next to a window edge."""
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
    kind = draw(st.sampled_from(("arange", "linspace", "edges")))
    if kind == "arange":
        step = draw(st.sampled_from((S, S // 2, S // 10)))
        times = np.arange(0, draw(st.integers(1, 100)) * S, step)
    elif kind == "linspace":
        times = to_ticks(np.linspace(0.0, draw(st.integers(1, 100)), draw(st.integers(1, 300))))
    else:
        # every window edge, phase + q*U and that plus t_active, all moved
        # by the same few ticks; some twice
        q = np.arange(draw(st.integers(1, 40)))[:, None]
        starts = (np.array(phases) + q * period).ravel()
        times = np.concatenate([starts, starts + t_active]) + draw(st.integers(-3, 3))
        repeats = draw(st.integers(0, times.shape[0]))
        times = np.sort(np.concatenate([times, times[:repeats]]))
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


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("timeout_max", [0.0, 10.0])
def test_sweep_never_counts_per_cell(monkeypatch, delta, timeout_max):
    """The sweep's shape (n=400, samples 0..500 s, U = 10 s) never falls
    back to the per-cell count, even when every window edge is on a
    sample, and gives the same counts."""
    phases = to_ticks(rng_stream(1, "phases").uniform(0.0, timeout_max, 400))
    times = to_ticks(np.arange(0.0, 501.0))
    t_active = to_ticks(10.0 - 10.0 * delta)
    expected = kernels.active_counts_per_cell(phases, 10 * S, t_active, times)

    def per_cell(*args):
        raise AssertionError("fell back to the per-cell count")

    monkeypatch.setattr(kernels, "active_counts_per_cell", per_cell)
    counts = kernels.active_counts(phases, 10 * S, t_active, times)
    assert counts.tolist() == expected.tolist()


def test_active_counts_requires_ascending_times():
    with pytest.raises(ValueError, match="ascending"):
        kernels.active_counts(np.zeros(2, dtype=np.int64), 10, 1, np.array([1, 0]))
