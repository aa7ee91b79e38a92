import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_adjacency
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


def block_edge_sizes():
    """Node counts below 700 of two or more adjacency blocks whose last
    block is one row short of, exactly or one row over a whole block."""
    sizes = []
    for n in range(2, 700):
        rows = max(1, kernels.BLOCK_CELLS // n)
        if n > rows and n % rows in (0, 1, rows - 1):
            sizes.append(n)
    return sizes


@st.composite
def point_sets(draw):
    """(xs, ys, r): uniform points, points drawn from a few shared
    positions, or integer-grid points with an integer range, so that many
    pairs are exactly r apart; from 0 points to several blocks."""
    n = draw(st.one_of(st.integers(0, 30), st.sampled_from(block_edge_sizes())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(("uniform", "duplicates", "grid")))
    if layout == "grid":
        side = draw(st.integers(1, 40))
        xs, ys = rng.integers(0, side + 1, (2, n)).astype(np.float64)
        return xs, ys, float(draw(st.integers(1, side)))
    if layout == "duplicates":
        pool = rng.uniform(0.0, 100.0, (2, draw(st.integers(1, 8))))
        xs, ys = pool[:, rng.integers(0, pool.shape[1], n)]
    else:
        xs, ys = rng.uniform(0.0, draw(st.sampled_from((10.0, 100.0, 1000.0))), (2, n))
    return xs, ys, draw(st.floats(0.5, 300.0))


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_adjacency_equals_the_dense_rule(points):
    xs, ys, r = points
    indptr, indices = kernels.adjacency_csr(xs, ys, r)
    dense_indptr, dense_indices = dense_adjacency(xs, ys, r)
    assert indptr.dtype == dense_indptr.dtype == np.int64
    assert indices.dtype == dense_indices.dtype == np.int64
    assert np.array_equal(indptr, dense_indptr)
    assert np.array_equal(indices, dense_indices)


def test_adjacency_memory_is_bounded():
    """2,000 points at degree about 310: the dense n x n comparison
    allocates about 122 MB; blocks of BLOCK_CELLS pairs keep the peak at
    about twice the 5 MB edge list."""
    xs, ys = rng_stream(3, "placement").uniform(0.0, 1000.0, (2, 2000))
    tracemalloc.start()
    try:
        kernels.adjacency_csr(xs, ys, 250.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
