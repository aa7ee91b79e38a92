import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import awake_predicate, dense_adjacency
from rawsim import kernels
from rawsim.dutycycle import to_ticks
from rawsim.engine import rng_stream

S = 1_000_000  # ticks per second
# 10 s and 0.3 s; periods of 7 ticks and 1 tick put many windows between samples
PERIODS = (10 * S, 3 * S // 10, 7, 1)


def test_active_counts_handles_always_on():
    """With t_active >= U a node is awake from its phase on, also at the
    samples from the last phase on that fall on a phase residue."""
    phases = np.array([0, 0, 3 * S, 5 * S, 200 * S])
    counts = kernels.active_counts(phases, 7 * S, 7 * S, np.arange(0, 101 * S, 50 * S))
    assert counts.tolist() == [2, 4, 4]
    phases = np.array([0, 0, 3 * S, 5 * S, 12 * S])
    times = np.arange(0, 30 * S, S)
    started = (phases[None, :] <= times[:, None]).sum(axis=1).tolist()
    for t_active in (7 * S, 7 * S + 1, 7 * S + 2, 30 * S):
        assert kernels.active_counts(phases, 7 * S, t_active, times).tolist() == started


def divisors(k):
    small = [d for d in range(1, math.isqrt(k) + 1) if k % d == 0]
    return sorted(set(small + [k // d for d in small]))


@st.composite
def schedules(draw):
    """(phases, period, t_active, times) in ticks, 0 to 6 nodes and
    t_active from 0 to U + 2. times is one of: an evenly spaced grid of 0
    to 300 samples that starts on or next to a window edge, or next to 0,
    whose step divides U or t_active, so that later samples land on later
    edges too, or divides neither; up to 40 samples in any order, with
    repeats, drawn from a few points on or next to window edges or before
    0; or up to 40 samples that all come before every phase."""
    n = draw(st.integers(0, 6))
    period = draw(st.sampled_from(PERIODS))
    t_active = draw(
        st.one_of(
            st.integers(period, period + 2),
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
    # the edge phase + q*U or phase + q*U + t_active of a drawn node, give or take 3
    edge = st.builds(
        lambda phase, q, start, offset: phase + q * period + start + offset,
        st.sampled_from(phases or [0]),
        st.integers(0, 40),
        st.sampled_from((0, t_active)),
        st.one_of(st.just(0), st.integers(-3, 3)),
    )
    layout = draw(st.sampled_from(("grid", "scattered", "before phases")))
    if layout == "grid":
        t0 = draw(st.one_of(edge, st.integers(-3, 3)))
        neither = [k for k in (7, 13, S // 3 + 1) if period % k and t_active % k]
        step = draw(st.sampled_from(divisors(period) + divisors(t_active) + neither))
        times = t0 + step * np.arange(draw(st.integers(0, 300)))
    elif layout == "scattered":
        pool = draw(st.lists(st.one_of(edge, st.integers(-3 * period, -1)), min_size=1, max_size=8))
        times = draw(st.lists(st.sampled_from(pool), max_size=40))
    else:
        first = min(phases, default=0)
        times = draw(st.lists(st.integers(first - 3 * period, first - 1), max_size=40))
    return np.array(phases, dtype=np.int64), period, t_active, np.array(times, dtype=np.int64)


@settings(max_examples=500, deadline=None)
@given(schedules())
def test_active_counts_matches_awake_predicate(schedule):
    phases, period, t_active, times = schedule
    awake = awake_predicate(phases, period, t_active)
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
    """From the last phase on, the sweep's shape never counts per cell:
    the per-cell rule sees each sample before the last phase once (at most
    11 of 501 with phases in [0, 10] s, none with every phase at 0) and no
    other sample, and the counts equal the per-cell rule."""
    phases, t_active, times, expected = sweep_shape(delta, timeout_max)
    per_cell = kernels.active_counts_per_cell
    seen = []

    def spy(phases, period, t_active, times):
        seen.extend(times.tolist())
        return per_cell(phases, period, t_active, times)

    monkeypatch.setattr(kernels, "active_counts_per_cell", spy)
    counts = kernels.active_counts(phases, 10 * S, t_active, times)
    assert counts.tolist() == expected.tolist()
    assert seen == times[times < phases.max()].tolist()
    assert len(seen) <= (11 if timeout_max else 0)


@pytest.mark.parametrize("delta", [0.0, 0.5, 0.9])
def test_sweep_never_searches(monkeypatch, delta):
    """The sweep's shape never searches the sample times, the always-on
    case (delta 0) included: every np.searchsorted haystack is the 400
    sorted phase residues."""
    phases, t_active, times, expected = sweep_shape(delta, 10.0)
    search = np.searchsorted
    haystacks = []

    def spy(a, v, side="left", sorter=None):
        haystacks.append(np.asarray(a).tolist())
        return search(a, v, side, sorter)

    monkeypatch.setattr(np, "searchsorted", spy)
    counts = kernels.active_counts(phases, 10 * S, t_active, times)
    assert counts.tolist() == expected.tolist()
    residues = np.sort(phases % (10 * S)).tolist()
    assert haystacks and all(haystack == residues for haystack in haystacks)


@pytest.mark.parametrize("n", [4096, 5000, 5462])
def test_active_counts_per_cell_blocks(n):
    """Node counts that split the samples before the last phase into
    blocks of 4, 3 and 2 samples, the last block full or not."""
    phases = to_ticks(rng_stream(4, "phases").uniform(0.0, 20.0, n))
    times = to_ticks(np.arange(0.0, 26.0))
    counts = kernels.active_counts(phases, 10 * S, 5 * S, times)
    assert counts.tolist() == kernels.active_counts_per_cell(phases, 10 * S, 5 * S, times).tolist()


@pytest.mark.parametrize("timeout_max", [10.0, 5000.0])
def test_active_counts_memory_is_bounded(timeout_max):
    """n=10,000 and 5,001 one-second samples at delta 0.5, with phases
    within one period or spread over the whole horizon: counting per
    window would allocate a start per node and window, 114.5 MiB;
    residues and blocks of BLOCK_CELLS cells keep the peak under 2 MiB."""
    phases = to_ticks(rng_stream(2, "phases").uniform(0.0, timeout_max, 10_000))
    times = to_ticks(np.arange(0.0, 5001.0))
    tracemalloc.start()
    try:
        counts = kernels.active_counts(phases, 10 * S, 5 * S, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    every_100th = times[::100]
    expected = kernels.active_counts_per_cell(phases, 10 * S, 5 * S, every_100th)
    assert counts[::100].tolist() == expected.tolist()


@pytest.mark.parametrize("t_active", [3, 10])
@pytest.mark.parametrize("t", [-1, 0, 2, 3, 25, 33])
def test_active_counts_on_one_sample(t_active, t):
    phases = np.array([0, 2, 3, 30])
    awake = awake_predicate(phases, 10, t_active)
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
