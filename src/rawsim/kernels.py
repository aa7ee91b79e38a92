"""Numpy kernels for the array-heavy steps: disk-graph adjacency, the
awake rule on arrays and the awake-node count over the sample grid.

active_counts counts per duty-cycle window, not per (node, sample) cell.
Phases, period, t_active and sample times are integer ticks, and the
samples form an evenly spaced grid times[i] = t0 + i*step. The per-cell
rule (dutycycle.awake_predicate) says node i is awake at t when
dt = t - phase_i is >= 0 and dt mod U < t_active. So a node's awake
samples form one contiguous block per window q, the samples in
[phase + q*U, phase + q*U + t_active). On the grid, the first sample at
or after an edge e has index ceil((e - t0) / step), clipped to [0, H];
integer division gives it exactly, with no search. +1 at each block's
first index and -1 past its last, summed with bincount and cumsum, give
the count at every sample: O(n*H/U) work instead of O(n*H) for n nodes,
H samples and period U. The result equals the per-cell rule.

With t_active >= U a node is awake from its phase on: one open-ended
window per node, on the same index rule. The per-cell form
(active_counts_per_cell) runs instead when windows would outnumber
samples.
"""

import numpy as np

BACKEND = "numpy"

# pairs compared per adjacency block: 128 KB per float64 temporary
BLOCK_CELLS = 1 << 14


def adjacency_csr(xs, ys, radio_range):
    """Closed-disk adjacency as CSR (indptr, indices), neighbors sorted.

    Compares one block of rows with all n points at a time, each block
    about BLOCK_CELLS pairs, so memory is O(BLOCK_CELLS + E) for E
    directed edges. Each pair is tested as dx*dx + dy*dy <= r*r, so the
    result equals the dense n x n comparison."""
    n = xs.shape[0]
    r2 = radio_range * radio_range
    rows = max(1, BLOCK_CELLS // max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dx = xs[lo:hi, None] - xs[None, :]
        dy = ys[lo:hi, None] - ys[None, :]
        adj = dx * dx + dy * dy <= r2
        np.fill_diagonal(adj[:, lo:], False)  # row i of the block is node lo + i
        indptr[lo + 1:hi + 1] = np.count_nonzero(adj, axis=1)
        cols.append(np.flatnonzero(adj) % n)
    np.cumsum(indptr, out=indptr)
    return indptr, np.concatenate(cols).astype(np.int64, copy=False)


def awake(dt, period, t_active):
    """dutycycle.awake_predicate on offsets dt = t - phase, elementwise."""
    return (dt >= 0) & (np.mod(dt, period) < t_active)


def active_counts_per_cell(phases, period, t_active, times):
    """active_counts evaluated on every (sample, node) cell."""
    dt = times[:, None] - phases[None, :]
    return awake(dt, period, t_active).sum(axis=1).astype(np.int64)


def active_counts(phases, period, t_active, times):
    """Number of nodes awake at each sample of the ascending, evenly spaced
    grid times; the vector form of dutycycle.awake_predicate (a node before
    its phase is not awake). Counts per window; see the module docstring."""
    h = times.shape[0]
    step = times[1] - times[0] if h > 1 else 1
    if step <= 0 or (np.diff(times) != step).any():
        raise ValueError("sample times must be an ascending, evenly spaced grid")
    if h == 0 or phases.shape[0] == 0:
        return active_counts_per_cell(phases, period, t_active, times)
    t0 = times[0]

    def first_index(edges):
        """Index of the first sample at or after each edge, in [0, h]."""
        index = -((t0 - edges) // step)  # ceil((edges - t0) / step), exactly
        return np.clip(index, 0, h, out=index)

    if t_active >= period:
        return np.cumsum(np.bincount(first_index(phases), minlength=h + 1)[:h])
    windows = int((times[-1] - phases.min()) // period) + 1
    if windows > h:
        return active_counts_per_cell(phases, period, t_active, times)
    starts = (phases[:, None] + np.arange(windows) * period).ravel()
    steps = np.bincount(first_index(starts), minlength=h + 1)
    steps -= np.bincount(first_index(starts + t_active), minlength=h + 1)
    return np.cumsum(steps[:h])


def warmup():
    """Run each kernel once on a tiny input, so that timed sections start warm."""
    xs = np.array([0.0, 1.0, 5.0])
    ys = np.zeros(3)
    adjacency_csr(xs, ys, 2.0)
    active_counts(np.zeros(3, dtype=np.int64), 10, 1, np.array([0, 1]))
