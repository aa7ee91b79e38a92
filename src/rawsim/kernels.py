"""Numpy kernels for the array-heavy steps: disk-graph adjacency, the
awake rule on arrays and the awake-node count at the sample times.

active_counts counts phase residues, not (node, sample) cells. Phases,
period U, t_active and sample times are integer ticks; the samples may
come in any order, spacing or sign. The per-cell rule
(dutycycle.awake_predicate) says node i is awake at t when
dt = t - phase_i is >= 0 and dt mod U < t_active. From the last phase
on, dt >= 0 for every node, so with a = min(t_active, U) node i is awake
at t iff phase_i mod U lies in the circular interval (t - a, t] mod U.
With hi = t mod U and lo = (hi - a) mod U, the count is the number of
sorted residues <= hi, minus those <= lo, plus n when the interval
wraps past 0 (hi < a; for a = U that makes every node awake): one
searchsorted of hi and lo over the n sorted residues. Samples before
the last phase go to active_counts_per_cell, the definition, in blocks
of at most BLOCK_CELLS cells. For n nodes, H samples and H' of them
before the last phase, work is O(n*H' + (n + H) log n) and memory is
O(n + H + BLOCK_CELLS); the result equals the per-cell rule.
"""

import numpy as np

BACKEND = "numpy"

# cells per block of adjacency pairs or per-cell awake tests: 128 KB per
# 8-byte temporary
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
    """Number of nodes awake at each sample of times, in any order; the
    vector form of dutycycle.awake_predicate (a node before its phase is
    not awake). Counts phase residues; see the module docstring."""
    n = phases.shape[0]
    counts = np.empty(times.shape[0], dtype=np.int64)
    early = times < phases.max(initial=0)  # before the last phase; none if n = 0
    before = np.flatnonzero(early)
    rows = max(1, BLOCK_CELLS // max(n, 1))
    for start in range(0, before.shape[0], rows):
        block = before[start:start + rows]
        counts[block] = active_counts_per_cell(phases, period, t_active, times[block])
    residues = np.sort(phases % period)
    a = min(t_active, period)
    hi = times[~early] % period
    lo = (hi - a) % period
    upto_hi, upto_lo = np.searchsorted(residues, (hi, lo), "right")
    counts[~early] = upto_hi - upto_lo + n * (hi < a)
    return counts


def warmup():
    """Run each kernel once on a tiny input, so that timed sections start warm."""
    xs = np.array([0.0, 1.0, 5.0])
    ys = np.zeros(3)
    adjacency_csr(xs, ys, 2.0)
    active_counts(np.arange(3), 10, 1, np.array([0, 1, 2]))
