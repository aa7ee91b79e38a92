"""Numpy kernels for the array-heavy steps: disk-graph adjacency and the
awake-node count over the sample grid.

These are the only vectorized parts of a run. The event loop in
engine.py dispatches one event at a time in Python, on Python floats.
"""

import numpy as np

BACKEND = "numpy"


def adjacency_csr(xs, ys, radio_range):
    """Closed-disk adjacency as CSR (indptr, indices), neighbors sorted."""
    n = xs.shape[0]
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    adj = dx * dx + dy * dy <= radio_range * radio_range
    np.fill_diagonal(adj, False)
    rows, cols = np.nonzero(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(np.int64)


def active_counts(phases, period, t_active, times):
    """Number of nodes awake at each sample time; the vector form of
    dutycycle.awake_predicate (a node before its phase is not awake)."""
    dt = times[:, None] - phases[None, :]
    active = (dt >= 0.0) & (np.mod(dt, period) < t_active)
    return active.sum(axis=1).astype(np.int64)


def warmup():
    """Run each kernel once on a tiny input, so that timed sections start warm."""
    xs = np.array([0.0, 1.0, 5.0])
    ys = np.zeros(3)
    adjacency_csr(xs, ys, 2.0)
    active_counts(np.zeros(3), 10.0, 1.0, np.array([0.0, 1.0]))
