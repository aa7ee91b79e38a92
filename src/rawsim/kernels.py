"""Numpy kernels for the array-heavy steps: disk-graph adjacency and the
awake-node count over the sample grid.

These are the only vectorized parts of a run. The event loop in
engine.py dispatches one event at a time in Python, on Python floats.

active_counts counts per duty-cycle window, not per (node, sample) cell.
The per-cell rule (dutycycle.awake_predicate) says node i is awake at t
when dt = t - phase_i is >= 0 and dt mod U < t_active. So a node's awake
samples form one contiguous block per window q, the samples in
[phase + q*U, phase + q*U + t_active). Two searchsorted calls per window
find its block, and +1 at its start and -1 at its end, summed with
bincount and cumsum, give the count at every sample: O(n*H/U) work
instead of O(n*H) for n nodes, H samples and period U.

The result equals the per-cell rule bit for bit. A window's first start
is exact: fl(t - phase) >= 0 holds exactly when t >= phase. Every other
edge is a rounded sum, and the rule rounds t - phase, so the two may
disagree on a sample within a few ulps of an edge. Every sample within
16 ulps of any edge is therefore decided again by the per-cell rule
itself, in one vectorized call over just those (node, sample) pairs.

The per-cell form (active_counts_per_cell) runs instead when windows
would outnumber samples, or when t_active or U - t_active is so close to
0 that two edges can fall near one sample. With t_active >= U a node is
awake from its phase on, so the count is the number of phases <= t.
"""

import numpy as np

BACKEND = "numpy"

# A sample this many ulps (of the largest magnitude involved) from a
# window edge is decided by the per-cell rule. The rounding of an edge and
# of t - phase moves the boundary by at most a few ulps.
EDGE_ULPS = 16


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


def _awake(dt, period, t_active):
    """The awake rule on offsets dt = t - phase, elementwise."""
    return (dt >= 0.0) & (np.mod(dt, period) < t_active)


def active_counts_per_cell(phases, period, t_active, times):
    """active_counts evaluated on every (sample, node) cell."""
    dt = times[:, None] - phases[None, :]
    return _awake(dt, period, t_active).sum(axis=1).astype(np.int64)


def active_counts(phases, period, t_active, times):
    """Number of nodes awake at each of the ascending sample times; the
    vector form of dutycycle.awake_predicate (a node before its phase is
    not awake). Counts per window; see the module docstring."""
    if np.any(times[1:] < times[:-1]):
        raise ValueError("sample times must be ascending")
    h = times.shape[0]
    if h == 0 or phases.shape[0] == 0 or not period > 0:
        return active_counts_per_cell(phases, period, t_active, times)
    if t_active >= period:
        return np.searchsorted(np.sort(phases), times, side="right").astype(np.int64)

    scale = np.abs(times).max() + np.abs(phases).max() + period
    tol = EDGE_ULPS * np.spacing(scale)
    windows = int((times[-1] - phases.min()) // period) + 2
    if windows > h or min(t_active, period - t_active) <= 4 * tol:
        return active_counts_per_cell(phases, period, t_active, times)

    starts = (phases[:, None] + np.arange(windows) * period).ravel()
    ends = starts + t_active
    # Samples within tol of an edge are first counted as inside the window
    # at a start edge and outside at an end edge, then checked one by one.
    lo = np.searchsorted(times, starts - tol)
    hi = np.searchsorted(times, ends - tol)
    steps = np.bincount(lo, minlength=h + 1) - np.bincount(hi, minlength=h + 1)
    counts = np.cumsum(steps[:h])

    padded = np.append(times, np.inf)
    for edges, first, inside in ((starts, lo, True), (ends, hi, False)):
        edge, sample = _near_edge(padded, first, edges + tol)
        dt = times[sample] - phases[edge // windows]
        wrong = np.bincount(sample[_awake(dt, period, t_active) != inside], minlength=h)
        counts += -wrong if inside else wrong
    return counts


def _near_edge(padded, first, limits):
    """(edge, sample) index pairs of every sample k >= first[e] with
    times[k] <= limits[e]; padded is the times with +inf appended."""
    near = np.flatnonzero(padded[first] <= limits)
    first = first[near]
    lengths = np.searchsorted(padded, limits[near], side="right") - first
    sample = np.repeat(first - (np.cumsum(lengths) - lengths), lengths)
    return np.repeat(near, lengths), sample + np.arange(sample.shape[0])


def warmup():
    """Run each kernel once on a tiny input, so that timed sections start warm."""
    xs = np.array([0.0, 1.0, 5.0])
    ys = np.zeros(3)
    adjacency_csr(xs, ys, 2.0)
    active_counts(np.zeros(3), 10.0, 1.0, np.array([0.0, 1.0]))
