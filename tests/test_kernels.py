import numpy as np

from rawsim import kernels


def test_active_counts_handles_always_on():
    phases = np.zeros(5)
    counts = kernels.active_counts(phases, 7.0, 7.0, np.array([0.0, 3.0, 100.0]))
    assert np.asarray(counts).tolist() == [5, 5, 5]
