"""Sampling oracles that tests compare the model's analytic values with."""


def mean_ideal_intersection(n, k, pairs, rng):
    """Draw view pairs uniformly without replacement and average their
    overlap."""
    total = 0
    for _ in range(pairs):
        a = rng.choice(n, size=k, replace=False)
        b = rng.choice(n, size=k, replace=False)
        total += len(set(a.tolist()) & set(b.tolist()))
    return total / pairs
