"""Static deployment: node placement on a plane and the radio-range
disk-adjacency graph.

Distance exactly equal to the radio range counts as adjacent (closed
disk). Neighbor lists are sorted ascending by node id so that random
neighbor selection consumes the RNG deterministically.
"""

import math
from dataclasses import dataclass, field
from itertools import pairwise

import numpy as np

from . import kernels
from .errors import InvalidConfigError, PlacementParseError

DEFAULT_RADIO_RANGE = 250.0


@dataclass(frozen=True)
class Topology:
    """One deployment: positions and the disk graph over them; immutable."""

    n: int
    positions: np.ndarray            # shape (n, 2)
    neighbors: tuple = field(repr=False)  # per-node sorted tuples of node ids


def place_uniform(n, width, height, rng):
    """Draw n positions with both coordinates independent uniform."""
    if n < 1:
        raise InvalidConfigError(f"node count must be >= 1, got {n}")
    if width <= 0 or height <= 0:
        raise InvalidConfigError("grid dimensions must be positive")
    xs = rng.uniform(0.0, width, size=n)
    ys = rng.uniform(0.0, height, size=n)
    return np.column_stack([xs, ys])


def build_adjacency(positions, radio_range):
    """Build the symmetric closed-disk graph over the given positions."""
    if radio_range <= 0:
        raise InvalidConfigError(f"radio_range must be positive, got {radio_range}")
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    xs = np.ascontiguousarray(positions[:, 0])
    ys = np.ascontiguousarray(positions[:, 1])
    indptr, indices = kernels.adjacency_csr(xs, ys, float(radio_range))
    ids = indices.tolist()
    neighbors = tuple(tuple(ids[a:b]) for a, b in pairwise(indptr.tolist()))
    return Topology(n=n, positions=positions, neighbors=neighbors)


def load_placement(text):
    """Parse an ASCII placement: one "id x y" per line, ids dense 0..n-1."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise PlacementParseError(
                f"line {lineno}: expected 'id x y', got {raw!r}"
            )
        try:
            node = int(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError as exc:
            raise PlacementParseError(f"line {lineno}: {exc}") from exc
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PlacementParseError(f"line {lineno}: non-finite coordinate in {raw!r}")
        if node < 0:
            raise PlacementParseError(f"line {lineno}: negative id {node}")
        if node in entries:
            raise PlacementParseError(f"line {lineno}: duplicate id {node}")
        entries[node] = (x, y)
    if not entries:
        raise PlacementParseError("placement is empty")
    n = len(entries)
    missing = sorted(set(range(n)) - set(entries))
    if missing:
        raise PlacementParseError(f"ids are not dense 0..{n - 1}: missing {missing}")
    return np.array([entries[i] for i in range(n)], dtype=np.float64)


def save_placement(positions):
    """Inverse of load_placement; floats written exactly (shortest repr)."""
    lines = [
        f"{i} {float(x)!r} {float(y)!r}"
        for i, (x, y) in enumerate(np.asarray(positions))
    ]
    return "\n".join(lines) + "\n"

