"""The mobile sink: random visit plans, per-visit collection, coverage."""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError


@dataclass(frozen=True)
class VisitPlan:
    nodes: tuple    # visit order
    times: tuple    # non-decreasing (the gap may be 0)


@dataclass(frozen=True)
class VisitRecord:
    index: int
    node: int
    time: float
    entries_collected: int
    new_origins: int
    cumulative_origins: int


@dataclass
class SinkReport:
    n: int
    visits: list = field(default_factory=list)
    known_origins: set = field(default_factory=set)

    @property
    def coverage(self):
        return len(self.known_origins) / self.n

    def record_visit(self, node, time, origins):
        """Merge one visit's collected origins into the running set."""
        before = len(self.known_origins)
        self.known_origins.update(origins)
        record = VisitRecord(
            index=len(self.visits) + 1,
            node=node,
            time=time,
            entries_collected=len(origins),
            new_origins=len(self.known_origins) - before,
            cumulative_origins=len(self.known_origins),
        )
        self.visits.append(record)
        return record


def visit_times(start_time, gap, m):
    """The visit-time rule: visit i (from 0) is at start_time + i*gap."""
    return tuple(start_time + i * gap for i in range(m))


def plan_random_visits(n, m, start_time, gap, rng):
    """m nodes sampled uniformly without replacement (fresh permutations if
    m > n), visited at start_time, start_time + gap, ..."""
    if m < 1:
        raise InvalidConfigError(f"visit count must be >= 1, got {m}")
    if gap < 0:
        raise InvalidConfigError(f"visit gap must be >= 0, got {gap}")
    order = []
    while len(order) < m:
        order.extend(int(v) for v in rng.permutation(n))
    order = order[:m]
    return VisitPlan(nodes=tuple(order), times=visit_times(start_time, gap, m))


def collect_origins(node, view):
    """Origins a visit yields: the node's own origin plus its stored view."""
    return {node} | set(view.origins())


def predicted_coverage(i, n):
    """The analytic i*(sqrt(n)-1) prediction, clamped to n."""
    if i < 0:
        raise InvalidConfigError(f"visit index must be >= 0, got {i}")
    return min(float(n), i * (math.sqrt(n) - 1.0))


def coverage_fractions(report):
    return np.array([v.cumulative_origins / report.n for v in report.visits])
