import numpy as np
import pytest

from rawsim.dissemination import SizeBased, View
from rawsim.engine import rng_stream
from rawsim.errors import InvalidConfigError
from rawsim.sink import (
    SinkReport,
    collect_origins,
    plan_random_visits,
    predicted_coverage,
)


def test_plan_distinct_nodes_and_times():
    plan = plan_random_visits(100, 10, 0.0, 10.0, rng_stream(1, "sink"))
    assert len(plan.nodes) == 10
    assert len(set(plan.nodes)) == 10
    assert plan.times == tuple(10.0 * i for i in range(10))


def test_plan_single_visit():
    plan = plan_random_visits(50, 1, 5.0, 3.0, rng_stream(2, "sink"))
    assert len(plan.nodes) == 1
    assert plan.times == (5.0,)


def test_plan_full_visit_is_permutation():
    n = 30
    plan = plan_random_visits(n, n, 0.0, 1.0, rng_stream(3, "sink"))
    assert sorted(plan.nodes) == list(range(n))


def test_plan_cycles_when_m_exceeds_n():
    n = 5
    plan = plan_random_visits(n, 12, 0.0, 1.0, rng_stream(4, "sink"))
    assert len(plan.nodes) == 12
    assert set(plan.nodes) == set(range(n))


def test_plan_rejects_zero_visits():
    with pytest.raises(InvalidConfigError):
        plan_random_visits(10, 0, 0.0, 1.0, rng_stream(0, "sink"))


def test_collect_includes_node_itself():
    view = View(SizeBased(5))
    assert collect_origins(7, view) == {7}


def test_collect_merges_view_origins():
    view = View(SizeBased(5))
    for origin in (3, 9, 41):
        view.publish(origin, now=1.0)
    report = SinkReport(n=100)
    report.record_visit(7, 10.0, collect_origins(7, view))
    assert report.known_origins == {7, 3, 9, 41}
    assert report.visits[0].new_origins == 4
    assert report.coverage == pytest.approx(0.04)


def test_first_visit_foreign_origins_near_sqrt_n_minus_one():
    # ideal uniform views of size k=10 over n=100
    n, k = 100, 10
    rng = rng_stream(8, "oracle")
    foreign = []
    for _ in range(2000):
        node = int(rng.integers(n))
        view_origins = set(rng.choice(n, size=k, replace=False).tolist())
        foreign.append(len(view_origins - {node}))
    assert 8.5 <= np.mean(foreign) <= 10.5  # analytic prediction: sqrt(n)-1 = 9


def test_predicted_coverage():
    assert predicted_coverage(1, 100) == pytest.approx(9.0)
    assert predicted_coverage(0, 100) == 0.0
    assert predicted_coverage(12, 100) == 100.0  # 12 * 9 = 108, clamped
    with pytest.raises(InvalidConfigError):
        predicted_coverage(-1, 100)


def test_coverage_monotone_and_bounded():
    report = SinkReport(n=20)
    rng = rng_stream(6, "sink")
    last = 0
    for _ in range(15):
        node = int(rng.integers(20))
        extras = set(rng.choice(20, size=3, replace=False).tolist())
        report.record_visit(node, 0.0, {node} | extras)
        assert len(report.known_origins) >= last
        assert len(report.known_origins) <= 20
        last = len(report.known_origins)
    curve = [v.cumulative_origins for v in report.visits]
    assert all(b >= a for a, b in zip(curve, curve[1:]))
