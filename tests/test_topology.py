import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats
from scipy.sparse.csgraph import connected_components

from rawsim import kernels
from rawsim.engine import rng_stream
from rawsim.errors import InvalidConfigError, PlacementParseError
from rawsim.topology import (
    build_adjacency,
    load_placement,
    place_uniform,
    save_placement,
)


def test_place_uniform_within_bounds():
    pos = place_uniform(100, 1000.0, 1000.0, rng_stream(1, "placement"))
    assert pos.shape == (100, 2)
    assert (pos[:, 0] >= 0).all() and (pos[:, 0] <= 1000).all()
    assert (pos[:, 1] >= 0).all() and (pos[:, 1] <= 1000).all()


def test_place_uniform_single_node():
    pos = place_uniform(1, 50.0, 20.0, rng_stream(3, "placement"))
    assert pos.shape == (1, 2)
    assert 0 <= pos[0, 0] <= 50 and 0 <= pos[0, 1] <= 20


def test_place_uniform_rejects_zero_nodes():
    with pytest.raises(InvalidConfigError):
        place_uniform(0, 10.0, 10.0, rng_stream(0, "placement"))


def test_place_uniform_mean_within_sampling_error():
    n = 10_000
    width = 1000.0
    pos = place_uniform(n, width, width, rng_stream(7, "placement"))
    sigma = width / math.sqrt(12 * n)
    assert abs(pos[:, 0].mean() - width / 2) <= 3 * sigma
    assert abs(pos[:, 1].mean() - width / 2) <= 3 * sigma


def test_place_uniform_deterministic():
    a = place_uniform(50, 100.0, 100.0, rng_stream(5, "placement"))
    b = place_uniform(50, 100.0, 100.0, rng_stream(5, "placement"))
    assert (a == b).all()


def test_marginals_pass_ks_uniformity():
    n = 2000
    pos = place_uniform(n, 1000.0, 800.0, rng_stream(11, "placement"))
    for axis, scale in ((0, 1000.0), (1, 800.0)):
        result = stats.kstest(pos[:, axis] / scale, "uniform")
        assert result.pvalue > 0.01


def test_adjacency_boundary_is_closed_disk():
    r = 10.0
    eps = 1e-6
    near = build_adjacency(np.array([[0.0, 0.0], [r - eps, 0.0]]), r)
    assert near.neighbors[0] == (1,)
    exact = build_adjacency(np.array([[0.0, 0.0], [r, 0.0]]), r)
    assert exact.neighbors[0] == (1,)
    far = build_adjacency(np.array([[0.0, 0.0], [r + eps, 0.0]]), r)
    assert far.neighbors[0] == ()


def test_adjacency_rejects_nonpositive_range():
    with pytest.raises(InvalidConfigError):
        build_adjacency(np.zeros((2, 2)), 0.0)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
        ),
        min_size=1,
        max_size=25,
    ),
    st.floats(1.0, 150.0),
)
def test_adjacency_symmetric_and_sorted(points, r):
    top = build_adjacency(np.array(points), r)
    for i, nbrs in enumerate(top.neighbors):
        assert list(nbrs) == sorted(nbrs)
        assert i not in nbrs
        for j in nbrs:
            assert i in top.neighbors[j]


def test_neighbors_are_python_ints():
    """Neighbour tuples hold Python ints, in the CSR's order."""
    pos = place_uniform(400, 1000.0, 1000.0, rng_stream(1, "placement"))
    top = build_adjacency(pos, 250.0)
    indptr, indices = kernels.adjacency_csr(pos[:, 0].copy(), pos[:, 1].copy(), 250.0)
    assert [len(nbrs) for nbrs in top.neighbors] == np.diff(indptr).tolist()
    assert [j for nbrs in top.neighbors for j in nbrs] == indices.tolist()
    assert all(type(j) is int for nbrs in top.neighbors for j in nbrs)


def test_load_placement_roundtrip():
    pos = place_uniform(37, 1000.0, 1000.0, rng_stream(2, "placement"))
    again = load_placement(save_placement(pos))
    assert (again == pos).all()


def test_load_placement_basic():
    pos = load_placement("0 1.0 2.0\n1 3.0 4.0\n")
    assert pos.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_placement_duplicate_id():
    with pytest.raises(PlacementParseError, match="line 2"):
        load_placement("0 1.0 2.0\n0 3.0 4.0\n")


def test_load_placement_gap_in_ids():
    with pytest.raises(PlacementParseError, match="missing"):
        load_placement("0 1.0 2.0\n2 3.0 4.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", ["x", "y"])
def test_load_placement_rejects_non_finite_coordinates(value, column):
    x, y = (value, "1") if column == "x" else ("1", value)
    with pytest.raises(PlacementParseError, match="line 2: non-finite"):
        load_placement(f"0 1 1\n1 {x} {y}\n2 3 3\n")


def test_load_placement_malformed_line():
    with pytest.raises(PlacementParseError, match="line 1"):
        load_placement("0 1.0\n")
    with pytest.raises(PlacementParseError, match="line 2"):
        load_placement("0 1.0 2.0\n1 x y\n")


def is_connected(topology):
    """Whether the disk graph is one component (scipy's count, not ours)."""
    rows = [u for u, nb in enumerate(topology.neighbors) for _ in nb]
    cols = [v for nb in topology.neighbors for v in nb]
    graph = sparse.csr_matrix((np.ones(len(cols)), (rows, cols)), shape=(topology.n,) * 2)
    return connected_components(graph, directed=False, return_labels=False) == 1


def test_degree_stats_complete_graph():
    pos = np.array([[float(i), 0.0] for i in range(5)])
    top = build_adjacency(pos, 10.0)
    degrees = [len(nb) for nb in top.neighbors]
    assert min(degrees) == max(degrees) == 4
    assert sum(degrees) / top.n == 4.0
    assert is_connected(top)


def test_degree_stats_isolated_nodes():
    top = build_adjacency(np.array([[0.0, 0.0], [500.0, 500.0]]), 10.0)
    degrees = [len(nb) for nb in top.neighbors]
    assert min(degrees) == max(degrees) == 0
    assert top.neighbors == ((), ())
    assert not is_connected(top)


def test_reference_scenario_is_connected():
    pos = place_uniform(100, 1000.0, 1000.0, rng_stream(42, "placement"))
    top = build_adjacency(pos, 250.0)
    assert is_connected(top)


def test_dense_grid_mean_degree_near_44():
    # 550x550 with the frozen 260 m range targets the high-degree scenario
    means = []
    for seed in range(5):
        pos = place_uniform(100, 550.0, 550.0, rng_stream(seed, "placement"))
        top = build_adjacency(pos, 260.0)
        means.append(sum(len(nb) for nb in top.neighbors) / top.n)
    assert 40.0 <= np.mean(means) <= 48.0
