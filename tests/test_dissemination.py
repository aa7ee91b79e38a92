import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rawsim.dissemination import (
    NeighborTable,
    RWMessage,
    SizeBased,
    TimeoutBased,
    View,
    hello_tick,
    hop,
    parse_view_policy,
    pick_next,
    resolve_rw_length,
)
from rawsim.dutycycle import awake_predicate
from rawsim.engine import rng_stream
from rawsim.errors import InvalidConfigError

from oracles import mean_ideal_intersection


def always_active(_node, _t):
    return True


def always_sleep(_node, _t):
    return False


def test_parse_view_policy():
    assert parse_view_policy("size:7", n=100) == SizeBased(7)
    assert parse_view_policy("timeout:30", n=100) == TimeoutBased(30.0)
    assert parse_view_policy("size:sqrt", n=100) == SizeBased(10)
    assert parse_view_policy("size:sqrt", n=90) == SizeBased(10)  # ceil
    with pytest.raises(InvalidConfigError):
        parse_view_policy("lru:3", n=100)
    with pytest.raises(InvalidConfigError):
        parse_view_policy("size:0", n=100)
    with pytest.raises(InvalidConfigError):
        parse_view_policy("timeout:0", n=100)


def test_resolve_rw_length():
    assert resolve_rw_length("n", 100) == 100
    assert resolve_rw_length("n/2", 100) == 50
    assert resolve_rw_length("n/4", 100) == 25
    assert resolve_rw_length("17", 100) == 17
    assert resolve_rw_length(0, 100) == 0
    with pytest.raises(InvalidConfigError):
        resolve_rw_length("half", 100)
    with pytest.raises(InvalidConfigError):
        resolve_rw_length(-1, 100)


def test_pick_next_empty_table_returns_self():
    assert pick_next(4, [], always_active, 0.0, 0.3) == 4


def test_pick_next_single_active_neighbor():
    assert pick_next(4, [3], always_active, 0.0, 0.99) == 3


def test_pick_next_sleeping_neighbor_stalls():
    assert pick_next(4, [3], always_sleep, 0.0, 0.0) == 4


def test_pick_next_timeout_neighbor_stalls():
    # node 3 is still in its initial timeout at t = 40.5 s, although
    # (40.5 - 50) % 10 = 0.5 falls in an active window; times in 1 us ticks
    awake = awake_predicate([0, 0, 0, 50_000_000, 0], 10_000_000, 1_000_000)
    assert pick_next(4, [3], awake, 40_500_000, 0.0) == 4


def test_hop_single_step_terminates_at_neighbor():
    msg = RWMessage(origin=0, ttl=1, current=0)
    done = hop(msg, [5], always_active, 0.0, 0.0)
    assert done
    assert msg.current == 5
    assert msg.ttl == 0


def test_hop_all_sleep_terminates_at_origin():
    # 3-node oracle: every pick stalls, ttl still drains one per step
    msg = RWMessage(origin=0, ttl=5, current=0)
    steps = 0
    while not hop(msg, [1, 2], always_sleep, 0.0, 0.5):
        steps += 1
    assert steps == 4
    assert msg.current == 0
    assert msg.ttl == 0


def test_hop_ttl_strictly_decreasing():
    msg = RWMessage(origin=0, ttl=10, current=0)
    seen = []
    done = False
    while not done:
        done = hop(msg, [1, 2, 3], always_active, 0.0, 0.1)
        seen.append(msg.ttl)
    assert seen == list(range(9, -1, -1))


def test_hop_moves_only_to_listed_neighbors():
    rng = rng_stream(3, "walks")
    known = {0: [1, 2], 1: [0], 2: [0, 1]}
    msg = RWMessage(origin=0, ttl=30, current=0)
    done = False
    while not done:
        before = msg.current
        done = hop(msg, known[msg.current], always_active, 0.0, rng.random())
        assert msg.current == before or msg.current in known[before]


def test_terminal_uniform_on_complete_graph():
    # chi-square oracle: 10^4 walks on K10, starts round-robin, all active
    n = 10
    walks = 10_000
    length = 10
    rng = rng_stream(123, "walks")
    known = [[j for j in range(n) if j != i] for i in range(n)]
    counts = np.zeros(n, dtype=int)
    for w in range(walks):
        start = w % n
        msg = RWMessage(origin=start, ttl=length, current=start)
        while not hop(msg, known[msg.current], always_active, 0.0, rng.random()):
            pass
        counts[msg.current] += 1
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_publish_insert_and_refresh():
    view = View(SizeBased(5))
    view.publish(3, now=10.0)
    assert len(view) == 1
    assert view.entries[3] == 10.0
    view.publish(3, now=20.0)
    assert len(view) == 1
    assert view.entries[3] == 20.0


def test_size_based_evicts_oldest():
    view = View(SizeBased(2))
    view.publish(3, now=1.0)
    view.publish(9, now=2.0)
    view.publish(41, now=3.0)
    assert set(view.origins()) == {9, 41}
    assert len(view) == 2


def test_size_based_eviction_tie_breaks_on_smaller_origin():
    view = View(SizeBased(2))
    view.publish(8, now=5.0)
    view.publish(2, now=5.0)
    view.publish(5, now=6.0)
    assert set(view.origins()) == {8, 5}


def test_size_based_sqrt_cap():
    view = View(SizeBased(10))
    for origin in range(12):
        view.publish(origin, now=float(origin))
    assert len(view) == 10
    assert set(view.origins()) == set(range(2, 12))  # the 2 oldest gone


def test_timeout_based_boundary_is_closed():
    view = View(TimeoutBased(20.0))
    view.publish(1, now=0.0)
    view.publish(2, now=5.0)
    view.maintain(now=20.0)
    assert set(view.origins()) == {1, 2}  # aged exactly 20: kept
    view.maintain(now=25.0)
    assert set(view.origins()) == {2}     # aged 25: removed


def test_hello_tick_updates_awake_neighbors():
    tables = {i: NeighborTable() for i in range(3)}
    hello_tick(0, 5.0, [1, 2], always_active, tables)
    assert tables[1].known == [0]
    assert tables[2].known == [0]
    assert tables[1].members == {0}
    assert tables[0].known == []


def test_hello_tick_sleeping_receiver_unchanged():
    tables = {i: NeighborTable() for i in range(2)}
    hello_tick(0, 1.0, [1], lambda node, _t: node == 0, tables)
    assert tables[1].known == []
    assert tables[1].members == set()


def test_hello_tick_sleeping_sender_sends_nothing():
    tables = {i: NeighborTable() for i in range(2)}
    hello_tick(0, 1.0, [1], always_sleep, tables)
    assert tables[1].known == []
    assert tables[1].members == set()


def test_neighbor_table_no_duplicate_known_entries():
    table = NeighborTable()
    table.hear(3)
    table.hear(3)
    assert table.known == [3]
    assert table.members == {3}


def test_ideal_view_intersection_matches_formula():
    n, k = 100, 10
    measured = mean_ideal_intersection(n, k, 2000, rng_stream(5, "oracle"))
    assert abs(measured - k * k / n) <= 0.2  # within 20% of k^2/n = 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(st.integers(0, 20), st.floats(0, 100, allow_nan=False)),
        min_size=1,
        max_size=40,
    ),
)
def test_size_bound_never_exceeded(k, publishes):
    view = View(SizeBased(k))
    for origin, t in sorted(publishes, key=lambda p: p[1]):
        view.publish(origin, now=t)
        assert len(view) <= k


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.5, 50),
    st.lists(
        st.tuples(st.integers(0, 20), st.floats(0, 100, allow_nan=False)),
        min_size=1,
        max_size=40,
    ),
    st.floats(0, 60),
)
def test_staleness_bound_after_maintenance(tau, publishes, extra):
    view = View(TimeoutBased(tau))
    times = sorted(t for _o, t in publishes)
    for (origin, _), t in zip(publishes, times):
        view.publish(origin, now=t)
    now = times[-1] + extra
    view.maintain(now)
    assert all(now - t <= tau for t in view.entries.values())
