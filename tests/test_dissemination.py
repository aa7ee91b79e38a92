import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from rawsim.dissemination import (
    RWMessage,
    SizeBased,
    TimeoutBased,
    View,
    discover,
    hop,
    parse_view_policy,
    pick_next,
    resolve_rw_length,
)
from rawsim.dutycycle import awake_predicate
from rawsim.engine import rng_stream
from rawsim.errors import InvalidConfigError

import oracles
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


def hello_ticks(period, t_active, hello_interval):
    return {"period": period, "t_active_s": t_active, "hello_interval_s": hello_interval}


def test_discover_awake_neighbours_hear_the_first_hello():
    # always awake: 1 and 2 hear 0's first hello; 0 hears nobody
    ticks = hello_ticks(10, 10, 1)
    assert discover([0, 0, 0], [[1, 2], [], []], ticks, 5) == [(0, 0, 0, 1), (0, 0, 0, 2)]
    # node 1 wakes at 3: it hears 0's hello at 3, and 0 hears 1's first
    # hello at 3 too; the later phase goes first
    assert discover([0, 3], [[1], [0]], hello_ticks(10, 5, 1), 50) == [
        (3, -3, 1, 0), (3, 0, 0, 1),
    ]


def test_discover_sleeping_receiver_hears_nothing():
    # 0 is awake at each of its hellos (0, 10, 20, ...); 1 is awake in
    # [5, 7) of each period, so it never hears one
    awake = awake_predicate([0, 5], 10, 2)
    assert all(awake(0, t) and not awake(1, t) for t in range(0, 101, 10))
    assert discover([0, 5], [[1], []], hello_ticks(10, 2, 10), 100) == []


def test_discover_sleeping_sender_sends_nothing():
    # 0 sends every 3 ticks but is awake only in [0, 2) of each period, and
    # then 1 sleeps; 1 is awake at 0's hellos at 3 and 24, where 0 sleeps
    awake = awake_predicate([0, 3], 10, 2)
    assert awake(1, 3) and awake(1, 24) and not awake(0, 3) and not awake(0, 24)
    assert discover([0, 3], [[1], []], hello_ticks(10, 2, 3), 100) == []


def test_neighbor_table_no_duplicate_known_entries():
    # both always awake: every hello reaches the other node, but discover
    # lists only the first, so no table learns a neighbour twice
    assert discover([0, 0], [[1], [0]], hello_ticks(10, 10, 1), 50) == [
        (0, 0, 0, 1), (0, 0, 1, 0),
    ]


def replayed_first_hearings(phases, adjacency, ticks, horizon):
    """oracles.hello_tick over every hello up to the horizon, in dispatch
    order (tick, later phase first, node id), as discover's events."""
    awake = awake_predicate(phases, ticks["period"], ticks["t_active_s"])
    known = [[] for _ in phases]
    hellos = sorted(
        (t, -phase, node)
        for node, phase in enumerate(phases)
        for t in range(phase, horizon + 1, ticks["hello_interval_s"])
    )
    return [
        (t, later, node, u)
        for t, later, node in hellos
        for u in oracles.hello_tick(node, t, adjacency[node], awake, known)
    ]


@st.composite
def hello_schedules(draw):
    """Small schedules; hello intervals often do not divide U, and then
    lcm(hello_interval, U) often exceeds the horizon."""
    n = draw(st.integers(1, 6))
    period = draw(st.integers(2, 16))
    ticks = hello_ticks(period, draw(st.integers(1, period)), draw(st.integers(1, 20)))
    linked = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adjacency = [[v for v in range(n) if v != u and linked[u * n + v]] for u in range(n)]
    phases = draw(st.lists(st.integers(0, 3 * period), min_size=n, max_size=n))
    return phases, adjacency, ticks, draw(st.integers(1, 150))


# lcm(7, 16) = 112 past a horizon of 100, with 7 not dividing U
LCM_PAST_HORIZON = ([0, 9, 30, 4], [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
                    hello_ticks(16, 5, 7), 100)
# 4 divides U = 12: discovery settles at max(phase) + 12
INTERVAL_DIVIDES_PERIOD = ([0, 5, 11], [[1, 2], [0, 2], [0, 1]], hello_ticks(12, 3, 4), 150)


@settings(max_examples=400, deadline=None)
@given(hello_schedules())
@example(LCM_PAST_HORIZON)
@example(INTERVAL_DIVIDES_PERIOD)
def test_discover_equals_a_replay_of_every_hello(schedule):
    assert discover(*schedule) == replayed_first_hearings(*schedule)


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
