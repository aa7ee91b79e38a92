"""engine.dispatch against the event-queue reference in tests/oracles.py:
the closed-form schedule must give the same deposit log, counters,
neighbour tables and run outputs, bit for bit."""

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rawsim import dissemination, engine
from rawsim.dutycycle import awake_predicate
from rawsim.engine import rng_stream, run
from rawsim.experiments import COVERAGE_VARIANTS, coverage_config

S = 1_000_000  # ticks per second


@contextlib.contextmanager
def patched(owner, name, value):
    real = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, real)


def dispatched(fn, phases, period, t_active, adjacency, ticks, horizon, rw_length, seed):
    """fn's Dispatch and the known lists of the neighbour tables it built."""
    made = []

    class RecordedTable(dissemination.NeighborTable):
        def __init__(self):
            super().__init__()
            made.append(self)

    awake = awake_predicate(phases, period, t_active)
    with patched(dissemination, "NeighborTable", RecordedTable):
        result = fn(phases, awake, adjacency, ticks, horizon, rw_length,
                    rng_stream(seed, "walks"))
    return result, [t.known for t in made]


@st.composite
def small_schedules(draw):
    """Schedules on a grid of a few ticks, where hellos, launches and hops
    often fall on one tick; half of them have equal hello and hop
    intervals."""
    n = draw(st.integers(1, 6))
    period = draw(st.integers(2, 16))
    hop = draw(st.integers(1, 5))
    t_active = draw(st.integers(1, period))
    ticks = {
        "period": period,
        "t_active_s": t_active,
        "hello_interval_s": draw(st.one_of(st.just(hop), st.integers(1, 6))),
        "hop_latency_s": hop,
        "advertise_period_s": draw(st.integers(hop + 1, 20)),
    }
    linked = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adjacency = [
        [v for v in range(n) if v != u and linked[min(u, v) * n + max(u, v)]]
        for u in range(n)
    ]
    return dict(
        phases=draw(st.lists(st.integers(0, 2 * period), min_size=n, max_size=n)),
        period=period,
        t_active=t_active,
        adjacency=adjacency,
        ticks=ticks,
        horizon=draw(st.integers(1, 120)),
        rw_length=draw(st.integers(0, 12)),
        seed=draw(st.integers(0, 3)),
    )


# Equal hello and hop intervals, where a hello and a hop tie with the
# sender's phase equal to the walk's launch tick: the hello goes first.
EQUAL_PHASE_AND_LAUNCH = dict(
    phases=[5, 7, 8], period=5, t_active=3, adjacency=[[1, 2], [0, 2], [0, 1]],
    ticks={"period": 5, "t_active_s": 3, "hello_interval_s": 3, "hop_latency_s": 3,
           "advertise_period_s": 8},
    horizon=85, rw_length=2, seed=0,
)

# Six nodes launch at tick 0, so at BLOCK = 1 each of their steps holds
# more walks than 2*BLOCK and the block shrinks to one step.
ALL_AT_PHASE_ZERO = dict(
    phases=[0] * 6, period=10, t_active=4,
    adjacency=[[v for v in range(6) if v != u] for u in range(6)],
    ticks={"period": 10, "t_active_s": 4, "hello_interval_s": 2, "hop_latency_s": 2,
           "advertise_period_s": 7},
    horizon=60, rw_length=5, seed=1,
)


@settings(max_examples=400, deadline=None)
@given(small_schedules(), st.sampled_from([1, 2, 5, engine.BLOCK]))
@example(EQUAL_PHASE_AND_LAUNCH, engine.BLOCK)
@example(ALL_AT_PHASE_ZERO, 1)
def test_dispatch_equals_the_reference_on_tied_schedules(schedule, block):
    # small blocks end at many step boundaries and take the shrink path; a
    # step is never split across blocks
    with patched(engine, "BLOCK", block):
        closed = dispatched(engine.dispatch, **schedule)
    assert closed == dispatched(oracles.dispatch, **schedule)


class RecordedDraws:
    """Wraps a generator and records the size of every random call."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def random(self, size):
        self.sizes.append(size)
        return self.rng.random(size)


def walk_draw_sizes(config):
    """A run's event counts and the sizes of its "walks" draws."""
    walks = []

    def stream(seed, label):
        if label != "walks":
            return rng_stream(seed, label)
        walks.append(RecordedDraws(rng_stream(seed, label)))
        return walks[-1]

    with patched(engine, "rng_stream", stream):
        trace = run(config)
    return trace.event_counts, walks[0].sizes


@pytest.mark.parametrize("config", [
    coverage_config("normal", seed=3).with_updates(horizon_s=200.0),
    # every phase 0: 400 walks launch at one tick each period
    coverage_config("all-active", seed=3).with_updates(n=400, horizon_s=40.0),
], ids=["normal-n100", "all-active-n400"])
def test_each_block_draws_at_most_twice_block(config):
    counts, sizes = walk_draw_sizes(config)
    assert 1 <= min(sizes) and max(sizes) <= 2 * engine.BLOCK
    assert sum(sizes) == counts["hop"]
    # blocks shrink by the hops in them, not by steps x walks, so a walk
    # launched late in a block does not halve it
    assert sum(sizes) / len(sizes) >= engine.BLOCK / 2


def test_walks_that_make_no_hops_draw_nothing():
    config = coverage_config("normal", seed=3).with_updates(horizon_s=200.0, rw_length="0")
    counts, sizes = walk_draw_sizes(config)
    assert counts["launch"] > 0 and sizes == []


def outputs(config, fn):
    """A run's output bytes and its Dispatch, with fn as the dispatcher."""
    seen = []

    def recording(*args):
        seen.append(fn(*args))
        return seen[-1]

    with patched(engine, "dispatch", recording):
        trace = run(config)
    return trace.summary_json() + trace.sink_csv() + trace.samples_csv(), seen


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(COVERAGE_VARIANTS),
    seed=st.integers(0, 10_000),
    # below, at and above the 1 s hello interval
    latency=st.sampled_from([0.01, 0.25, 1.0, 1.5]),
    rw_length=st.sampled_from(["0", "4", "n/2"]),
    view=st.sampled_from(["size:sqrt", "size:2", "timeout:15"]),
    wake=st.booleans(),
    advertise=st.sampled_from([None, 2.5, 7.0]),
)
def test_runs_equal_the_reference(variant, seed, latency, rw_length, view, wake, advertise):
    config = coverage_config(variant, seed=seed).with_updates(
        n=30, horizon_s=80.0, sink_start_s=20.0, sink_gap_s=3.0,
        hop_latency_s=latency, rw_length=rw_length, view_policy=view,
        sink_wake_sleeping=wake, advertise_period_s=advertise,
    )
    closed = outputs(config, engine.dispatch)
    assert closed == outputs(config, oracles.dispatch)
    assert closed[1][0].hops > 0 or rw_length == "0"


# Two nodes in range, U = 10 s, active 1 s, hellos and hops every 0.25 s.
# Node 0 (phase 0) and node 1 (phase 9.5 s) first share a window at 10 s,
# where each hears the other's hello, at the tick of a hop of each node's
# first walk. Node 0's walk was launched at 0, at or before node 1's
# phase, so node 1's hello comes first and hop 40 moves the walk to node 1;
# hop 41 takes it back. Node 1's walk was launched at 9.5 s, after node
# 0's phase, so its hop 2 comes first and stalls; hop 3 moves it to node 0.
# Either tie taken the other way ends that walk at node 1 instead.
@pytest.mark.parametrize("rw_length, walk, storage", [(41, 0, 0), (3, 1, 0)])
def test_equal_hello_and_hop_latency_tie_decides_the_storage_node(rw_length, walk, storage):
    schedule = dict(
        phases=[0, 19 * S // 2],
        period=10 * S,
        t_active=S,
        adjacency=[[1], [0]],
        ticks={"period": 10 * S, "t_active_s": S, "hello_interval_s": S // 4,
               "hop_latency_s": S // 4, "advertise_period_s": 10 * S},
        horizon=11 * S,
        rw_length=rw_length,
        seed=1,
    )
    closed, known = dispatched(engine.dispatch, **schedule)
    assert (closed, known) == dispatched(oracles.dispatch, **schedule)
    deposits = {origin: (t, node) for t, node, origin in closed.deposits}
    launched = schedule["phases"][walk]
    assert deposits[walk] == (launched + rw_length * S // 4, storage)
