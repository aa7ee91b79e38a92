"""engine.dispatch against the event-queue reference in tests/oracles.py.

The two take the draws of the "walks" stream in different orders: the
queue in (tick, kind, id) order, dispatch walk by walk. Given the
reference's draws re-ranked walk by walk, dispatch must equal it bit for
bit; with their own draws the two must agree in distribution."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rawsim import dissemination, engine
from rawsim.dutycycle import to_ticks
from rawsim.engine import SimConfig, rng_stream, run
from rawsim.experiments import COVERAGE_VARIANTS, coverage_config
from rawsim.sink import coverage_fractions

S = 1_000_000  # ticks per second


class Replayed:
    """A stand-in for the "walks" generator that hands out given draws in
    order; past their end it gives NaN, which no hop can use."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size):
        head, self.draws = self.draws[:size], self.draws[size:]
        return np.array(head + [math.nan] * (size - len(head)))


def reference_draws(fn, ticks, horizon, rw_length):
    """fn, a dispatcher that steps its walks through oracles.step, wrapped
    to sort its deposit log and to record the draw it gives each walk's
    hops, keyed by (launch tick, origin) from the walk's own record; after
    a step, msg.ttl is the hops the walk has left."""
    phases, steps = [], []

    def walk_draw(args, _):
        msg, _, _, t, pick = args
        return (t - (rw_length - msg.ttl) * ticks["hop_latency_s"], msg.origin), pick

    def dispatcher(*args):
        phases.append(args[0])
        with oracles.recording(oracles, "step", walk_draw) as made:
            result = fn(*args)
        steps.extend(made)
        result.deposits.sort()
        return result

    def walk_major():
        """The recorded draws, walk by walk in launch order."""
        draws = {}
        for walk, pick in steps:
            draws.setdefault(walk, []).append(pick)
        _, start, origin = engine.launch_schedule(phases[0], ticks, horizon)
        walks = list(zip(start.tolist(), origin.tolist()))
        assert set(draws) <= set(walks)
        return [pick for walk in walks for pick in draws.get(walk, [])]

    return dispatcher, walk_major


def dispatched(fn, phases, adjacency, ticks, horizon, rw_length, rng):
    """fn's Dispatch and the known lists of the neighbour tables it built."""
    with oracles.recording(dissemination, "NeighborTable", lambda _, table: table.known) as made:
        result = fn(phases, adjacency, ticks, horizon, rw_length, rng)
    return result, made


@st.composite
def small_schedules(draw):
    """Schedules on a grid of a few ticks, where hellos, launches and hops
    often fall on one tick, and a hop may take longer than the advertise
    period."""
    n = draw(st.integers(1, 6))
    period = draw(st.integers(2, 16))
    hop = draw(st.integers(1, 5))
    t_active = draw(st.integers(1, period))
    ticks = {
        "period": period,
        "t_active_s": t_active,
        "hello_interval_s": draw(st.one_of(st.integers(hop + 1, 8), st.integers(1, 6))),
        "hop_latency_s": hop,
        "advertise_period_s": draw(st.integers(1, 20)),
    }
    linked = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adjacency = [
        [v for v in range(n) if v != u and linked[min(u, v) * n + max(u, v)]]
        for u in range(n)
    ]
    return dict(
        phases=draw(st.lists(st.integers(0, 2 * period), min_size=n, max_size=n)),
        adjacency=adjacency,
        ticks=ticks,
        horizon=draw(st.integers(1, 120)),
        rw_length=draw(st.integers(0, 12)),
        seed=draw(st.integers(0, 3)),
    )


# Six nodes launch at tick 0 and hop on the same ticks; hops take longer
# than the advertise period.
ALL_AT_PHASE_ZERO = dict(
    phases=[0] * 6,
    adjacency=[[v for v in range(6) if v != u] for u in range(6)],
    ticks={"period": 10, "t_active_s": 4, "hello_interval_s": 3, "hop_latency_s": 2,
           "advertise_period_s": 1},
    horizon=60, rw_length=5, seed=1,
)


@settings(max_examples=400, deadline=None)
@given(small_schedules(), st.sampled_from([1, 2, 5, engine.BLOCK]))
@example(ALL_AT_PHASE_ZERO, 1)
def test_dispatch_equals_the_reference_on_tied_schedules(schedule, block):
    args = {k: v for k, v in schedule.items() if k != "seed"}
    args["rng"] = rng_stream(schedule["seed"], "walks")
    oracle, walk_major = reference_draws(
        oracles.dispatch, schedule["ticks"], schedule["horizon"], schedule["rw_length"]
    )
    expected = dispatched(oracle, **args)
    replayed = Replayed(walk_major())
    # the block size changes no draw
    with oracles.patched(engine, "BLOCK", block):
        closed = dispatched(engine.dispatch, **dict(args, rng=replayed))
    assert closed == expected


@settings(max_examples=200, deadline=None)
@given(small_schedules())
def test_launch_schedule_equals_the_reference_launches(schedule):
    phases, ticks, horizon = schedule["phases"], schedule["ticks"], schedule["horizon"]
    _, start, origin = engine.launch_schedule(phases, ticks, horizon)
    assert list(zip(start.tolist(), origin.tolist())) == oracles.launches(phases, ticks, horizon)


def outputs(config, fn, rng=None):
    """A run's simulated text and a copy of its Dispatch, with fn as the
    dispatcher and, if given, rng for the "walks" stream."""
    with (
        oracles.patched(engine, "dispatch", lambda *args: fn(*args[:-1], rng or args[-1])),
        oracles.recording(
            engine, "dispatch",
            lambda _, result: dataclasses.replace(result, deposits=list(result.deposits)),
        ) as seen,
    ):
        trace = run(config)
    return oracles.simulated_text(trace), seen[0]


@settings(max_examples=40, deadline=None)
@given(
    variant=st.sampled_from(COVERAGE_VARIANTS),
    seed=st.integers(0, 10_000),
    latency=st.sampled_from([0.01, 0.25, 0.75, 1.0, 2.5]),
    rw_length=st.sampled_from(["0", "4", "n/2"]),
    view=st.sampled_from(["size:sqrt", "size:2", "timeout:15"]),
    wake=st.booleans(),
    # 0.5 s is shorter than some hops
    advertise=st.sampled_from([None, 0.5, 2.5, 7.0]),
)
def test_runs_equal_the_reference(variant, seed, latency, rw_length, view, wake, advertise):
    config = coverage_config(variant, seed=seed).with_updates(
        n=30, horizon_s=80.0, sink_start_s=20.0, sink_gap_s=3.0,
        hop_latency_s=latency, rw_length=rw_length, view_policy=view,
        sink_wake_sleeping=wake, advertise_period_s=advertise,
    )
    oracle, walk_major = reference_draws(
        oracles.dispatch, config.ticks(), to_ticks(config.horizon_s), config.resolved_rw_length()
    )
    expected = outputs(config, oracle)
    closed = outputs(config, engine.dispatch, Replayed(walk_major()))
    assert closed == expected
    assert closed[1].hops > 0 or rw_length == "0"


def paired_z(a, b):
    """Per column, the mean of a - b over its standard error; 0 where every
    pair is equal."""
    d = np.asarray(a) - np.asarray(b)
    se = d.std(axis=0, ddof=1) / math.sqrt(d.shape[0])
    mean = d.mean(axis=0)
    assert np.all((se > 0) | (mean == 0))
    return np.divide(mean, se, out=np.zeros_like(mean), where=se > 0)


def test_coverage_agrees_with_the_reference_in_distribution():
    # each engine with its own draws: over 100 seeds the mean coverage per
    # visit of dispatch and the queue must agree within sampling error
    base = SimConfig(
        n=20, width=400.0, height=400.0, t_active_s=3.0, t_sleep_s=3.0,
        horizon_s=40.0, sink_start_s=20.0, sink_gap_s=2.0, sink_visits=6,
    )
    curves = {engine.dispatch: [], oracles.dispatch: []}
    for seed in range(100):
        config = base.with_updates(seed=seed)
        for fn, rows in curves.items():
            with oracles.patched(engine, "dispatch", fn):
                rows.append(coverage_fractions(run(config).sink_report))
    closed, queued = curves[engine.dispatch], curves[oracles.dispatch]
    assert np.mean(closed) > 6 / 20  # walks carry origins beyond the visited nodes
    assert np.abs(paired_z(closed, queued)).max() < 3.5


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

    with oracles.patched(engine, "rng_stream", stream):
        trace = run(config)
    return trace.event_counts, walks[0].sizes


@pytest.mark.parametrize("config", [
    coverage_config("normal", seed=3).with_updates(horizon_s=200.0),
    # every phase 0: 400 walks launch at one tick each period
    coverage_config("all-active", seed=3).with_updates(n=400, horizon_s=40.0),
], ids=["normal-n100", "all-active-n400"])
def test_every_draw_call_is_one_block(config):
    counts, sizes = walk_draw_sizes(config)
    assert set(sizes) == {engine.BLOCK}
    assert len(sizes) == -(-counts["hop"] // engine.BLOCK)


def test_walks_that_make_no_hops_draw_nothing():
    config = coverage_config("normal", seed=3).with_updates(horizon_s=200.0, rw_length="0")
    counts, sizes = walk_draw_sizes(config)
    assert counts["launch"] > 0 and sizes == []


def test_neighbour_tables_memory_is_bounded():
    """n=1600 always-awake nodes of phase 0 on the 1000 m field, about
    404,000 directed edges, all heard at tick 0: a Python tuple per
    hearing took the tracemalloc peak of dispatch to 98.5 MiB; discover's
    arrays keep it under 64 MiB."""
    config = coverage_config("all-active", seed=1).with_updates(
        n=1600, horizon_s=30.0, rw_length="0", sink_enabled=False
    )
    phases = to_ticks(run(config.with_updates(dissemination_enabled=False)).phases)
    adjacency = engine.build_topology(config).neighbors
    args = phases, adjacency, config.ticks(), to_ticks(config.horizon_s), 0
    tracemalloc.start()
    try:
        _, known = dispatched(engine.dispatch, *args, rng_stream(1, "walks"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert [sorted(table) for table in known] == [list(nb) for nb in adjacency]


def meet_at_10_s(hello_interval, rw_length, walk, late):
    """Nodes 0 (phase 0) and 1 (phase 9.5 s) in range, U = 10 s, active
    1 s, hops every 0.25 s, up to 10 s; with late, also node 2 (phase
    20 s), in range of node 0 only, up to 20 s. Returns discover's tables
    as (tick, sender) rows, the engine's neighbour tables and where the
    walk launched at node walk's phase deposits."""
    phases = [0, 19 * S // 2] + [20 * S] * late
    adjacency = [[1, 2], [0], [0]] if late else [[1], [0]]
    ticks = {"period": 10 * S, "t_active_s": S, "hello_interval_s": hello_interval,
             "hop_latency_s": S // 4, "advertise_period_s": 10 * S}
    horizon = (10 + 10 * late) * S
    tables = dissemination.discover(phases, adjacency, ticks, horizon)
    indptr, senders, heard = (a.tolist() for a in tables)
    rows = [list(zip(heard[a:b], senders[a:b])) for a, b in zip(indptr, indptr[1:])]
    closed, known = dispatched(
        engine.dispatch, phases, adjacency, ticks, horizon, rw_length, rng_stream(1, "walks")
    )
    end = phases[walk] + rw_length * S // 4
    stored = {origin: node for t, node, origin in closed.deposits if t == end}
    return rows, known, stored[walk]


HELLO_INTERVALS = pytest.mark.parametrize(
    "hello_interval", [S // 2, S // 4, S // 8], ids=[">", "=", "<"]
)
WALKS = pytest.mark.parametrize("rw_length, walk, storage", [(40, 0, 1), (2, 1, 0)])


# Nodes 0 and 1 first share a window at 10 s, where each first hears the
# other, at the tick of a hop of each node's first walk; before it neither
# knows anyone, so every hop stalls. A hop sees the hearings of its own
# tick, whatever the hello interval: hop 40 of node 0's walk moves it to
# node 1, and hop 2 of node 1's walk moves it to node 0. Had either hop
# missed the hearing it would have stalled, and its walk would end at its
# origin. These are the last hearings of the run, so discovery has settled
# at 10 s and both hops read their node's whole table.
@HELLO_INTERVALS
@WALKS
def test_a_hearing_on_a_hop_tick_decides_the_storage_node(
    hello_interval, rw_length, walk, storage
):
    heard, known, stored = meet_at_10_s(hello_interval, rw_length, walk, late=False)
    assert heard == [[(10 * S, 1)], [(10 * S, 0)]]
    assert known == [[1], [0]]
    assert stored == storage


# The same walks with node 2 first heard at 20 s: discovery settles there,
# so the hops at 10 s read their tables only up to the hearings of their
# own tick, and must see those.
@HELLO_INTERVALS
@WALKS
def test_a_hop_before_discovery_settles_hears_its_own_tick(
    hello_interval, rw_length, walk, storage
):
    heard, known, stored = meet_at_10_s(hello_interval, rw_length, walk, late=True)
    assert heard == [[(10 * S, 1), (20 * S, 2)], [(10 * S, 0)], [(20 * S, 0)]]
    assert known == [[1, 2], [0], [0]]
    assert stored == storage


# Three nodes of phase 0 hear each other at tick 0 and launch every 10
# ticks. Each is awake only in the first tick of its period, so at every hop,
# on ticks 1 to 5 after a launch, every known neighbour is asleep and the
# pick stalls. The walk launched at 90 has 4 hops before the horizon at 94.
STALLING = dict(
    phases=[0, 0, 0],
    adjacency=[[1, 2], [0, 2], [0, 1]],
    ticks={"period": 10, "t_active_s": 1, "hello_interval_s": 1, "hop_latency_s": 1,
           "advertise_period_s": 10},
    horizon=94, rw_length=5,
)


def test_a_walk_whose_every_pick_stalls_deposits_at_its_origin():
    closed, known = dispatched(engine.dispatch, **STALLING, rng=rng_stream(1, "walks"))
    assert known == STALLING["adjacency"]
    assert closed.deposits == [(t + 5, o, o) for t in range(0, 90, 10) for o in range(3)]
    assert (closed.launches, closed.dropped) == (30, 3)
    assert closed.hops == 27 * 5 + 3 * 4


@settings(max_examples=200, deadline=None)
@given(small_schedules())
def test_dispatch_counts_rw_length_hops_per_deposited_walk(schedule):
    # a walk whose rw_length hops fit before the horizon deposits at its
    # last one; any other is dropped after the hops that fit
    args = {k: v for k, v in schedule.items() if k != "seed"}
    closed, _ = dispatched(engine.dispatch, **args, rng=rng_stream(schedule["seed"], "walks"))
    ticks, horizon, length = schedule["ticks"], schedule["horizon"], schedule["rw_length"]
    latency = ticks["hop_latency_s"]
    _, start, origin = engine.launch_schedule(schedule["phases"], ticks, horizon)
    fit = [(horizon - t) // latency for t in start.tolist()]
    whole = [(t, o) for t, o, k in zip(start.tolist(), origin.tolist(), fit) if k >= length]
    assert sorted((t - length * latency, o) for t, _, o in closed.deposits) == sorted(whole)
    assert closed.dropped == closed.launches - len(whole)
    assert closed.hops == length * len(whole) + sum(k for k in fit if k < length)
