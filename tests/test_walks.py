"""Model invariants of walks that read no hash: they hold for any draw order,
so they catch a broken walk rule on their own. Each run is checked against
a replay of every hello with oracles.hello_tick and against launches
computed from the phases, not against the engine's own schedule."""

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import awake_predicate
from rawsim import dissemination, engine
from rawsim.dutycycle import to_ticks
from rawsim.engine import SimConfig, build_topology, run


@st.composite
def small_configs(draw):
    """Short runs of a few nodes, duty-cycled or always awake, with walks
    of zero, one or a few hops."""
    return SimConfig(
        n=draw(st.integers(2, 25)),
        width=draw(st.sampled_from([300.0, 600.0])),
        height=draw(st.sampled_from([300.0, 600.0])),
        t_active_s=draw(st.sampled_from([0.5, 1.0, 3.0])),
        t_sleep_s=draw(st.sampled_from([0.0, 2.0, 9.0])),
        hello_interval_s=draw(st.sampled_from([0.25, 0.5, 1.0, 1.5])),
        hop_latency_s=draw(st.sampled_from([0.01, 0.25, 0.5, 1.0, 4.0])),
        advertise_period_s=draw(st.sampled_from([None, 2.0, 3.5])),
        rw_length=draw(st.sampled_from(["0", "1", "3", "n/2"])),
        sink_wake_sleeping=draw(st.booleans()),
        sink_start_s=5.0,
        sink_gap_s=draw(st.sampled_from([0.5, 2.0])),
        horizon_s=draw(st.sampled_from([15.0, 40.0])),
        seed=draw(st.integers(0, 10**6)),
    )


def first_hearings(config, phases, period, t_active):
    """first[receiver][sender]: the tick the receiver first heard the
    sender, from oracles.hello_tick over every hello up to the horizon."""
    awake = awake_predicate(phases, period, t_active)
    adjacency = build_topology(config).neighbors
    hello, horizon = to_ticks(config.hello_interval_s), to_ticks(config.horizon_s)
    hellos = sorted(
        (t, node) for node, phase in enumerate(phases) for t in range(phase, horizon + 1, hello)
    )
    known = [[] for _ in phases]
    first = [{} for _ in phases]
    for t, node in hellos:
        for receiver in oracles.hello_tick(node, t, adjacency[node], awake, known):
            first[receiver][node] = t
    return first


def within_hops(first, origin, hops):
    """The nodes a walk from origin can reach in at most hops moves, each to
    a node the mover has heard."""
    reach = {origin: 0}
    queue = deque([origin])
    while queue:
        node = queue.popleft()
        if reach[node] < hops:
            for nxt in first[node]:
                if nxt not in reach:
                    reach[nxt] = reach[node] + 1
                    queue.append(nxt)
    return set(reach)


def observed_run(config):
    """A run's trace, its deposit log and every pick as (node, tick,
    result)."""
    picks, dispatched = [], []
    real_pick, real_dispatch = dissemination.pick_next, engine.dispatch

    def recording_pick(node, known, schedule, t, pick):
        picks.append((node, t, real_pick(node, known, schedule, t, pick)))
        return picks[-1][2]

    def recording_dispatch(*args):
        walked = real_dispatch(*args)
        dispatched.append(list(walked.deposits))  # the replay consumes the log
        return walked

    dissemination.pick_next, engine.dispatch = recording_pick, recording_dispatch
    try:
        trace = run(config)
    finally:
        dissemination.pick_next, engine.dispatch = real_pick, real_dispatch
    return trace, dispatched[0], picks


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_walk_invariants_hold_on_random_configs(config):
    trace, deposits, picks = observed_run(config)
    assert trace.launches == trace.depositions + trace.dropped_in_flight
    assert trace.depositions == len(deposits)

    phases = to_ticks(trace.phases).tolist()
    period, t_active = to_ticks(config.period), to_ticks(config.t_active_s)
    awake = awake_predicate(phases, period, t_active)
    first = first_hearings(config, phases, period, t_active)
    # each move goes to a node the mover had heard by the hop tick and
    # that is awake then
    for node, t, result in picks:
        if result != node:
            assert first[node].get(result, math.inf) <= t, (node, t, result)
            assert awake(result, t), (node, t, result)

    # each deposit ends a walk launched rw_length hops earlier, at most
    # one per walk, within rw_length moves of its origin
    horizon = to_ticks(config.horizon_s)
    advertise = to_ticks(config.resolved_advertise_period())
    launched = {
        (t, node)
        for node, phase in enumerate(phases)
        for t in range(phase, horizon + 1, advertise)
        if awake(node, t)
    }
    assert trace.launches == len(launched)
    length = config.resolved_rw_length()
    walk_ends = [(t - length * to_ticks(config.hop_latency_s), o) for t, _, o in deposits]
    assert set(walk_ends) <= launched
    assert len(set(walk_ends)) == len(walk_ends)
    for t, storage, origin in deposits:
        assert storage in within_hops(first, origin, length), (t, storage, origin)


@settings(max_examples=30, deadline=None)
@given(small_configs())
def test_zero_length_walks_cover_exactly_the_visited_nodes(config):
    config = config.with_updates(rw_length="0", sink_wake_sleeping=True)
    trace = run(config)
    visited = set()
    for visit in trace.sink_report.visits:
        visited.add(visit.node)
        assert visit.cumulative_origins == len(visited)
