"""Model invariants of walks that read no hash: they hold for any draw order,
so they catch a broken walk rule on their own. Each run is checked against
oracles.first_hearings and oracles.launches, not against the engine's own
schedule."""

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
    def pick(args, result):
        node, _, _, t, _ = args
        return node, t, result

    with (
        oracles.recording(dissemination, "pick_next", pick) as picks,
        # a copy: the replay consumes the log
        oracles.recording(engine, "dispatch", lambda _, walked: list(walked.deposits)) as logs,
    ):
        trace = run(config)
    return trace, logs[0], picks


@settings(max_examples=60, deadline=None)
@given(small_configs())
def test_walk_invariants_hold_on_random_configs(config):
    trace, deposits, picks = observed_run(config)
    assert trace.launches == trace.depositions + trace.dropped_in_flight
    assert trace.depositions == len(deposits)

    phases = to_ticks(trace.phases).tolist()
    ticks, horizon = config.ticks(), to_ticks(config.horizon_s)
    awake = awake_predicate(phases, ticks["period"], ticks["t_active_s"])
    # first[receiver][sender]: the tick the receiver first heard the sender
    adjacency = build_topology(config).neighbors
    tables = oracles.first_hearings(phases, adjacency, ticks, horizon)
    indptr, senders, heard = (a.tolist() for a in tables)
    first = [dict(zip(senders[a:b], heard[a:b])) for a, b in zip(indptr, indptr[1:])]
    # each move goes to a node the mover had heard by the hop tick and
    # that is awake then
    for node, t, result in picks:
        if result != node:
            assert first[node].get(result, math.inf) <= t, (node, t, result)
            assert awake(result, t), (node, t, result)

    # each deposit ends a walk launched rw_length hops earlier, at most
    # one per walk, within rw_length moves of its origin
    launched = set(oracles.launches(phases, ticks, horizon))
    assert trace.launches == len(launched)
    length = config.resolved_rw_length()
    walk_ends = [(t - length * ticks["hop_latency_s"], o) for t, _, o in deposits]
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
