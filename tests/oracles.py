"""Reference implementations that tests compare the model with, one per
rule, and one way to observe the engine.

References: the dense disk-graph adjacency that kernels.adjacency_csr
must equal (dense_adjacency), a sampling oracle for analytic values
(mean_ideal_intersection), the scalar awake rule that
dissemination.pick_next and kernels.awake must equal (awake_predicate),
the scalar hello (hello_tick) and its replay over every hello, whose
neighbour tables dissemination.discover and the engine's tables must
equal (first_hearings), every awake launch (launches), and the
event-queue dispatch that engine.dispatch must equal bit for bit given
the same "walks" stream (dispatch, with RWMessage): like the engine, it
draws each walk's picks at its launch, in launch order. They share the
model's one tie rule, (tick, node id): equal-tick hellos go by sender and
equal-tick launches by node. simulated_text is the text of a run that the
golden pins hash and that tests compare runs by.

Observing the engine: patched replaces an attribute for the span of a
with block; recording wraps a function so that each call is kept. Both
restore the attribute on exit, also inside a Hypothesis example, where
pytest's monkeypatch fixture does not.
"""

import contextlib
import json
from dataclasses import dataclass

import numpy as np


def simulated_text(trace):
    """What a run simulated: its summary() metrics and event counts as
    sorted JSON, then sink_csv() and samples_csv(). The config echo, seed
    and tick length of summary.json are left out, so a new config key or a
    new top-level block of summary.json moves none of the pins that hash
    this."""
    numbers = {"metrics": trace.summary(), "event_counts": trace.event_counts}
    return (
        json.dumps(numbers, indent=2, sort_keys=True) + "\n"
        + trace.sink_csv() + trace.samples_csv()
    )


def dense_adjacency(xs, ys, radio_range):
    """Reference for kernels.adjacency_csr: the whole n x n comparison."""
    n = xs.shape[0]
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    adj = dx * dx + dy * dy <= radio_range * radio_range
    np.fill_diagonal(adj, False)
    rows, cols = np.nonzero(adj)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(np.int64)


def mean_ideal_intersection(n, k, pairs, rng):
    """Draw view pairs uniformly without replacement and average their
    overlap."""
    total = 0
    for _ in range(pairs):
        a = rng.choice(n, size=k, replace=False)
        b = rng.choice(n, size=k, replace=False)
        total += len(set(a.tolist()) & set(b.tolist()))
    return total / pairs


def awake_predicate(phases, period, t_active):
    """The awake rule as awake(node, t) -> bool, a pure function of time;
    phases, period, t_active and t are integer ticks.

    A node is awake once its phase has passed and t falls in the active
    part of its period; before its phase (the initial timeout) it is not.
    dissemination.pick_next tests the same rule on its candidate and
    kernels.awake on arrays; kernels.active_counts counts it.
    """
    phases = np.asarray(phases, dtype=np.int64).tolist()

    def awake(node, t):
        dt = t - phases[node]
        return dt >= 0 and dt % period < t_active

    return awake


def hello_tick(node, now, neighbors, awake, known):
    """One hello broadcast at tick now: an awake node is heard by every
    awake topological neighbour u, and appended to known[u] unless u knew
    it already. Returns the receivers that heard node for the first time."""
    if not awake(node, now):
        return []
    first = [u for u in neighbors if awake(u, now) and node not in known[u]]
    for u in first:
        known[u].append(node)
    return first


def first_hearings(phases, adjacency, ticks, horizon):
    """hello_tick over every hello sent up to the horizon, in (tick,
    sender) order, as discover's neighbour tables (indptr, senders, heard):
    int64 arrays in CSR by receiver, each row in hearing order with the
    tick of each hearing."""
    phases = np.asarray(phases, dtype=np.int64).tolist()
    awake = awake_predicate(phases, ticks["period"], ticks["t_active_s"])
    known = [[] for _ in phases]
    heard = [[] for _ in phases]
    hellos = sorted(
        (t, node)
        for node, phase in enumerate(phases)
        for t in range(phase, horizon + 1, ticks["hello_interval_s"])
    )
    for t, node in hellos:
        for u in hello_tick(node, t, adjacency[node], awake, known):
            heard[u].append(t)

    def flat(rows):
        return np.array([x for row in rows for x in row], dtype=np.int64)

    return np.cumsum([0, *map(len, known)], dtype=np.int64), flat(known), flat(heard)


def launches(phases, ticks, horizon):
    """Every walk launched up to the horizon, as sorted (tick, node): a
    node is due to launch at its phase and every advertise period after
    it, and launches iff it is awake then."""
    phases = np.asarray(phases, dtype=np.int64).tolist()
    awake = awake_predicate(phases, ticks["period"], ticks["t_active_s"])
    return sorted(
        (t, node)
        for node, phase in enumerate(phases)
        for t in range(phase, horizon + 1, ticks["advertise_period_s"])
        if awake(node, t)
    )


@contextlib.contextmanager
def patched(owner, name, value):
    """owner.name set to value inside the with block."""
    real = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, real)


@contextlib.contextmanager
def recording(owner, name, keep):
    """owner.name wrapped inside the with block: each call goes to the
    function it replaced and appends keep(args, result) to the list
    this yields. keep runs before the caller sees the result."""
    real = getattr(owner, name)
    kept = []

    def wrapper(*args, **kwargs):
        result = real(*args, **kwargs)
        kept.append(keep(args, result))
        return result

    with patched(owner, name, wrapper):
        yield kept


@dataclass
class RWMessage:
    """The reference's walk in flight: its origin, the hops it has left
    (ttl), the node holding it and the picks drawn at its launch that its
    hops have not used yet."""
    origin: int
    ttl: int
    current: int
    picks: list


def dispatch(phases, adjacency, ticks, horizon, rw_length, rng):
    """Reference for engine.dispatch, with the same arguments and result:
    one event at a time from one heap keyed (tick, kind, id). At a tick,
    hellos go first, by sender, so a hop hears every hello of its own
    tick; then launches, by node; then hops, by walk index. Hellos are
    dispatched until discovery settles, at max(phase) + lcm(hello_interval,
    U). Each walk is an RWMessage. At its launch at tick T it draws
    min(rw_length, (horizon - T) // hop_latency) picks from rng, so walks
    take their picks in launch order, as engine.dispatch does. Each hop
    goes through dissemination.hop with the next pick and the run's
    dutycycle.Schedule, and takes one off the ttl; the walk deposits where
    the hop that takes its ttl to zero ends (at once when launched with a
    ttl of zero), or is dropped when its next hop falls past the horizon.
    Either way it must have used every pick it drew. Hellos and launches
    test awake_predicate. The deposit log is sorted."""
    import heapq
    import math

    from rawsim import dissemination
    from rawsim.dutycycle import Schedule
    from rawsim.engine import Dispatch

    hello, launch, hop = 0, 1, 2
    n = len(phases)
    tables = [dissemination.NeighborTable() for _ in range(n)]
    known = [t.known for t in tables]
    period, t_active = ticks["period"], ticks["t_active_s"]
    awake = awake_predicate(phases, period, t_active)
    schedule = Schedule(np.asarray(phases, dtype=np.int64).tolist(), period, t_active)
    hop_latency = ticks["hop_latency_s"]
    hello_interval = ticks["hello_interval_s"]
    advertise_period = ticks["advertise_period_s"]
    settled = max(phases) + math.lcm(hello_interval, period)
    hello_end = min(settled, horizon + 1)
    heap = [(phases[node], kind, node)
            for kind in (hello, launch) for node in range(n) if phases[node] <= horizon]
    heapq.heapify(heap)

    walks = []                         # RWMessage by walk index
    deposits = []
    launch_events = dropped = hops_made = 0
    while heap:
        t, kind, i = heapq.heappop(heap)
        if kind == hello:
            hello_tick(i, t, adjacency[i], awake, known)
            if t + hello_interval < hello_end:
                heapq.heappush(heap, (t + hello_interval, hello, i))
            continue
        if kind == launch:
            launch_events += 1
            if t + advertise_period <= horizon:
                heapq.heappush(heap, (t + advertise_period, launch, i))
            if not awake(i, t):
                continue
            w, fit = len(walks), min(rw_length, (horizon - t) // hop_latency)
            msg = RWMessage(i, rw_length, i, rng.random(fit).tolist())
            walks.append(msg)
        else:
            w, msg = i, walks[i]
            hops_made += 1
            msg.ttl -= 1
            msg.current = dissemination.hop(
                msg.current, known[msg.current], schedule, t, msg.picks.pop(0)
            )
        if msg.ttl > 0 and t + hop_latency <= horizon:
            heapq.heappush(heap, (t + hop_latency, hop, w))
            continue
        assert not msg.picks, "a walk ended with picks it drew left over"
        if msg.ttl == 0:
            deposits.append((t, msg.current, msg.origin))
        else:
            dropped += 1
    return Dispatch(
        deposits=sorted(deposits),
        launch_events=launch_events,
        launches=len(walks),
        hops=hops_made,
        dropped=dropped,
    )
