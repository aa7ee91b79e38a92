"""Reference implementations that tests compare the model with: the dense
disk-graph adjacency that kernels.adjacency_csr must equal, a sampling
oracle for analytic values, the scalar hello that
dissemination.discover must equal, and the event-queue dispatch that
engine.dispatch must equal bit for bit given the same draws for each
walk."""

import numpy as np


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


def dispatch(phases, awake, adjacency, ticks, horizon, rw_length, rng):
    """Reference for engine.dispatch, with the same arguments and result:
    one event at a time in (tick, seq) order. Hellos and launches wait in
    a heap. Hops wait in a first-in-first-out queue, which stays sorted by
    (tick, seq) because every hop is due hop_latency after the event being
    dispatched, whose tick never decreases. Hellos are dispatched until
    discovery settles, at max(phase) + lcm(hello_interval, U)."""
    import heapq
    import math
    from collections import deque

    from rawsim import dissemination
    from rawsim.engine import Dispatch

    hello, launch = 0, 1
    n = len(phases)
    tables = [dissemination.NeighborTable() for _ in range(n)]
    known = [t.known for t in tables]
    draws = iter(())

    def draw():
        nonlocal draws
        for pick in draws:
            return pick
        draws = iter(rng.random(1024).tolist())
        return next(draws)

    hop_latency = ticks["hop_latency_s"]
    hello_interval = ticks["hello_interval_s"]
    advertise_period = ticks["advertise_period_s"]
    settled = max(phases) + math.lcm(hello_interval, ticks["period"])
    hello_end = min(settled, horizon + 1)
    # the first hellos take seqs before the first launches
    live = [node for node in range(n) if phases[node] <= horizon]
    first = [(kind, node) for kind in (hello, launch) for node in live]
    heap = [(phases[node], seq, kind, node) for seq, (kind, node) in enumerate(first)]
    heapq.heapify(heap)
    seq = len(heap)

    deposits = []
    launch_events = launches = dropped = hops_made = 0
    hops = deque()                     # (t, seq, msg), sorted as pushed
    while True:
        # seq is unique, so comparing entries never reaches the payload
        if hops and (not heap or hops[0] < heap[0]):
            t, _, msg = hops.popleft()
            hops_made += 1
            if dissemination.hop(msg, known[msg.current], awake, t, draw()):
                deposits.append((t, msg.current, msg.origin))
            elif t + hop_latency <= horizon:
                hops.append((t + hop_latency, seq, msg))
                seq += 1
            else:
                dropped += 1
            continue
        if not heap:
            break
        t, _, kind, node = heapq.heappop(heap)
        if kind == hello:
            hello_tick(node, t, adjacency[node], awake, known)
            if t + hello_interval < hello_end:
                heapq.heappush(heap, (t + hello_interval, seq, hello, node))
                seq += 1
            continue
        launch_events += 1
        if awake(node, t):
            launches += 1
            if rw_length == 0:
                deposits.append((t, node, node))
            elif t + hop_latency <= horizon:
                msg = dissemination.RWMessage(node, rw_length, node)
                hops.append((t + hop_latency, seq, msg))
                seq += 1
            else:
                dropped += 1
        if t + advertise_period <= horizon:
            heapq.heappush(heap, (t + advertise_period, seq, launch, node))
            seq += 1
    return Dispatch(
        deposits=deposits,
        launch_events=launch_events,
        launches=launches,
        hops=hops_made,
        dropped=dropped,
    )
