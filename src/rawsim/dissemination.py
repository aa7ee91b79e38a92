"""Node-side dissemination protocol: random-walk advertisement, neighbour
discovery from hellos in closed form (discover), and view management at
storage motes.

A node advertises itself by launching a random walk carrying its id (the
walk's origin). A walk of hop budget d makes exactly d steps, each one
hop whether the walk moves or stalls; the node holding it after its d-th
step becomes the storage mote and records <origin, time> in its view. A
node's sensor reading is not modelled, because no metric reads it:
coverage counts origins.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InvalidConfigError


@dataclass(frozen=True)
class SizeBased:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidConfigError(f"view size bound must be >= 1, got {self.k}")


@dataclass(frozen=True)
class TimeoutBased:
    tau: float

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise InvalidConfigError(f"view timeout must be finite, got {self.tau}")
        if self.tau <= 0:
            raise InvalidConfigError(f"view timeout must be > 0, got {self.tau}")


def parse_view_policy(text, n):
    """Parse "size:K" or "timeout:TAU"; "size:sqrt" means ceil(sqrt(n))."""
    kind, _, value = text.partition(":")
    kind = kind.strip().lower()
    value = value.strip()
    if kind not in ("size", "timeout"):
        raise InvalidConfigError(f"unknown view policy {text!r}")
    if kind == "size" and value == "sqrt":
        return SizeBased(math.ceil(math.sqrt(n)))
    try:
        bound = int(value) if kind == "size" else float(value)
    except ValueError:
        raise InvalidConfigError(f"bad number in view policy {text!r}") from None
    return SizeBased(bound) if kind == "size" else TimeoutBased(bound)


class View:
    """One storage mote's view: entries maps each stored origin to the
    time of its last deposit. Those times and a timeout policy's tau share
    one unit: ticks in a run."""

    def __init__(self, policy):
        self.policy = policy
        self.entries = {}

    def __len__(self):
        return len(self.entries)

    def origins(self):
        return self.entries.keys()

    def publish(self, origin, now):
        """Insert or refresh, then apply the policy (Alg. publishView)."""
        self.entries[origin] = now
        self.maintain(now)

    def maintain(self, now):
        entries = self.entries
        policy = self.policy
        if isinstance(policy, SizeBased):
            while len(entries) > policy.k:
                # oldest first; ties evict the smaller origin id
                _, victim = min((t, o) for o, t in entries.items())
                del entries[victim]
        else:
            expired = [o for o, t in entries.items() if now - t > policy.tau]
            for origin in expired:
                del entries[origin]


@dataclass
class NeighborTable:
    """Neighbors one node discovered through hello packets while awake."""

    known: list = field(default_factory=list)   # discovery order, for uniform picks


def pick_next(node, known, schedule, t, pick):
    """Alg. PickNextNode: a uniformly chosen discovered neighbor if it is
    awake at time t, otherwise the node itself (stall).

    known is the node's discovered-neighbor list (NeighborTable.known);
    schedule is the run's dutycycle.Schedule, whose awake rule this tests
    in its own frame; t is an int tick and pick a uniform [0, 1) draw, so
    floor(pick * len(known)) is a valid index (it equals int() for x >= 0
    and costs less).
    """
    if not known:
        return node
    candidate = known[math.floor(pick * len(known))]
    dt = t - schedule.phases[candidate]
    if dt >= 0 and dt % schedule.period < schedule.t_active:
        return candidate
    return node


def hop(node, known, schedule, t, pick):
    """One step at time t of the walk held at node: the node holding it
    after the step (pick_next). A walk is only the node holding it, so
    this is a thin wrapper. A hop costs two Python frames, this one and
    pick_next's, and no more: perfbench's traced check counts one hop
    call per hop event, so this call stays, and it reaches pick_next
    through the module global, the call whose stalls perfbench observes."""
    return pick_next(node, known, schedule, t, pick)


def discover(phases, adjacency, ticks, horizon):
    """Every node's neighbour table, as int64 arrays (indptr, senders,
    heard) in CSR by receiver: the senders it first heard, by (tick, id),
    and the tick of each hearing. Phases, ticks and the horizon are
    integer ticks.

    v sends its j-th hello at phase_v + j*hello_interval, and if v is awake
    then, every topological neighbour awake then hears it. v is awake at
    its own j-th hello iff j*hello_interval mod U < t_active, alike for
    every node; only those j are visited, each over the directed edges not
    yet heard. From max(phase) on, awake states repeat with period U and
    hellos with period hello_interval, so no first hearing falls at or
    after settled = max(phase) + lcm(hello_interval, U), or past the
    horizon.
    """
    hello_interval, period = ticks["hello_interval_s"], ticks["period"]
    t_active = ticks["t_active_s"]
    phase = np.asarray(phases, dtype=np.int64)
    end = min(int(phase.max()) + math.lcm(hello_interval, period), horizon + 1)
    sender = np.repeat(np.arange(phase.size), [len(nb) for nb in adjacency])
    receiver = np.fromiter(itertools.chain.from_iterable(adjacency), np.int64, sender.size)
    edges = np.stack((sender, receiver))  # the directed edges not yet heard
    offsets = np.arange(0, end - int(phase.min()), hello_interval)  # j*hello_interval
    found = [np.empty((3, 0), dtype=np.int64)]
    for offset in offsets[kernels.awake(offsets, period, t_active)].tolist():
        t = phase[edges[0]] + offset
        hears = (t < end) & kernels.awake(t - phase[edges[1]], period, t_active)
        found.append(np.vstack((t, edges))[:, hears])
        edges = edges[:, ~hears]
        if not edges.size:
            break
    heard, sender, receiver = np.concatenate(found, axis=1)
    order = np.lexsort((sender, heard, receiver))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(receiver, minlength=phase.size))))
    return indptr, sender[order], heard[order]


def resolve_rw_length(spec, n):
    """Hop budget from "n", "n/2", "n/4", or an explicit integer."""
    if isinstance(spec, int):
        value = spec
    else:
        text = str(spec).strip().lower().replace(" ", "")
        named = {"n": n, "n/2": n // 2, "n/4": n // 4}
        if text in named:
            value = named[text]
        else:
            try:
                value = int(text)
            except ValueError:
                raise InvalidConfigError(f"bad rw_length {spec!r}") from None
    if value < 0:
        raise InvalidConfigError(f"rw_length must be >= 0, got {value}")
    return value

