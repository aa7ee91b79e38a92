"""Deterministic simulation core.

One engine instance is strictly single-threaded; replications are
independent executions with consecutive seeds. All randomness comes from
named Philox streams keyed by (seed, label), so e.g. changing the number
of sink visits never perturbs placement or walk draws. Hellos, launches
and walk hops are dispatched in the order of one (time, sequence) event
queue, computed in closed form by dispatch; every equal-time tie follows
from how the queue would have numbered events. Views and sink visits are
replayed from the deposit log. Inside a run, time is integer ticks
(dutycycle.to_ticks); configs, traces and outputs are in seconds.
"""

import dataclasses
import json
import math
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import dissemination, dutycycle, kernels, sink, topology as topo
from .dissemination import (
    RWMessage, TimeoutBased, View, parse_view_policy, resolve_rw_length,
)
from .errors import InvalidConfigError, SetupError

def rng_stream(seed, label):
    """Independent Philox stream for one purpose within one run."""
    entropy = int(seed) & 0xFFFFFFFFFFFFFFFF
    key = zlib.crc32(label.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(key,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class SimConfig:
    n: int = 100
    width: float = 1000.0
    height: float = 1000.0
    radio_range: float = topo.DEFAULT_RADIO_RANGE
    placement_file: str = None
    t_active_s: float = 1.0
    t_sleep_s: float = 9.0
    timeout_min_s: float = 0.0
    timeout_max_s: float = None        # None -> period U
    rw_length: str = "n/2"
    view_policy: str = "size:sqrt"     # size:K | size:sqrt | timeout:TAU
    hello_interval_s: float = 1.0
    hop_latency_s: float = 0.01
    advertise_period_s: float = None   # None -> period U
    dissemination_enabled: bool = True
    sink_enabled: bool = True
    sink_visits: int = None            # None -> ceil(sqrt(n))
    sink_gap_s: float = 10.0
    sink_start_s: float = 200.0
    sink_wake_sleeping: bool = True
    horizon_s: float = 500.0
    seed: int = 0
    replications: int = 15
    fixed_topology: bool = False
    require_connected: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise InvalidConfigError(f"n must be >= 1, got {self.n}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidConfigError(f"{f.name} must be finite, got {value}")
        if self.horizon_s < 0:
            raise InvalidConfigError(f"horizon must be >= 0, got {self.horizon_s}")
        if self.replications < 1:
            raise InvalidConfigError(
                f"replications must be >= 1, got {self.replications}"
            )
        for name in ("width", "height", "radio_range"):
            value = getattr(self, name)
            if value <= 0:
                raise InvalidConfigError(f"{name} must be > 0, got {value}")
        if self.t_sleep_s < 0:
            raise InvalidConfigError(f"t_sleep_s must be >= 0, got {self.t_sleep_s}")
        if not 0 <= self.timeout_min_s <= self.resolved_timeout_max():
            raise InvalidConfigError(
                f"need 0 <= timeout_min_s <= timeout_max_s, got "
                f"[{self.timeout_min_s}, {self.resolved_timeout_max()}]"
            )
        # validate eagerly so bad configs fail before a run starts
        self.resolved_rw_length()
        ticks = {}
        for name, seconds in self.tick_durations().items():
            ticks[name] = dutycycle.to_ticks(seconds)
            if ticks[name] < 1:
                raise InvalidConfigError(
                    f"{name} must be at least one tick ({dutycycle.TICK_S:g} s), "
                    f"got {seconds}"
                )
        # dispatch orders equal-tick hops on the assumption that a node's
        # next launch comes after its walk's first hop
        if ticks["hop_latency_s"] >= ticks["advertise_period_s"]:
            raise InvalidConfigError(
                f"hop_latency_s must be shorter than the advertise period, got "
                f"{self.hop_latency_s} >= {self.resolved_advertise_period()}"
            )
        if self.sink_enabled and self.resolved_sink_visits() < 1:
            raise InvalidConfigError("sink_visits must be >= 1")
        if self.sink_gap_s < 0 or self.sink_start_s < 0:
            raise InvalidConfigError("sink timing must be >= 0")

    @property
    def period(self):
        """The duty-cycle period U = t_active + t_sleep."""
        return self.t_active_s + self.t_sleep_s

    def tick_durations(self):
        """Every duration a run keeps in ticks, in seconds by name; each
        must be at least one tick."""
        durations = {
            "t_active_s": self.t_active_s,
            "period": self.period,
            "hello_interval_s": self.hello_interval_s,
            "hop_latency_s": self.hop_latency_s,
            "advertise_period_s": self.resolved_advertise_period(),
        }
        policy = self.resolved_view_policy()
        if isinstance(policy, TimeoutBased):  # views age their entries in ticks
            durations["view_policy timeout"] = policy.tau
        return durations

    def resolved_rw_length(self):
        return resolve_rw_length(self.rw_length, self.n)

    def resolved_view_policy(self):
        return parse_view_policy(self.view_policy, self.n)

    def resolved_sink_visits(self):
        if self.sink_visits is None:
            return math.ceil(math.sqrt(self.n))
        return int(self.sink_visits)

    def resolved_timeout_max(self):
        if self.timeout_max_s is None:
            return self.period
        return self.timeout_max_s

    def resolved_advertise_period(self):
        if self.advertise_period_s is None:
            return self.period
        return float(self.advertise_period_s)

    def with_updates(self, **kwargs):
        return dataclasses.replace(self, **kwargs)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def coerce_value(cls, key, value):
        """Parse one text value as the field's annotated type; a field whose
        default is None also takes "", "none" or "auto" for None."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        if key not in fields:
            raise InvalidConfigError(f"unknown config key {key!r}")
        if not isinstance(value, str):
            return value
        text = value.strip()
        kind = fields[key].type
        if fields[key].default is None and text.lower() in ("", "none", "auto"):
            return None
        if kind is bool:
            if text.lower() in ("true", "1", "yes", "on"):
                return True
            if text.lower() in ("false", "0", "no", "off"):
                return False
        else:
            try:
                return kind(text)
            except ValueError:
                pass
        raise InvalidConfigError(f"bad {kind.__name__} for {key}: {value!r}")

    @classmethod
    def from_mapping(cls, mapping):
        kwargs = {k: cls.coerce_value(k, v) for k, v in mapping.items()}
        return cls(**kwargs)


@dataclass
class RunTrace:
    config: SimConfig
    seed: int
    times: np.ndarray
    active_counts: np.ndarray
    view_sizes: np.ndarray            # (samples, n)
    sink_report: "sink.SinkReport"
    event_counts: dict
    launches: int
    depositions: int
    launch_skips: int
    dropped_in_flight: int
    phases: np.ndarray = field(repr=False, default=None)

    def time_avg_active(self):
        """Mean sampled active count once all initial timers have expired."""
        mask = self.times >= self.config.resolved_timeout_max()
        if not mask.any():
            mask = self.times >= self.times.max()
        return float(self.active_counts[mask].mean())

    def mean_view_sizes(self):
        return self.view_sizes.mean(axis=1)

    def summary(self):
        metrics = {
            "time_avg_active": self.time_avg_active(),
            "launches": self.launches,
            "depositions": self.depositions,
            "launch_skips": self.launch_skips,
            "dropped_in_flight": self.dropped_in_flight,
            "final_mean_view_size": float(self.view_sizes[-1].mean()),
        }
        if self.sink_report is not None:
            metrics["coverage"] = self.sink_report.coverage
            metrics["visits"] = len(self.sink_report.visits)
        return metrics

    def samples_csv(self):
        lines = ["time_s,active_count,mean_view_size"]
        means = self.mean_view_sizes()
        for t, a, v in zip(self.times, self.active_counts, means):
            lines.append(f"{fmt(t)},{int(a)},{fmt(v)}")
        return "\n".join(lines) + "\n"

    def sink_csv(self):
        header = (
            "visit_index,node_id,time_s,entries_collected,"
            "new_origins,cumulative_origins,coverage"
        )
        lines = [header]
        if self.sink_report is not None:
            n = self.sink_report.n
            for v in self.sink_report.visits:
                lines.append(
                    f"{v.index},{v.node},{fmt(v.time)},{v.entries_collected},"
                    f"{v.new_origins},{v.cumulative_origins},{fmt(v.cumulative_origins / n)}"
                )
        return "\n".join(lines) + "\n"

    def summary_json(self):
        payload = {
            "config": self.config.to_dict(),
            "seed": self.seed,
            "metrics": self.summary(),
            "event_counts": self.event_counts,
            "tick_s": dutycycle.TICK_S,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def fmt(x):
    """CSV float format: 6 significant digits."""
    return f"{float(x):.6g}"


def reads_topology(config):
    """Whether a run reads the topology: hellos need it, and so does the
    connectivity check."""
    return config.dissemination_enabled or config.require_connected


def build_topology(config):
    if config.placement_file:
        try:
            with open(config.placement_file) as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidConfigError(
                f"cannot read placement file {config.placement_file}: {exc}"
            ) from exc
        positions = topo.load_placement(text)
        if positions.shape[0] != config.n:
            raise InvalidConfigError(
                f"placement file {config.placement_file} has {positions.shape[0]} "
                f"nodes but n is {config.n}; set n={positions.shape[0]}"
            )
    else:
        rng = rng_stream(config.seed, "placement")
        positions = topo.place_uniform(config.n, config.width, config.height, rng)
    return topo.build_adjacency(positions, config.radio_range)


BLOCK = 1024                           # hops per block, about


@dataclass
class Dispatch:
    """What dispatching hellos, launches and hops hands to the rest of a
    run."""
    deposits: list                     # (tick, storage, origin), in dispatch order
    launch_events: int
    launches: int
    hops: int
    dropped: int


def launch_schedule(phases, ticks, horizon):
    """Every launch up to the horizon, in dispatch order: by tick, then
    later phase first, then node id. Returns the number of launch events
    and the ticks and origins of the walks launched, as int64 arrays; a
    node launches iff it is awake at the launch tick (kernels.awake)."""
    n, advertise_period = len(phases), ticks["advertise_period_s"]
    phase = np.asarray(phases, dtype=np.int64)
    nodes = np.lexsort((np.arange(n), -phase))
    nodes = nodes[phase[nodes] <= horizon]
    rounds = (horizon - phase[nodes]) // advertise_period + 1
    node = np.repeat(nodes, rounds)
    m = np.arange(node.size) - np.repeat(np.cumsum(rounds) - rounds, rounds)
    tick = phase[node] + m * advertise_period
    order = np.argsort(tick, kind="stable")
    node, tick = node[order], tick[order]
    up = kernels.awake(tick - phase[node], ticks["period"], ticks["t_active_s"])
    return node.size, tick[up], node[up]


def dispatch(phases, awake, adjacency, ticks, horizon, rw_length, rng):
    """Dispatch the first hearings of hellos (dissemination.discover),
    the launches and the walk hops of a run up to the horizon. Returns the
    deposit log and the walk counters.

    A run dispatches events in (tick, seq) order, where seq numbers events
    in the order they are scheduled, and each event is scheduled by the one
    being dispatched: a hello schedules the node's next hello, a launch its
    walk's first hop and then the node's next launch, a hop the walk's next
    hop. The first hellos and then the first launches take the lowest seqs.
    So of two events at one tick, the one whose scheduling event was
    dispatched first comes first; following both chains of scheduling
    events back gives every tie rule below in closed form.

    - Launches fall at phase + m*advertise_period (launch_schedule). At
      equal ticks the later phase goes first, as its chain reaches a first
      launch sooner, then the node id.
    - Walk w, launched at T_w, makes hop k at T_w + k*hop_latency for
      k <= min(rw_length, (horizon - T_w) // hop_latency); a walk that
      makes fewer than rw_length hops is dropped in flight. At equal ticks
      the later-launched walk hops first: its chain meets the other walk's
      at its own launch, scheduled one advertise period earlier than the
      other walk's hop at that tick was scheduled (hop_latency <
      advertise_period). Walks launched at one tick follow launch order.
      The j-th hop takes the j-th draw of rng.
    - Hellos go (tick, later phase first, node id), as launches do. A
      hello comes before a hop at its tick if it is its sender's first one
      (the first hellos take the lowest seqs), if hello_interval >
      hop_latency (it was scheduled earlier), or if the two are equal and
      the sender's phase is at or after the walk's launch tick (its chain
      reaches a first hello no later than the hop's reaches its launch).
    - A terminating hop deposits at its tick; with rw_length 0 every walk
      deposits at its launch. The log is in dispatch order.

    Hops go by hop-latency steps. With q0_w, r_w = divmod(T_w,
    hop_latency), walk w hops once in each step q of (q0_w, q0_w + made_w],
    at tick q*hop_latency + r_w. Within a step ticks ascend with r_w, and
    equal ticks mean equal r_w, so the rules above order every step by one
    fixed key per walk: (r_w, -T_w, launch index). A block is a range of
    whole steps times the walks that can hop in it, found by searchsorted
    on q0; it sorts those walks once, and its hops are the cells where a
    walk hops, read step by step. A block spans BLOCK // (walks in flight)
    steps, halved while more than 2*BLOCK hops fall in it. Each block
    draws its picks in one call; successive calls of one generator give
    the same values as one long one. A walk's RWMessage exists from its
    first block to its last. Times are Python ints and picks Python floats
    in the hop loop.
    """
    n = len(phases)
    hello_interval = ticks["hello_interval_s"]
    hop_latency = ticks["hop_latency_s"]
    hop = dissemination.hop
    known = [dissemination.NeighborTable().known for _ in range(n)]  # grown by hear_before
    heard = dissemination.discover(phases, adjacency, ticks, horizon)
    heard.reverse()                    # popped in dispatch order

    def hear_before(bound):
        """Record the first hearings that sort before bound."""
        while heard and heard[-1] < bound:
            _, _, sender, receiver = heard.pop()
            known[receiver].append(sender)

    launch_events, start, origin = launch_schedule(phases, ticks, horizon)
    made = np.minimum(rw_length, (horizon - start) // hop_latency)  # hops per walk
    deposits = []
    if rw_length == 0:
        deposits = list(zip(start.tolist(), origin.tolist(), origin.tolist()))
    log = deposits.append
    q0, offset = np.divmod(start, hop_latency)
    last = q0 + made                   # walk w hops once in each step of (q0, last]
    stop = int(last.max(initial=-1, where=made > 0))
    msgs = np.empty(start.size, dtype=object)  # RWMessages of the walks in flight
    ended = entered = qa = 0
    while qa <= stop:
        lo = int(np.searchsorted(q0, qa - rw_length))  # earlier walks have ended
        qa = max(qa, int(q0[lo]) + 1)  # if none is in flight, the next walk's first hop
        hi = int(np.searchsorted(q0, qa))  # walks lo..hi-1 are in flight at qa
        steps = max(1, BLOCK // (hi - lo))
        while True:
            hi = int(np.searchsorted(q0, qa + steps - 1))  # later walks hop after the block
            hops = np.minimum(last[lo:hi], qa + steps - 1) - np.maximum(q0[lo:hi], qa - 1)
            if steps == 1 or hops.clip(0).sum() <= 2 * BLOCK:
                break
            steps //= 2                # walks launched in the block: halve it
        msgs[ended:lo] = None
        msgs[entered:hi] = [RWMessage(o, rw_length, o) for o in origin[entered:hi].tolist()]
        ended, entered = lo, hi
        # the order within a step; lexsort is stable, so launch order last
        walks = lo + np.lexsort((-start[lo:hi], offset[lo:hi]))
        step = np.arange(qa, qa + steps)[:, None]
        qa += steps
        cells = (q0[walks] < step) & (step <= last[walks])
        when = (step * hop_latency + offset[walks])[cells]
        walk = np.broadcast_to(walks, cells.shape)[cells]
        size = when.size
        block = zip(msgs[walk].tolist(), when.tolist(), rng.random(size).tolist())
        if not heard:
            for msg, t, pick in block:
                if hop(msg, known[msg.current], awake, t, pick):
                    log((t, msg.current, msg.origin))
            continue
        # first hearings still pending: one at a hop's tick goes first iff
        # its sender's phase is at least min_phase
        if hello_interval > hop_latency:
            min_phase = np.full(size, -1)
        elif hello_interval == hop_latency:
            min_phase = start[walk]
        else:
            min_phase = when
        for (msg, t, pick), key in zip(block, (-min_phase).tolist()):
            hear_before((t, key, n))
            if hop(msg, known[msg.current], awake, t, pick):
                log((t, msg.current, msg.origin))
    hear_before((math.inf,))
    return Dispatch(
        deposits=deposits,
        launch_events=launch_events,
        launches=int(start.size),
        hops=int(made.sum()),
        dropped=int(np.count_nonzero(made < rw_length)),
    )


def run(config, topology=None):
    """Execute one simulation; identical (config, seed) gives an identical
    trace. A topology may be passed in to share placement across runs; it
    is built only if hellos or require_connected read it.

    dispatch makes the first hearings, launches and walk hops in the order
    of one (tick, seq) event queue without keeping one; its docstring gives
    the tie rules. Every time in a run is an int number of ticks. No walk
    reads a view, so dispatch only logs deposits; views and sink visits are
    replayed after it. event_counts["hello"] counts every hello sent up to
    the horizon, in closed form."""
    n = config.n
    adjacency = ()
    if reads_topology(config):
        if topology is None:
            topology = build_topology(config)
        if config.require_connected and not topo.is_connected(topology):
            raise SetupError("topology is disconnected but require_connected is set")
        adjacency = topology.neighbors

    to_ticks = dutycycle.to_ticks
    ticks = {name: to_ticks(sec) for name, sec in config.tick_durations().items()}
    drawn = dutycycle.draw_phases(
        n, config.timeout_min_s, config.resolved_timeout_max(),
        rng_stream(config.seed, "phases"),
    )
    phases = to_ticks(drawn)
    period, t_active = ticks["period"], ticks["t_active_s"]
    awake = dutycycle.awake_predicate(phases, period, t_active)
    horizon = to_ticks(config.horizon_s)

    event_counts = {"hello": 0, "launch": 0, "hop": 0, "visit": 0}
    walked = Dispatch(deposits=[], launch_events=0, launches=0, hops=0, dropped=0)
    if config.dissemination_enabled and horizon > 0:
        sending = phases[phases <= horizon]
        event_counts["hello"] = int(((horizon - sending) // ticks["hello_interval_s"] + 1).sum())
        walked = dispatch(
            phases, awake, adjacency, ticks, horizon, config.resolved_rw_length(),
            rng_stream(config.seed, "walks"),
        )
        event_counts["launch"] = walked.launch_events
        event_counts["hop"] = walked.hops
    deposits = walked.deposits

    report = None
    visits = []                        # (tick, node, time in seconds)
    if config.sink_enabled and horizon > 0:
        plan = sink.plan_random_visits(
            n, config.resolved_sink_visits(), config.sink_start_s, config.sink_gap_s,
            rng_stream(config.seed, "sink"),
        )
        report = sink.SinkReport(n=n)
        visits = [
            v for v in zip(to_ticks(plan.times).tolist(), plan.nodes, plan.times)
            if v[0] <= horizon
        ]
        event_counts["visit"] = len(visits)

    # One replay of the deposit log and the visits, in tick order, builds
    # the views, the sink report and the view-size changes. At equal ticks
    # a visit comes first, as if visits were queue events scheduled before
    # any other: every hop and every repeat launch would then come after a
    # visit at its tick. The one other deposit is a first launch with
    # rw_length 0, and that node's view only ever holds its own origin,
    # which every visit to it collects anyway. A node gets a view only once
    # something is deposited there or it is visited.
    tau = ticks.get("view_policy timeout")
    policy = config.resolved_view_policy() if tau is None else TimeoutBased(tau)
    views = defaultdict(lambda: View(policy))
    size_log = []                      # (tick, node, view size) changes
    depositions = len(deposits)
    deposits.reverse()                 # popped in tick order, freed once published
    # a last visit at infinity publishes the deposits after the real ones
    for t_visit, node, time in visits + [(math.inf, None, None)]:
        while deposits and deposits[-1][0] < t_visit:
            t, storage, origin = deposits.pop()
            view = views[storage]
            view.publish(origin, t)
            size_log.append((t, storage, len(view)))
        if node is None:
            break
        origins = set()
        if config.sink_wake_sleeping or awake(node, t_visit):
            view = views[node]
            view.maintain(t_visit)
            size_log.append((t_visit, node, len(view)))
            origins = sink.collect_origins(node, view)
        report.record_visit(node, time, origins)

    times = np.arange(0.0, math.floor(config.horizon_s) + 1.0)
    samples = to_ticks(times)
    active = kernels.active_counts(phases, period, t_active, samples)
    view_sizes = _view_size_series(size_log, samples, n)

    return RunTrace(
        config=config,
        seed=config.seed,
        times=times,
        active_counts=active,
        view_sizes=view_sizes,
        sink_report=report,
        event_counts=event_counts,
        launches=walked.launches,
        depositions=depositions,
        launch_skips=walked.launch_events - walked.launches,
        dropped_in_flight=walked.dropped,
        phases=drawn,
    )


def _view_size_series(size_log, times, n):
    """Per-node view sizes at the sample ticks, replayed from change
    deltas; every row after the last change is filled with one slice."""
    out = np.zeros((times.shape[0], n), dtype=np.int32)
    current = np.zeros(n, dtype=np.int32)
    j = 0
    total = len(size_log)
    k = 0
    for t in times.tolist():
        if j == total:
            break
        while j < total and size_log[j][0] <= t:
            _, node, size = size_log[j]
            current[node] = size
            j += 1
        out[k] = current
        k += 1
    out[k:] = current
    return out


@dataclass
class ReplicateResult:
    metrics: dict                     # name -> (mean, stddev)
    coverage_matrix: np.ndarray       # (runs, visits) or None

    def metric(self, name):
        return self.metrics[name]

    def coverage_mean(self):
        return self.coverage_matrix.mean(axis=0)

    def coverage_std(self):
        return self.coverage_matrix.std(axis=0)


def replicate(config):
    """config.replications independent executions with seeds seed, seed+1,
    ...; aggregates every scalar metric. With fixed_topology the placement
    of the base seed is shared; otherwise each run redraws its own."""
    shared = None
    if config.fixed_topology and reads_topology(config):
        shared = build_topology(config)
    # each trace is read as soon as it ends and then dropped, so only one
    # run's arrays are alive at a time
    scalars = {}
    coverage = []
    for i in range(config.replications):
        cfg = config.with_updates(seed=config.seed + i)
        trace = run(cfg, topology=shared)
        for name, value in trace.summary().items():
            scalars.setdefault(name, []).append(float(value))
        if trace.sink_report is not None:
            coverage.append(sink.coverage_fractions(trace.sink_report))
    metrics = {
        name: (float(np.mean(vals)), float(np.std(vals)))
        for name, vals in scalars.items()
    }

    return ReplicateResult(
        metrics=metrics,
        coverage_matrix=np.array(coverage) if coverage else None,
    )
