"""Deterministic simulation core.

One engine instance is strictly single-threaded; replications are
independent executions with consecutive seeds. All randomness comes from
named Philox streams keyed by (seed, label), so e.g. changing the number
of sink visits never perturbs placement or walk draws. dispatch computes
the first hearings of hellos and the launches in closed form, then steps
the walks one after another in launch order, each hop taking the next
draw of the "walks" stream. Views and sink visits are replayed from the
deposit log. Inside a run, time is integer ticks (dutycycle.to_ticks);
configs, traces and outputs are in seconds.
"""

import bisect
import dataclasses
import itertools
import json
import math
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import dissemination, dutycycle, kernels, sink, topology as topo
from .dissemination import TimeoutBased, View, parse_view_policy, resolve_rw_length
from .errors import InvalidConfigError

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
        if self.sink_enabled and self.resolved_sink_visits() < 1:
            raise InvalidConfigError("sink_visits must be >= 1")
        if self.sink_gap_s < 0 or self.sink_start_s < 0:
            raise InvalidConfigError("sink timing must be >= 0")
        # the latest times a run turns into ticks (the horizon, the last
        # phase and the last visit) and every duration must fit in int64 ticks
        times = {"horizon_s": self.horizon_s, "timeout_max_s": self.resolved_timeout_max()}
        if self.sink_enabled:
            m = self.resolved_sink_visits()
            last = sink.visit_times(self.sink_start_s, self.sink_gap_s, m)[-1]
            times["sink_start_s + (sink_visits - 1) * sink_gap_s"] = last
        durations = self.tick_durations()
        for name, seconds in {**times, **durations}.items():
            try:
                ticks = dutycycle.to_ticks(seconds)
            except InvalidConfigError as exc:
                raise InvalidConfigError(f"{name}: {exc}") from None
            if name in durations and ticks < 1:
                raise InvalidConfigError(
                    f"{name} must be at least one tick ({dutycycle.TICK_S:g} s), "
                    f"got {seconds}"
                )

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


BLOCK = 1024                           # walk draws per rng call


@dataclass
class Dispatch:
    """What dispatching hellos, launches and hops hands to the rest of a
    run. run's replay pops deposits off the log, so after a run the log
    is empty; a caller that wants it copies it first. Popping frees each
    tuple once its view has it: a replay that indexed the log instead
    kept all of it alive and raised the peak RSS of an n=400 run by about
    0.5 MB."""
    deposits: list                     # (tick, storage, origin), sorted
    launch_events: int
    launches: int
    hops: int
    dropped: int


def launch_schedule(phases, ticks, horizon):
    """Every launch up to the horizon, ordered by tick, then later phase
    first, then node id. Returns the number of launch events and the ticks
    and origins of the walks launched, as int64 arrays; a node launches iff
    it is awake at the launch tick (kernels.awake)."""
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


def dispatch(phases, adjacency, ticks, horizon, rw_length, rng):
    """Make the first hearings of hellos (dissemination.discover), the
    launches (launch_schedule) and the walk hops of a run up to the
    horizon. Returns the deposit log and the walk counters.

    Walk w, launched at T_w, makes hop k at T_w + k*hop_latency for
    k <= min(rw_length, (horizon - T_w) // hop_latency). Walks never
    interact, so they go one after another in launch order, each making
    its hops in order, and the j-th hop counted this way takes the j-th
    draw of rng, drawn BLOCK at a time. A hop at tick t knows the senders
    its node first heard at ticks <= t. A walk is the node holding it: one
    that made rw_length hops deposits there at T_w + rw_length*hop_latency
    (at its launch when rw_length is 0), and any other is dropped in
    flight. Times are Python ints and picks Python floats, and every hop
    reads the run's dutycycle.Schedule of Python ints: numpy scalars
    would slow each of the two frames a hop costs (dissemination.hop).
    """
    hop_latency = ticks["hop_latency_s"]
    hop = dissemination.hop
    schedule = dutycycle.Schedule(
        np.asarray(phases, dtype=np.int64).tolist(), ticks["period"], ticks["t_active_s"]
    )
    known = [dissemination.NeighborTable().known for _ in phases]  # in hearing order
    heard_at = [[] for _ in phases]    # the tick of each known[node] entry
    heard = dissemination.discover(phases, adjacency, ticks, horizon)
    for t, _, sender, receiver in heard:
        known[receiver].append(sender)
        heard_at[receiver].append(t)
    settled = heard[-1][0] if heard else 0  # every table is whole from here

    launch_events, start, origin = launch_schedule(phases, ticks, horizon)
    made = np.minimum(rw_length, (horizon - start) // hop_latency)  # hops per walk
    deposits = []
    picks = itertools.chain.from_iterable(iter(lambda: rng.random(BLOCK).tolist(), None))
    for o, launched, hops in zip(map(int, origin), map(int, start), map(int, made)):
        node, end = o, launched + hops * hop_latency
        steps = range(launched + hop_latency, end + 1, hop_latency)
        for t, pick in zip(steps, picks):  # no tick, no draw
            table = known[node]
            if t < settled:
                table = table[:bisect.bisect_right(heard_at[node], t)]
            node = hop(node, table, schedule, t, pick)
        if hops == rw_length:
            deposits.append((end, node, o))
    deposits.sort()
    return Dispatch(
        deposits=deposits,
        launch_events=launch_events,
        launches=int(start.size),
        hops=int(made.sum()),
        dropped=int(start.size) - len(deposits),
    )


def run(config):
    """Execute one simulation; identical (config, seed) gives an identical
    trace. The run builds its own topology, and only if it disseminates:
    hellos are the only thing that reads it.

    Every time in a run is an int number of ticks. No walk reads a view, so
    dispatch only logs deposits; views and sink visits are replayed after
    it. With sink_wake_sleeping false a visit collects only from a node
    awake then (kernels.awake). event_counts["hello"] counts every hello
    sent up to the horizon, in closed form."""
    n = config.n
    to_ticks = dutycycle.to_ticks
    ticks = {name: to_ticks(sec) for name, sec in config.tick_durations().items()}
    drawn = dutycycle.draw_phases(
        n, config.timeout_min_s, config.resolved_timeout_max(),
        rng_stream(config.seed, "phases"),
    )
    phases = to_ticks(drawn)
    period, t_active = ticks["period"], ticks["t_active_s"]
    horizon = to_ticks(config.horizon_s)

    event_counts = {"hello": 0, "launch": 0, "hop": 0, "visit": 0}
    walked = Dispatch(deposits=[], launch_events=0, launches=0, hops=0, dropped=0)
    if config.dissemination_enabled:
        sending = phases[phases <= horizon]
        event_counts["hello"] = int(((horizon - sending) // ticks["hello_interval_s"] + 1).sum())
        walked = dispatch(
            phases, build_topology(config).neighbors, ticks, horizon,
            config.resolved_rw_length(), rng_stream(config.seed, "walks"),
        )
        event_counts["launch"] = walked.launch_events
        event_counts["hop"] = walked.hops
    deposits = walked.deposits

    report = None
    visits = []                        # (tick, node, time in seconds)
    if config.sink_enabled:
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
    # a visit comes first, so it collects what was deposited before its
    # tick. The deposits of one tick go by (storage, origin); a view ends
    # the same whatever their order. A node gets a view only once
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
        if config.sink_wake_sleeping or kernels.awake(t_visit - phases[node], period, t_active):
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
    ...; aggregates every scalar metric."""
    # each trace is read as soon as it ends and then dropped, so only one
    # run's arrays are alive at a time
    scalars = {}
    coverage = []
    for i in range(config.replications):
        cfg = config.with_updates(seed=config.seed + i)
        trace = run(cfg)
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
