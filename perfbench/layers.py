"""Per-layer instrumentation for the traced run.

Wraps the public functions of each rawsim module at the attributes the
engine calls them through, so that nothing under src/ changes. The
per-layer metrics are computed from the tracer's self times, from counts
taken by the wrappers, and from the RunTrace of every engine run.
"""

from tracing import observed

# Fields that tell the four coverage variants apart; a run of any other
# shape counts as "other" and one without dissemination as "sweep".
SHAPE_FIELDS = (
    "width", "height", "radio_range", "t_active_s", "t_sleep_s",
    "timeout_min_s", "timeout_max_s",
)


class LayerStats:
    """Counts the wrappers take at layer boundaries during one repetition."""

    def __init__(self, rawsim):
        experiments = rawsim.experiments
        self.variants = experiments.COVERAGE_VARIANTS
        self._shapes = {
            v: tuple(getattr(experiments.coverage_config(v), f) for f in SHAPE_FIELDS)
            for v in self.variants
        }
        self.directed_edges = 0
        self.active_count_cells = 0
        self.picks = 0
        self.stalls = 0
        self.visits = 0
        self.entries_collected = 0
        self.new_origins = 0
        self.discovered = 0
        self.discoverable = 0
        self.events_by_variant = {}
        self._tables = []
        self._last_topology = None

    def variant_of(self, config):
        if not config.dissemination_enabled:
            return "sweep"
        shape = tuple(getattr(config, f) for f in SHAPE_FIELDS)
        for variant, ref in self._shapes.items():
            if shape == ref:
                return variant
        return "other"

    def on_topology(self, args, kwargs, topology):
        self.directed_edges += sum(len(nb) for nb in topology.neighbors)
        self._last_topology = topology

    def on_active_counts(self, args, kwargs, result):
        phases, _period, _t_active, times = args
        self.active_count_cells += phases.shape[0] * times.shape[0]

    def on_pick(self, args, kwargs, chosen):
        self.picks += 1
        if chosen == args[0]:
            self.stalls += 1

    def on_table(self, args, kwargs, table):
        self._tables.append(table)

    def on_record(self, args, kwargs, record):
        self.visits += 1
        self.entries_collected += record.entries_collected
        self.new_origins += record.new_origins

    def on_run(self, variant):
        def observe(args, kwargs, trace):
            config = trace.config
            tables, self._tables = self._tables, []
            # replicate passes a shared topology by keyword; otherwise the
            # run built its own, which on_topology saw last
            topology = kwargs.get("topology") or self._last_topology
            if config.dissemination_enabled:
                self.discovered += sum(len(t.known) for t in tables)
                self.discoverable += sum(len(nb) for nb in topology.neighbors)
            self.events_by_variant[variant] = (
                self.events_by_variant.get(variant, 0) + sum(trace.event_counts.values())
            )

        return observe


def install(patches, tracer, stats, rawsim):
    """Wrap every layer boundary; patches undoes it all on exit."""
    cli, engine, experiments = rawsim.cli, rawsim.engine, rawsim.experiments
    topology, kernels, dutycycle = rawsim.topology, rawsim.kernels, rawsim.dutycycle
    dissemination, sink = rawsim.dissemination, rawsim.sink

    def span(owner, attr, name, hot=False, observe=None):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), hot, observe))

    span(cli, "all_figures", "experiments.all_figures")
    span(experiments, "replicate", "experiments.replicate")
    span(experiments, "build_topology", "engine.build_topology")
    span(engine, "build_topology", "engine.build_topology")
    span(topology, "build_adjacency", "topology.build_adjacency", observe=stats.on_topology)
    span(kernels, "adjacency_csr", "kernels.adjacency_csr")
    span(dutycycle, "draw_phases", "dutycycle.draw_phases")
    span(kernels, "active_counts", "kernels.active_counts", observe=stats.on_active_counts)
    span(engine, "_view_size_series", "engine._view_size_series")
    span(dissemination, "hop", "dissemination.hop", hot=True)
    span(dissemination.View, "publish", "View.publish", hot=True)
    span(dissemination.View, "maintain", "View.maintain", hot=True)
    span(sink, "plan_random_visits", "sink.plan_random_visits")
    span(sink, "collect_origins", "sink.collect_origins")
    span(sink.SinkReport, "record_visit", "SinkReport.record_visit", observe=stats.on_record)
    patches.set(dissemination, "pick_next", observed(dissemination.pick_next, stats.on_pick))
    patches.set(
        dissemination, "NeighborTable", observed(dissemination.NeighborTable, stats.on_table)
    )

    # One span name per variant, so that the engine's self time splits by
    # variant; the choice itself is charged to the caller.
    run = engine.run
    by_variant = {
        v: tracer.wrap(f"engine.run.{v}", run, observe=stats.on_run(v))
        for v in (*stats.variants, "sweep", "other")
    }

    def traced_run(config, *args, **kwargs):
        return by_variant[stats.variant_of(config)](config, *args, **kwargs)

    patches.set(engine, "run", traced_run)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer, stats, checker):
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    s = tracer.self_s
    run_names = [name for name in tracer.totals if name.startswith("engine.run.")]
    run_self = sum(s(name) for name in run_names)
    events = checker.total_events
    out = {
        "topology.build_s": (s("engine.build_topology") + s("topology.build_adjacency"), "s"),
        "kernels.adjacency_s": (s("kernels.adjacency_csr"), "s"),
        "topology.builds": (tracer.calls("topology.build_adjacency"), "count"),
        "topology.directed_edges": (stats.directed_edges, "count"),
        "dutycycle.draw_phases_s": (s("dutycycle.draw_phases"), "s"),
        "kernels.active_counts_s": (s("kernels.active_counts"), "s"),
        "kernels.active_count_cells": (stats.active_count_cells, "count"),
        "engine.runs": (checker.runs, "count"),
        "engine.run_self_s": (run_self, "s"),
        "engine.self_us_per_event": (_ratio(run_self * 1e6, events), "us/event"),
        "engine.events": (events, "count"),
    }
    for kind, count in checker.events.items():
        out[f"engine.{kind}_events"] = (count, "count")
    out["engine.view_series_s"] = (s("engine._view_size_series"), "s")
    for v in stats.variants:
        self_v = s(f"engine.run.{v}")
        out[f"engine.{v}.run_self_s"] = (self_v, "s")
        out[f"engine.{v}.self_us_per_event"] = (
            _ratio(self_v * 1e6, stats.events_by_variant.get(v, 0)),
            "us/event",
        )
    out.update(
        {
            "dissemination.hop_s": (s("dissemination.hop"), "s"),
            "dissemination.hops": (tracer.calls("dissemination.hop"), "count"),
            "dissemination.stall_ratio": (_ratio(stats.stalls, stats.picks), "ratio"),
            "dissemination.launch_skip_ratio": (
                _ratio(checker.launch_skips, checker.events["launch"]),
                "ratio",
            ),
            "dissemination.deposit_ratio": (
                _ratio(checker.depositions, checker.launches),
                "ratio",
            ),
            "dissemination.discovery_ratio": (
                _ratio(stats.discovered, stats.discoverable),
                "ratio",
            ),
            "dissemination.publish_s": (s("View.publish"), "s"),
            "dissemination.maintain_s": (s("View.maintain"), "s"),
            "dissemination.publishes": (tracer.calls("View.publish"), "count"),
            "sink.plan_s": (s("sink.plan_random_visits"), "s"),
            "sink.collect_s": (s("sink.collect_origins"), "s"),
            "sink.record_s": (s("SinkReport.record_visit"), "s"),
            "sink.visits": (stats.visits, "count"),
            "sink.new_origin_ratio": (
                _ratio(stats.new_origins, stats.entries_collected),
                "ratio",
            ),
            "experiments.replicate_self_s": (s("experiments.replicate"), "s"),
            "experiments.figures_self_s": (s("experiments.all_figures"), "s"),
        }
    )
    return out
