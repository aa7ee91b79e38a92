"""Named experiment sweeps emitting plot-ready CSV datasets.

Each experiment replays one of the study's scenarios: active-node count
as a function of the sleep fraction, the sleep fraction needed to keep
sqrt(n) nodes awake, and sink-coverage curves under four duty-cycle
variants (normal timeouts, small timeouts, all nodes active, and a dense
small grid).
"""

import math
from dataclasses import dataclass

# unused here: perfbench/layers.py wraps experiments.build_topology by name
from .engine import SimConfig, build_topology, csv_text, placement, replicate
from .errors import InvalidConfigError
from .sink import predicted_coverage, visit_times
from .topology import save_placement

DELTA_GRID = tuple(round(0.1 * i, 1) for i in range(10))  # 0.0 .. 0.9

# Radio range frozen from a pre-build sweep: mean degree ~44 for n=100
# placed uniformly on a 550x550 grid (closed-disk connectivity).
DENSE_RADIO_RANGE = 260.0

COVERAGE_VARIANTS = ("normal", "small-timeout", "all-active", "dense")


@dataclass(frozen=True)
class FigureDataset:
    name: str
    columns: tuple
    rows: tuple

    def to_csv(self):
        return csv_text(self.columns, self.rows)

    def column(self, name):
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]


def apply_param(config, name, value):
    """Set one swept parameter; "delta" adjusts t_active/t_sleep at fixed U."""
    if name == "delta":
        try:
            frac = float(value)
        except ValueError:
            raise InvalidConfigError(f"bad float for delta: {value!r}") from None
        if not 0.0 <= frac < 1.0:
            raise InvalidConfigError(f"sleep fraction must be in [0, 1), got {frac}")
        period = config.period
        t_sleep = frac * period
        return config.with_updates(t_active_s=period - t_sleep, t_sleep_s=t_sleep)
    coerced = SimConfig.coerce_value(name, value)
    return config.with_updates(**{name: coerced})


def active_sweep_config(n, seed=0, runs=15):
    """Active/sleep analysis runs with dissemination and the sink disabled:
    a 10 s period, all of it awake until apply_param sets delta, timeouts
    uniform over [0, 10] s and a 500 s horizon."""
    return SimConfig(
        n=n,
        t_active_s=10.0,
        t_sleep_s=0.0,
        timeout_max_s=10.0,
        horizon_s=500.0,
        dissemination_enabled=False,
        sink_enabled=False,
        seed=seed,
        replications=runs,
    )


def exp_active_vs_delta(n, deltas=DELTA_GRID, runs=15, seed=0):
    """Mean sampled active-node count per sleep fraction."""
    base = active_sweep_config(n, seed=seed, runs=runs)
    rows = []
    for frac in deltas:
        result = replicate(apply_param(base, "delta", frac))
        mean, std = result.metric("time_avg_active")
        rows.append((float(frac), mean, std, n, runs))
    return FigureDataset(
        name=f"active_vs_delta_n{n}",
        columns=("delta", "mean_active", "stddev_active", "n", "runs"),
        rows=tuple(rows),
    )


def delta_for_sqrt_n(sweeps):
    """The delta_for_sqrt_n dataset read off exp_active_vs_delta datasets."""
    rows = []
    for dataset in sweeps:
        n = dataset.column("n")[0]
        runs = dataset.column("runs")[0]
        threshold = math.sqrt(n)
        passing = [(frac, mean) for frac, mean, *_ in dataset.rows if mean >= threshold]
        if not passing:
            raise InvalidConfigError(f"no grid point keeps sqrt({n}) nodes active")
        best, best_mean = max(passing)
        rows.append((n, best, best_mean, threshold, runs))
    return FigureDataset(
        name="delta_for_sqrt_n",
        columns=("n", "delta", "mean_active", "sqrt_n", "runs"),
        rows=tuple(rows),
    )


def coverage_config(variant, seed=0, runs=15):
    """The coverage scenarios: n=100, walk length n/2, view size sqrt(n),
    horizon 1000 s, ten sink visits spaced one period apart."""
    base = SimConfig(
        n=100,
        rw_length="n/2",
        view_policy="size:sqrt",
        horizon_s=1000.0,
        sink_visits=10,
        sink_gap_s=10.0,
        sink_start_s=200.0,
        seed=seed,
        replications=runs,
    )
    if variant == "normal":
        return base  # timeouts uniform over [0, U]
    if variant == "small-timeout":
        return base.with_updates(timeout_min_s=1.0, timeout_max_s=2.0)
    if variant == "all-active":
        return base.with_updates(t_active_s=10.0, t_sleep_s=0.0, timeout_max_s=0.0)
    if variant == "dense":
        return base.with_updates(
            width=550.0,
            height=550.0,
            radio_range=DENSE_RADIO_RANGE,
            timeout_min_s=1.0,
            timeout_max_s=2.0,
        )
    raise InvalidConfigError(f"unknown coverage variant {variant!r}")


def until_last_visit(config):
    """config with its horizon cut at the sink's last visit, if that comes
    earlier."""
    last = visit_times(config.sink_start_s, config.sink_gap_s, config.resolved_sink_visits())[-1]
    return config.with_updates(horizon_s=min(config.horizon_s, last))


def exp_coverage(variant, runs=15, seed=0):
    """Coverage curve (mean and stddev per visit index) for one variant.

    The runs end at the sink's last visit (290 s), not at the scenario's
    1000 s horizon (until_last_visit); the coverage is the same. Walks take
    their draws walk by walk in launch order, and launches go in tick
    order. Every walk before the first one whose last hop falls after the
    cut keeps its hops, so it keeps its draws and its deposit; that walk
    and every later one would deposit after the last visit, which no visit
    reads. The hearings up to the cut are the same, and a visit collects
    only what was deposited before its tick.
    """
    config = coverage_config(variant, seed=seed, runs=runs)
    result = replicate(until_last_visit(config))
    mean = result.coverage_mean()
    std = result.coverage_std()
    n = config.n
    rows = []
    for i in range(mean.shape[0]):
        rows.append(
            (
                i + 1,
                mean[i],
                std[i],
                mean[i] * n,
                predicted_coverage(i + 1, n) / n,
                n,
                runs,
            )
        )
    return FigureDataset(
        name=f"coverage_{variant.replace('-', '_')}",
        columns=(
            "visit_index",
            "mean_coverage",
            "stddev_coverage",
            "mean_collected",
            "predicted_coverage",
            "n",
            "runs",
        ),
        rows=tuple(rows),
    )


def run_sweep(name, base, param, values):
    """Generic one-parameter sweep aggregating every scalar metric over
    each config's replications. Every value is applied before the first
    run, so a bad one fails fast. The columns cover every metric that any
    value reports; a value without one leaves its cells empty."""
    if not values:
        raise InvalidConfigError("sweep value list is empty")
    configs = [apply_param(base, param, value) for value in values]
    results = [replicate(config) for config in configs]
    names = sorted(set().union(*(result.metrics for result in results)))
    rows = []
    for value, config, result in zip(values, configs, results):
        row = [value]
        for metric in names:
            row.extend(result.metrics.get(metric, ("", "")))
        row.append(config.replications)
        rows.append(tuple(row))
    columns = [param]
    for metric in names:
        columns.extend((f"{metric}_mean", f"{metric}_stddev"))
    columns.append("runs")
    return FigureDataset(name=name, columns=tuple(columns), rows=tuple(rows))


def all_figures(seed=42, out_dir=".", runs=15):
    """Emit one CSV per figure analogue; returns the written paths."""
    import pathlib

    out = pathlib.Path(out_dir)
    # a config checks the run count, so a bad one raises before out_dir is made
    active_sweep_config(25, seed=seed, runs=runs)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, text):
        path = out / f"{name}.csv"
        path.write_text(text)
        written.append(path)

    # one sweep per size serves both the per-n curves and delta_for_sqrt_n
    sizes = (25, 100, 200, 300, 400)
    sweeps = {n: exp_active_vs_delta(n, runs=runs, seed=seed) for n in sizes}
    emit("active_vs_delta_n100", sweeps[100].to_csv())
    emit("active_vs_delta_n400", sweeps[400].to_csv())
    emit("delta_for_sqrt_n", delta_for_sqrt_n(sweeps.values()).to_csv())
    for variant in COVERAGE_VARIANTS:
        dataset = exp_coverage(variant, runs=runs, seed=seed)
        emit(dataset.name, dataset.to_csv())

    # deployment snapshots matching the two grids
    for name, variant in (("placement_1000x1000", "normal"), ("placement_550x550", "dense")):
        path = out / f"{name}.txt"
        path.write_text(save_placement(placement(coverage_config(variant, seed=seed))))
        written.append(path)
    return written
