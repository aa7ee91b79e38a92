import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rawsim import engine
from rawsim.engine import SimConfig, replicate, run
from rawsim.errors import InvalidConfigError
from rawsim.experiments import (
    COVERAGE_VARIANTS,
    DELTA_GRID,
    active_sweep_config,
    apply_param,
    coverage_config,
    delta_for_sqrt_n,
    exp_active_vs_delta,
    exp_coverage,
    run_sweep,
    until_last_visit,
)


def test_delta_grid_matches_sweep_protocol():
    assert DELTA_GRID == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def test_apply_param_delta_keeps_period():
    cfg = active_sweep_config(100)
    swept = apply_param(cfg, "delta", 0.3)
    assert swept.period == pytest.approx(10.0)
    assert swept.t_sleep_s / swept.period == pytest.approx(0.3)
    period = cfg.period
    for frac in DELTA_GRID:
        swept = apply_param(cfg, "delta", frac)
        # t_sleep = delta * U and t_active = U - t_sleep, to the last bit
        assert swept.t_sleep_s == frac * period
        assert swept.t_active_s == period - frac * period


def test_apply_param_regular_key():
    cfg = active_sweep_config(100)
    assert apply_param(cfg, "rw_length", "n/4").rw_length == "n/4"
    with pytest.raises(InvalidConfigError):
        apply_param(cfg, "bogus", 1)
    with pytest.raises(InvalidConfigError):
        apply_param(cfg, "delta", 1.0)
    with pytest.raises(InvalidConfigError):
        apply_param(cfg, "delta", "abc")


def test_run_sweep_validates_values():
    base = active_sweep_config(25)
    with pytest.raises(InvalidConfigError):
        run_sweep("empty", base, "delta", ())
    with pytest.raises(InvalidConfigError):
        run_sweep("bad", base, "no_such_key", (1,))
    # a horizon past the int64 tick range fails before the first run
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every value was checked")

    with oracles.patched(engine, "run", no_run):
        with pytest.raises(InvalidConfigError, match="horizon_s"):
            run_sweep("far", base, "horizon_s", ("10", "1e13"))


def test_exp_active_vs_delta_rows_and_expectation():
    dataset = exp_active_vs_delta(25, deltas=(0.0, 0.5, 0.8), runs=3, seed=1)
    assert dataset.columns[:3] == ("delta", "mean_active", "stddev_active")
    assert len(dataset.rows) == 3
    for frac, mean, _std, n, runs in dataset.rows:
        assert n == 25 and runs == 3
        expected = (1 - frac) * 25
        sigma = math.sqrt(25 * frac * (1 - frac))
        assert abs(mean - expected) <= max(3 * sigma, 1e-9)
    # delta = 0: exactly n active once timers expire
    assert dataset.rows[0][1] == 25.0


def test_delta_for_sqrt_n_frozen_values():
    dataset = delta_for_sqrt_n([exp_active_vs_delta(n, runs=5, seed=3) for n in (4, 100)])
    by_n = {row[0]: row for row in dataset.rows}
    # (1 - delta) * 4 >= 2 requires delta <= 0.5; measured at seed 3 hits it
    assert by_n[4][1] == 0.5
    # measured counterpart of the n=100 -> 0.9 protocol point
    assert by_n[100][1] == 0.9


def test_coverage_config_variants():
    normal = coverage_config("normal")
    assert normal.t_sleep_s / normal.period == pytest.approx(0.9)
    assert normal.horizon_s == 1000.0
    small = coverage_config("small-timeout")
    assert (small.timeout_min_s, small.timeout_max_s) == (1.0, 2.0)
    allactive = coverage_config("all-active")
    assert allactive.t_sleep_s == 0.0
    assert allactive.timeout_max_s == 0.0
    dense = coverage_config("dense")
    assert dense.width == dense.height == 550.0
    with pytest.raises(InvalidConfigError):
        coverage_config("sparse")


def test_exp_coverage_dataset_shape():
    dataset = exp_coverage("all-active", runs=2, seed=9)
    assert len(dataset.rows) == 10
    means = dataset.column("mean_coverage")
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert dataset.column("runs") == [2] * 10
    # predicted column follows the clamped i*(sqrt(n)-1) curve
    predicted = dataset.column("predicted_coverage")
    assert predicted[0] == pytest.approx(0.09)


def test_exp_coverage_equals_the_uncut_runs():
    # exp_coverage ends its runs at the last visit; the 1000 s runs give
    # the same coverage
    dataset = exp_coverage("all-active", runs=2, seed=9)
    uncut = replicate(coverage_config("all-active", seed=9, runs=2))
    assert dataset.column("mean_coverage") == uncut.coverage_mean().tolist()
    assert dataset.column("stddev_coverage") == uncut.coverage_std().tolist()


@settings(max_examples=64, deadline=None)
@given(
    variant=st.sampled_from(COVERAGE_VARIANTS),
    n=st.integers(10, 40),
    seed=st.integers(0, 10_000),
    latency=st.sampled_from([0.01, 0.25, 0.5, 1.5]),
    rw_length=st.sampled_from(["0", "1", "3", "8", "n/2"]),
    view=st.sampled_from(["size:2", "size:sqrt", "timeout:4", "timeout:15"]),
    wake=st.booleans(),
    start=st.sampled_from([0.0, 5.0, 20.0, 47.5]),
    gap=st.sampled_from([0.0, 0.5, 3.0, 10.0]),
    visits=st.integers(1, 12),
    # a horizon below start + (visits - 1) * gap cuts nothing
    horizon=st.sampled_from([30.0, 60.0, 120.0]),
)
def test_a_run_cut_at_its_last_visit_has_the_same_sink_output(
    variant, n, seed, latency, rw_length, view, wake, start, gap, visits, horizon
):
    cfg = coverage_config(variant, seed=seed).with_updates(
        n=n, hop_latency_s=latency, rw_length=rw_length, view_policy=view,
        sink_wake_sleeping=wake, sink_start_s=start, sink_gap_s=gap,
        sink_visits=visits, horizon_s=horizon,
    )
    cut = until_last_visit(cfg)
    last = start + (visits - 1) * gap
    assert cut.horizon_s == min(horizon, last)
    assert run(cut).sink_csv() == run(cfg).sink_csv()


def test_run_sweep_deterministic_csv():
    base = active_sweep_config(25, runs=2)
    a = run_sweep("demo", base, "delta", (0.0, 0.4)).to_csv()
    b = run_sweep("demo", base, "delta", (0.0, 0.4)).to_csv()
    assert a == b
    header = a.splitlines()[0]
    assert header.startswith("delta,")
    assert header.endswith(",runs")


@pytest.mark.parametrize("values", [("true", "false"), ("false", "true")])
def test_run_sweep_columns_cover_every_value(values):
    # a run without the sink reports no coverage or visits: its cells stay
    # empty, whichever value comes first
    base = SimConfig(n=10, horizon_s=30.0, sink_start_s=10.0, sink_gap_s=1.0,
                     replications=1)
    dataset = run_sweep("sink", base, "sink_enabled", values)
    for metric in ("coverage", "visits"):
        assert f"{metric}_mean" in dataset.columns
        assert f"{metric}_stddev" in dataset.columns
        cells = dict(zip(values, dataset.column(f"{metric}_mean")))
        assert cells["false"] == ""
        assert cells["true"] > 0
    header, *rows = dataset.to_csv().splitlines()
    assert len(rows) == 2
    assert all(row.count(",") == header.count(",") for row in rows)
