"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import hashlib
import math
import time

import numpy as np
import pytest
from scipy import stats

from rawsim.cli import cli
from rawsim.dissemination import hop
from rawsim.dutycycle import Schedule
from rawsim.engine import SimConfig, replicate, rng_stream, run
from rawsim.experiments import (
    DELTA_GRID,
    active_sweep_config,
    apply_param,
    coverage_config,
    exp_active_vs_delta,
)

import test_dissemination
from oracles import mean_ideal_intersection

RUNS = 15


def report(number, ok, text):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def timed_replicate(config):
    start = time.perf_counter()
    result = replicate(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def variant_curves():
    """Mean/stddev coverage per visit index for the three ordered variants."""
    curves = {}
    for variant in ("all-active", "small-timeout", "normal"):
        cfg = coverage_config(variant, seed=42, runs=RUNS)
        result, elapsed = timed_replicate(cfg)
        curves[variant] = {
            "mean": result.coverage_mean(),
            "std": result.coverage_std(),
            "elapsed": elapsed,
            "runs": RUNS,
        }
    return curves


def test_criterion_1_active_count_n100():
    cfg = active_sweep_config(100, seed=42, runs=RUNS)
    cfg = apply_param(cfg, "delta", 0.9)
    result, elapsed = timed_replicate(cfg)
    mean, _ = result.metric("time_avg_active")
    ok = 8.0 <= mean <= 12.0 and elapsed < 5.0
    report(1, ok, f"n=100 delta=0.9 mean active {mean:.2f} in [8,12], "
                  f"{RUNS} runs in {elapsed:.2f}s (< 5s)")


def test_criterion_2_active_count_n400():
    cfg = active_sweep_config(400, seed=42, runs=RUNS)
    cfg = apply_param(cfg, "delta", 0.9)
    result, elapsed = timed_replicate(cfg)
    mean, _ = result.metric("time_avg_active")
    ok = 34.0 <= mean <= 46.0 and elapsed < 20.0
    report(2, ok, f"n=400 delta=0.9 mean active {mean:.2f} in [34,46], "
                  f"{RUNS} runs in {elapsed:.2f}s (< 20s)")


def test_criterion_3_delta_sweep_shape():
    n = 100
    dataset = exp_active_vs_delta(n, DELTA_GRID, runs=RUNS, seed=42)
    means = dataset.column("mean_active")
    monotone = all(b <= a for a, b in zip(means, means[1:]))
    within = True
    for frac, mean in zip(DELTA_GRID, means):
        sigma = math.sqrt(n * frac * (1 - frac))
        if abs(mean - (1 - frac) * n) > max(3 * sigma, 1e-9):
            within = False
    ok = monotone and within
    report(3, ok, f"delta sweep monotone={monotone}, all points within "
                  f"3 binomial sigma of (1-delta)n={within}; means="
                  f"{[round(m, 1) for m in means]}")


def test_criterion_4_expected_intersection():
    measured = mean_ideal_intersection(100, 10, 10_000, rng_stream(42, "oracle"))
    ok = 0.8 <= measured <= 1.2
    report(4, ok, f"ideal-view mean pairwise intersection {measured:.3f} "
                  f"in [0.8, 1.2] (analytic k^2/n = 1)")


def test_criterion_5_walk_terminal_uniform_on_k10():
    n, walks, length = 10, 10_000, 10
    rng = rng_stream(42, "walks")
    known = [[j for j in range(n) if j != i] for i in range(n)]
    always_active = Schedule([0] * n, 1, 1)
    counts = np.zeros(n, dtype=int)
    for w in range(walks):
        node = w % n
        for _ in range(length):
            node = hop(node, known[node], always_active, 0, rng.random())
        counts[node] += 1
    pvalue = stats.chisquare(counts).pvalue
    ok = pvalue > 0.01
    report(5, ok, f"chi-square p={pvalue:.3f} > 0.01 for 10^4 walk terminals on K10")


def test_criterion_6_all_active_coverage(variant_curves):
    curve = variant_curves["all-active"]
    mean, std, elapsed = curve["mean"], curve["std"], curve["elapsed"]
    n_runs = curve["runs"]
    floor_hit = bool((mean[:10] >= 0.6).any())
    sem = std / math.sqrt(n_runs)
    baseline = np.arange(1, mean.shape[0] + 1) / 100.0
    dominates = bool((mean - 3 * sem > baseline).all())
    ok = floor_hit and dominates and elapsed < 60.0
    report(6, ok, f"all-active coverage max(first 10)={mean[:10].max():.3f} >= 0.6, "
                  f"beats m/n baseline at 3 sigma={dominates}, "
                  f"{n_runs} runs in {elapsed:.1f}s (< 60s); "
                  f"curve={[float(round(v, 2)) for v in mean]}")


def test_criterion_7_coverage_ordering(variant_curves):
    a = variant_curves["all-active"]["mean"][:10]
    s = variant_curves["small-timeout"]["mean"][:10]
    m = variant_curves["normal"]["mean"][:10]
    ok = bool((a >= s).all() and (s >= m).all())
    report(7, ok, "mean coverage ordering all-active >= small-timeout >= normal "
                  f"pointwise over visits 1-10: "
                  f"all-active={[float(round(v, 2)) for v in a]}, "
                  f"small={[float(round(v, 2)) for v in s]}, "
                  f"normal={[float(round(v, 2)) for v in m]}")


def test_criterion_8_conservation():
    cfg = SimConfig(n=100, timeout_max_s=0.0, horizon_s=495.0, seed=42,
                    sink_enabled=False)
    trace = run(cfg)
    quiescent = trace.dropped_in_flight == 0
    ok = quiescent and trace.launches == trace.depositions and trace.launches > 0
    report(8, ok, f"quiescent run: {trace.launches} launches == "
                  f"{trace.depositions} depositions, dropped={trace.dropped_in_flight}")


# sha256 of every file `figures --seed 42 --runs 2` writes. A change that
# alters published numbers on purpose updates them and records the before
# and after values in CHANGES.md.
FIGURES_SHA256 = {
    "active_vs_delta_n100.csv": "090bfca3c6762647fea5b55f407a5eb0628fbfe02b102db9bdf76bb981930324",
    "active_vs_delta_n400.csv": "04c9ea1e3d95f19608af8fa7515748e5e1df739cb314e1655add41bb355825cd",
    "coverage_all_active.csv": "981ef0ce2bae204080fcba2de170cde4b661146957d066064fc5c604efdb34c9",
    "coverage_dense.csv": "a3d58cde264bf2ea47198fbf517173c2fa559b18a78cab6cd1b6a6b0ab9824a0",
    "coverage_normal.csv": "31732fef5bd6f5d1977ed6ba4b61c90d815d670dada3ec0340841823a8f3f8fc",
    "coverage_small_timeout.csv": "8705143b3267198c99e57decadaae30827b975d9fbcfc34eebae8026c46fb571",
    "delta_for_sqrt_n.csv": "03ccd974ece43332b8651b98cd5c7e5999fae986f4f0dc3a63e0b3354011beff",
    "placement_1000x1000.txt": "352ab6710afb8520059e59db8630c54238196e8ff9f21152295617017e36f3cc",
    "placement_550x550.txt": "e732495512f5399d46db66247d723e93bcecd870fcc2d34ba81ae736aabdc941",
}


def test_criterion_9_figures_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert cli(["figures", "--seed", "42", "--runs", "2", "--out", str(out)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    identical = names == sorted(p.name for p in out_b.iterdir()) and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    pinned = {
        name: hashlib.sha256((out_a / name).read_bytes()).hexdigest() for name in names
    } == FIGURES_SHA256
    report(9, identical and pinned, f"`figures --seed 42` twice: {len(names)} output files "
                                    f"byte-identical={identical}, pinned={pinned}")


def test_criterion_10_view_policy_bounds():
    # the properties of test_dissemination, 200 Hypothesis cases each; a
    # module import, so pytest collects them there only
    test_dissemination.test_size_bound_never_exceeded()
    test_dissemination.test_staleness_bound_after_maintenance()

    # the same size bound observed through full engine traces
    engine_ok = True
    for seed in range(5):
        cfg = SimConfig(n=30, view_policy="size:5", horizon_s=120.0,
                        timeout_max_s=2.0, t_active_s=5.0, t_sleep_s=5.0,
                        sink_start_s=60.0, sink_gap_s=5.0, seed=seed)
        if run(cfg).view_sizes.max() > 5:
            engine_ok = False
    report(10, engine_ok, "view policy bounds hold over random event traces "
                          "(200 hypothesis cases each) and engine-driven runs")
