import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rawsim import dissemination, engine, kernels
from rawsim.dutycycle import to_ticks
from rawsim.engine import SimConfig, build_topology, replicate, rng_stream, run
from rawsim.errors import InvalidConfigError
from rawsim.experiments import (
    COVERAGE_VARIANTS,
    active_sweep_config,
    apply_param,
    coverage_config,
)

S = 1_000_000  # ticks per second


def quick_config(**kwargs):
    """n=20 on 1000 x 1000 m at delta = 0.9: most nodes sleep, and every
    walk stalls at its origin."""
    defaults = dict(n=20, horizon_s=60.0, sink_start_s=30.0, sink_gap_s=2.0, seed=5)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def moving_config(**kwargs):
    """quick_config on 400 x 400 m with half the period awake: its walks
    move, and many end away from their origins."""
    defaults = dict(width=400.0, height=400.0, t_active_s=3.0, t_sleep_s=3.0)
    defaults.update(kwargs)
    return quick_config(**defaults)


def moved(args, result):
    """Whether a pick_next call moved its walk, for oracles.recording."""
    return result != args[0]


@pytest.mark.parametrize("make, moves", [(quick_config, False), (moving_config, True)])
def test_walks_of_the_small_configs_move_as_documented(make, moves):
    with oracles.recording(dissemination, "pick_next", moved) as picks:
        trace = run(make())
    assert trace.event_counts["hop"] == len(picks) > 0
    assert any(picks) == moves
    # a visit collects the visited node's own origin, so coverage above the
    # visited share needs walks that end away from their origins
    report = trace.sink_report
    visited = len({v.node for v in report.visits}) / report.n
    assert (report.coverage > visited) == moves
    if moves:
        assert sum(picks) >= len(picks) / 4


def test_rng_stream_reproducible():
    a = rng_stream(42, "walks").random(8)
    b = rng_stream(42, "walks").random(8)
    assert (a == b).all()


def test_rng_streams_independent_by_label():
    a = rng_stream(42, "walks").random(8)
    b = rng_stream(42, "sink").random(8)
    assert (a != b).any()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2000), max_size=12))
def test_walk_draws_do_not_depend_on_chunk_size(sizes):
    # dispatch draws its picks BLOCK at a time; where the calls split the
    # stream must not change the picks
    whole = rng_stream(42, "walks").random(sum(sizes)).tolist()
    rng = rng_stream(42, "walks")
    assert [x for size in sizes for x in rng.random(size).tolist()] == whole


def test_run_deterministic():
    cfg = moving_config()
    t1 = run(cfg)
    t2 = run(cfg)
    assert t1.samples_csv() == t2.samples_csv()
    assert t1.sink_csv() == t2.sink_csv()
    assert t1.summary_json() == t2.summary_json()


def test_csv_text_cell_rules():
    rows = [
        (True, False, 3, np.int64(-4), 0.5, np.float64(2.0)),
        (1234567.0, np.float64(1e-7), 0.1 + 0.2, "node 1", "", 7),
    ]
    assert engine.csv_text(("a", "b", "c", "d", "e", "f"), rows) == (
        "a,b,c,d,e,f\n"
        "true,false,3,-4,0.5,2\n"
        "1.23457e+06,1e-07,0.3,node 1,,7\n"
    )
    assert engine.csv_text(("a", "b"), []) == "a,b\n"


def test_zero_horizon_single_sample_no_events():
    trace = run(SimConfig(n=10, horizon_s=0.0, seed=3))
    assert trace.times.tolist() == [0.0]
    assert trace.launches == 0
    assert trace.depositions == 0
    assert sum(trace.event_counts.values()) == 0


def test_tick_zero_is_inside_a_zero_horizon():
    # every phase is 0, so at tick 0 each node sends a hello and launches a
    # walk of no hops, which deposits at once; the one visit is at tick 0
    n = 10
    trace = run(SimConfig(n=n, timeout_max_s=0.0, rw_length="0", horizon_s=0.0,
                          sink_start_s=0.0, sink_visits=1, seed=3))
    assert trace.launches == trace.depositions == n
    assert trace.event_counts["hello"] == n
    assert len(trace.sink_report.visits) == 1
    assert len(trace.sink_csv().splitlines()) == 2


def test_sink_plan_does_not_perturb_other_streams():
    few = run(moving_config(sink_visits=3))
    many = run(moving_config(sink_visits=12))
    assert (few.active_counts == many.active_counts).all()
    assert few.launches == many.launches
    assert few.depositions == many.depositions


def test_placement_unchanged_across_protocol_settings():
    a = build_topology(quick_config(sink_visits=3))
    b = build_topology(quick_config(sink_visits=12, rw_length="n"))
    assert (a.positions == b.positions).all()


def test_conservation_on_quiescent_run():
    # synchronized phases; last launch at 490 finishes by 490.5 < 495
    cfg = SimConfig(n=50, timeout_max_s=0.0, horizon_s=495.0, seed=9,
                    sink_enabled=False)
    trace = run(cfg)
    assert trace.dropped_in_flight == 0
    assert trace.launches == trace.depositions
    assert trace.launches > 0


def test_walk_accounting_identity_always_holds():
    # dropped_in_flight counts the walks whose next step falls after the
    # horizon, not launches minus depositions. With 5 s hops, walks
    # launched in the last 5 s drop at launch and earlier ones mid-walk.
    for cfg in (
        SimConfig(seed=11),
        SimConfig(seed=11, hop_latency_s=5.0, rw_length="4", horizon_s=100.0),
    ):
        trace = run(cfg)
        assert trace.dropped_in_flight > 0
        assert trace.launches == trace.depositions + trace.dropped_in_flight


@pytest.mark.parametrize("latency, advertise", [(10.0, None), (2.5, 2.0), (7.0, 0.5)])
def test_hops_may_take_longer_than_the_advertise_period(latency, advertise):
    # a node launches its next walks while its earlier ones are in flight
    cfg = moving_config(hop_latency_s=latency, advertise_period_s=advertise,
                        rw_length="3", horizon_s=120.0)
    trace = run(cfg)
    assert trace.depositions > 0 and trace.dropped_in_flight > 0
    assert trace.launches == trace.depositions + trace.dropped_in_flight
    assert trace.event_counts["launch"] == trace.launches + trace.launch_skips
    # a walk drops iff its last hop falls after the horizon
    horizon = to_ticks(cfg.horizon_s)
    launched = oracles.launches(to_ticks(trace.phases), cfg.ticks(), horizon)
    assert trace.launches == len(launched)
    ends = [t + 3 * to_ticks(latency) for t, _ in launched]
    assert trace.dropped_in_flight == sum(end > horizon for end in ends)


def test_run_that_neither_deposits_nor_visits_builds_no_view():
    with oracles.recording(engine, "View", lambda args, _: args) as built:
        trace = run(active_sweep_config(50, seed=42).with_updates(horizon_s=60.0))
    assert trace.depositions == 0 and trace.sink_report is None
    assert built == []


def test_zero_length_walks_store_self_and_full_visit_covers_all():
    n = 20
    cfg = SimConfig(n=n, rw_length=0, horizon_s=60.0, sink_visits=n,
                    sink_start_s=30.0, sink_gap_s=1.0, seed=2)
    trace = run(cfg)
    assert trace.sink_report.known_origins == set(range(n))
    assert trace.sink_report.coverage == 1.0


def test_sleeping_origin_skips_launch():
    # advertise faster than the duty period, so launches hit sleep windows
    cfg = quick_config(advertise_period_s=3.0, sink_enabled=False)
    trace = run(cfg)
    assert trace.launch_skips > 0
    assert trace.event_counts["launch"] == trace.launches + trace.launch_skips


def observed_rules(config):
    """A run's trace, with a None per hop and per discover call and
    whether each pick_next call moved its walk."""
    with (
        oracles.recording(dissemination, "hop", lambda *_: None) as hops,
        oracles.recording(dissemination, "pick_next", moved) as picks,
        oracles.recording(dissemination, "discover", lambda *_: None) as discovers,
    ):
        return run(config), hops, picks, discovers


def test_run_goes_through_the_protocol_functions():
    # the engine must call the tested rules, not copies of them
    config = quick_config(t_sleep_s=0.0)  # always awake, so most hops move
    trace, hops, picks, discovers = observed_rules(config)
    assert len(hops) == trace.event_counts["hop"] > 0
    assert len(picks) == len(hops)
    assert len(discovers) == 1
    assert any(picks)
    # the hello count covers every hello sent up to the horizon
    phases, _ = settled_discovery(config)
    h, horizon = to_ticks(config.hello_interval_s), to_ticks(config.horizon_s)
    assert trace.event_counts["hello"] == sum(len(range(p, horizon + 1, h)) for p in phases) > 0
    # the hops know only the neighbours that discover hears: with empty
    # tables, every hop stalls
    nobody = (np.zeros(config.n + 1, dtype=np.int64), *np.zeros((2, 0), dtype=np.int64))
    with oracles.patched(dissemination, "discover", lambda *args: nobody):
        trace, hops, picks, _ = observed_rules(config)
    assert len(hops) == trace.event_counts["hop"] == len(picks) > 0
    assert not any(picks)


def test_hop_gets_int_times_and_float_picks():
    # times are exact int ticks and the schedule every hop reads holds
    # Python ints, whether dispatch got the phases as an int64 array (as
    # from run), a list of ints or a list of numpy scalars; numpy scalars
    # on the hot path would slow every hop
    real_dispatch = engine.dispatch
    outputs = []
    for form in (np.asarray, np.ndarray.tolist, list):
        with (
            oracles.patched(
                engine, "dispatch", lambda phases, *args: real_dispatch(form(phases), *args)
            ),
            oracles.recording(dissemination, "hop", lambda args, _: args[2:]) as hops,
        ):
            trace = run(moving_config())
        assert len(hops) == trace.event_counts["hop"] > 0
        assert {(type(t), type(pick)) for _, t, pick in hops} == {(int, float)}
        schedules = {id(schedule): schedule for schedule, _, _ in hops}
        assert len(schedules) == 1  # one per run
        schedule, = schedules.values()
        assert type(schedule.phases) is list
        assert {type(phase) for phase in schedule.phases} == {int}
        assert type(schedule.period) is int and type(schedule.t_active) is int
        outputs.append(oracles.simulated_text(trace))
    assert outputs[0] == outputs[1] == outputs[2]


def test_awake_predicate_accepts_list_and_ndarray():
    # the reference rule takes phases as a list or an array, and
    # pick_next's rule on a Schedule of those phases agrees with it
    from rawsim.dissemination import pick_next
    from rawsim.dutycycle import Schedule

    phases = [S // 2, 3 * S]
    queries = [(0, S), (0, 3 * S // 2), (1, 2 * S), (1, 27 * S // 2)]
    for form in (phases, np.array(phases)):
        awake = oracles.awake_predicate(form, 10 * S, S)
        assert [awake(node, t) for node, t in queries] == [True, False, False, True]
        schedule = Schedule(np.asarray(form, dtype=np.int64).tolist(), 10 * S, S)
        for node, t in queries:
            # known holds only the candidate, so any pick draws it
            assert (pick_next(1 - node, [node], schedule, t, 0.5) == node) == awake(node, t)


def coverage_run(variant, **updates):
    """One short seed-42 run of a coverage variant, by default at n=30
    with horizon 120 s."""
    short = {"n": 30, "horizon_s": 120.0, "sink_start_s": 20.0}
    return run(coverage_config(variant, seed=42).with_updates(**{**short, **updates}))


def test_no_launch_skips_when_advertising_at_multiples_of_the_period():
    # a launch is due at the phase plus whole periods, a window start
    for variant in COVERAGE_VARIANTS:
        for multiple in (1, 2):
            cfg = coverage_config(variant, seed=42)
            trace = coverage_run(
                variant, advertise_period_s=multiple * cfg.period
            )
            assert trace.launches > 0
            assert trace.launch_skips == 0, (variant, multiple)


def settled_discovery(config):
    """A config's phases (ticks), as its run draws them, and the tick
    max(phase) + lcm(hello, U) from which no hello adds a neighbour."""
    bare = config.with_updates(dissemination_enabled=False, sink_enabled=False)
    phases = to_ticks(run(bare).phases).tolist()
    lcm = math.lcm(to_ticks(config.hello_interval_s), to_ticks(config.period))
    return phases, max(phases) + lcm


def replay_hellos(config, phases, horizon):
    """Each node's known neighbours, in hearing order, after every hello
    up to the horizon (oracles.first_hearings), without the engine."""
    indptr, senders, _ = oracles.first_hearings(
        phases, build_topology(config).neighbors, config.ticks(), horizon
    )
    return [row.tolist() for row in np.split(senders, indptr[1:-1])]


@pytest.mark.parametrize("t_active_s", [1.0, 0.25])
def test_one_awake_hello_per_window_when_active_time_is_the_hello_interval(t_active_s):
    for variant in ("normal", "small-timeout", "dense"):
        # the neighbour tables the engine's discover returned
        with oracles.recording(dissemination, "discover", lambda _, tables: tables) as calls:
            trace = coverage_run(variant, t_active_s=t_active_s, hello_interval_s=t_active_s)
        (_, senders, heard), = calls
        phases, settled = settled_discovery(trace.config)
        h = to_ticks(t_active_s)
        period = to_ticks(trace.config.period)
        horizon = to_ticks(trace.config.horizon_s)
        assert settled < horizon
        awake = oracles.awake_predicate(phases, period, h)
        for node, phase in enumerate(phases):
            # U is a multiple of the hello interval, so each active window
            # holds one hello, at its start
            windows = list(range(phase, horizon + 1, period))
            schedule = range(phase, horizon + 1, h)
            assert [t for t in schedule if awake(node, t)] == windows, (variant, node)
        # so a node is first heard at the start of one of its windows,
        # before discovery settles
        assert heard.size, variant
        for sender, t in zip(senders.tolist(), heard.tolist()):
            assert (t - phases[sender]) % period == 0 and t < settled, (variant, sender, t)


def test_discovery_is_fixed_after_one_common_period():
    # past max(phase) + lcm(hello, U) each hello meets the same awake
    # neighbors as the hello lcm(hello, U) before it, so it adds no edge;
    # the engine relies on this to stop dispatching hellos there
    for variant in ("normal", "small-timeout", "dense"):
        config = coverage_config(variant, seed=42).with_updates(n=30, horizon_s=300.0)
        phases, settled = settled_discovery(config)
        horizon = to_ticks(config.horizon_s)
        assert settled < horizon
        before = replay_hellos(config, phases, settled - 1)
        final = replay_hellos(config, phases, horizon)
        assert before == final, variant
        assert sum(map(len, final)) > 0


@pytest.mark.parametrize(
    "variant, updates, horizon_vs_settled",
    [
        ("normal", {}, None),
        ("small-timeout", {}, None),
        ("all-active", {}, None),          # all phases 0: every hello ties
        ("dense", {}, None),
        ("normal", {"hello_interval_s": 0.7}, None),   # lcm(h, U) = 70 s
        ("normal", {"hello_interval_s": 0.77}, None),  # lcm 770 s: no cutoff
        ("normal", {}, -1),
        ("normal", {}, 0),
    ],
)
def test_engine_neighbour_tables_equal_a_replay_of_every_hello(
    variant, updates, horizon_vs_settled
):
    # discover lists no first hearing from the tick discovery settles on;
    # the engine's final tables must equal hello_tick replayed over every
    # hello sent
    short = {"n": 30, "horizon_s": 120.0, "sink_start_s": 20.0}
    config = coverage_config(variant, seed=42).with_updates(**short, **updates)
    phases, settled = settled_discovery(config)
    if horizon_vs_settled is not None:
        config = config.with_updates(horizon_s=(settled + horizon_vs_settled) / S)
        assert to_ticks(config.horizon_s) == settled + horizon_vs_settled
    horizon = to_ticks(config.horizon_s)

    with oracles.recording(
        dissemination, "NeighborTable", lambda _, table: table.known
    ) as engine_known:
        trace = run(config)
    assert to_ticks(trace.phases).tolist() == phases
    replayed = replay_hellos(config, phases, horizon)
    assert engine_known == replayed
    assert sum(map(len, replayed)) > 0


def test_run_without_hellos_builds_no_topology():
    def no_topology(*args, **kwargs):
        raise AssertionError("topology built but nothing reads it")

    cfg = quick_config(dissemination_enabled=False, sink_visits=20, sink_gap_s=1.0)
    with oracles.patched(engine, "build_topology", no_topology):
        trace = run(cfg)
    # with no walks, a visit collects the visited node's own origin only
    assert trace.sink_report.coverage == 1.0
    assert trace.active_counts.shape == (61,)
    assert trace.view_sizes.shape == (61, 20)


def test_strict_sink_skips_sleeping_nodes():
    cfg = quick_config(sink_wake_sleeping=False, sink_visits=15)
    trace = run(cfg)
    empty = [v for v in trace.sink_report.visits if v.entries_collected == 0]
    assert empty  # with delta = 0.9 most visited nodes are asleep
    curve = [v.cumulative_origins for v in trace.sink_report.visits]
    assert curve == sorted(curve)


def test_time_avg_active_near_expectation():
    cfg = SimConfig(n=100, horizon_s=500.0, dissemination_enabled=False,
                    sink_enabled=False, seed=21)
    trace = run(cfg)
    assert 8.0 <= trace.time_avg_active() <= 12.0


def _short_run_config(name, horizon):
    if name in COVERAGE_VARIANTS:
        return coverage_config(name, seed=42).with_updates(
            n=30, horizon_s=horizon, sink_start_s=20.0
        )
    delta = float(name.removeprefix("sweep-delta"))
    base = active_sweep_config(50, seed=42).with_updates(horizon_s=horizon)
    return apply_param(base, "delta", delta)


# all-active and sweep-delta0.0 have t_active equal to U
@pytest.mark.parametrize("horizon", [37.5, 120.0])
@pytest.mark.parametrize(
    "name", COVERAGE_VARIANTS + ("sweep-delta0.0", "sweep-delta0.5", "sweep-delta0.9")
)
def test_run_active_counts_equal_the_per_cell_rule(name, horizon):
    cfg = _short_run_config(name, horizon)
    trace = run(cfg)
    samples = to_ticks(trace.times)
    assert samples.shape == (math.floor(horizon) + 1,)
    expected = kernels.active_counts_per_cell(
        to_ticks(trace.phases), to_ticks(cfg.period), to_ticks(cfg.t_active_s), samples
    )
    assert trace.active_counts.tolist() == expected.tolist()


def test_view_size_series_shape_and_bound():
    cfg = moving_config(view_policy="size:4")
    trace = run(cfg)
    assert trace.view_sizes.shape == (61, 20)
    assert trace.view_sizes.max() <= 4
    assert (np.diff([0] + list(trace.view_sizes.sum(axis=1))) >= 0).any()


def test_replicate_single_run_zero_stddev():
    result = replicate(moving_config(replications=1))
    for mean, std in result.metrics.values():
        assert std == 0.0


def test_replicate_deterministic_aggregates():
    cfg = moving_config(replications=3)
    r1 = replicate(cfg)
    r2 = replicate(cfg)
    assert r1.metrics == r2.metrics
    assert (r1.coverage_matrix == r2.coverage_matrix).all()


def test_replicate_uses_consecutive_seeds():
    cfg = moving_config(replications=3)
    with oracles.recording(engine, "run", lambda _, trace: trace) as traces:
        replicate(cfg)
    assert [t.seed for t in traces] == [5, 6, 7]
    solo = run(cfg.with_updates(seed=6))
    assert solo.summary() == traces[1].summary()


def test_replicate_without_traces_keeps_one_run_alive():
    import weakref

    alive = []  # how many earlier traces are alive as each run returns

    def kept(_, trace):
        alive.append(sum(ref() is not None for ref in refs))
        return weakref.ref(trace)

    cfg = quick_config(sink_enabled=False, dissemination_enabled=False, replications=3)
    with oracles.recording(engine, "run", kept) as refs:
        replicate(cfg)
    assert len(alive) == 3
    assert max(alive) <= 1  # the previous run's trace, until it is replaced


def test_config_from_mapping_coercion():
    cfg = SimConfig.from_mapping(
        {
            "n": "50",
            "t_sleep_s": "4",
            "sink_wake_sleeping": "false",
            "timeout_max_s": "none",
            "rw_length": "n/4",
        }
    )
    assert cfg.n == 50
    assert cfg.t_sleep_s == 4.0
    assert cfg.sink_wake_sleeping is False
    assert cfg.timeout_max_s is None
    assert cfg.resolved_rw_length() == 12


def test_config_rejects_unknown_key_and_bad_values():
    with pytest.raises(InvalidConfigError):
        SimConfig.from_mapping({"radio": "250"})
    with pytest.raises(InvalidConfigError):
        SimConfig(horizon_s=-1.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(replications=0)
    with pytest.raises(InvalidConfigError):
        SimConfig(t_active_s=0.0)
    with pytest.raises(InvalidConfigError):
        SimConfig(view_policy="size:0")
    for mapping in (
        {"n": "abc"},
        {"n": "1.5"},
        {"horizon_s": "1e"},
        {"sink_enabled": "maybe"},
        {"view_policy": "size:abc"},
        {"view_policy": "timeout:x"},
        {"n": "-4", "rw_length": "2"},
        {"horizon_s": "inf"},
        {"t_sleep_s": "nan"},
    ):
        with pytest.raises(InvalidConfigError):
            SimConfig.from_mapping(mapping)
    with pytest.raises(InvalidConfigError, match="n must be >= 1"):
        SimConfig(n=0)


def test_coerce_value_round_trips_every_default():
    for f in dataclasses.fields(SimConfig):
        if f.default is None:
            text = "none"
        elif isinstance(f.default, bool):
            text = str(f.default).lower()
        else:
            text = str(f.default)
        assert SimConfig.coerce_value(f.name, text) == f.default
        # every key parses as its annotated type
        assert type(SimConfig.coerce_value(f.name, " 1 ")) is f.type


def test_readme_config_table_lists_exactly_the_config_fields():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert keys == {f.name for f in dataclasses.fields(SimConfig)}
