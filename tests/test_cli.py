import argparse
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import oracles
import rawsim
from rawsim import topology
from rawsim.cli import COMMANDS, build_parser, cli
from rawsim.topology import load_placement, save_placement


def test_gen_writes_loadable_placement(tmp_path):
    out = tmp_path / "placement.txt"
    assert cli(["gen", "--set", "n=25", "--seed", "3", "--out", str(out)]) == 0
    positions = load_placement(out.read_text())
    assert positions.shape == (25, 2)


def test_gen_out_with_a_trailing_separator_names_a_directory(tmp_path):
    out = tmp_path / "new"
    assert cli(["gen", "--set", "n=5", "--out", f"{out}{os.sep}"]) == 0
    assert load_placement((out / "placement_n5.txt").read_text()).shape == (5, 2)


def no_disk_graph(*_):
    raise AssertionError("gen writes positions and builds no disk graph")


def test_gen_writes_the_placement_a_run_builds(tmp_path):
    sets = ["--seed", "3", "--set", "n=25", "--set", "width=300", "--set", "height=200"]
    placement = tmp_path / "placement.txt"
    with oracles.patched(topology, "build_adjacency", no_disk_graph):
        assert cli(["gen", *sets, "--out", str(placement)]) == 0
    with oracles.recording(topology, "build_adjacency", lambda args, _: args[0]) as built:
        assert cli(["run", *sets, "--set", "horizon_s=5", "--out", str(tmp_path / "r")]) == 0
    positions, = built
    assert placement.read_text() == save_placement(positions)


def test_run_missing_config_exits_2(tmp_path):
    code = cli(["run", "--config", str(tmp_path / "missing.file")])
    assert code == 2


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "n = 15\n"
        "horizon_s = 40\n"
        "sink_start_s = 20\n"
        "sink_gap_s = 2\n"
        "# comment line\n"
        "view_policy = size:4\n"
    )
    out = tmp_path / "results"
    assert cli(["run", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert summary["config"]["n"] == 15
    assert (out / "trace.csv").read_text().startswith("time_s,active_count")
    sink_header = (out / "sink.csv").read_text().splitlines()[0]
    assert sink_header == (
        "visit_index,node_id,time_s,entries_collected,"
        "new_origins,cumulative_origins,coverage"
    )


def test_set_override_and_bad_key(tmp_path, capsys):
    out = tmp_path / "r"
    assert cli(["run", "--set", "n=12", "--set", "horizon_s=20",
                "--set", "sink_start_s=10", "--set", "sink_gap_s=1",
                "--out", str(out), "--seed", "1"]) == 0
    capsys.readouterr()
    # the keys of removed options are rejected, not ignored
    for item in ("nonsense=1", "fixed_topology=true", "require_connected=true"):
        assert cli(["run", "--set", item, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config key") and err.count("\n") == 1


def test_malformed_values_exit_2(tmp_path, capsys):
    out = str(tmp_path / "r")
    for args in (
        ["run", "--set", "n=abc"],
        ["run", "--set", "horizon_s=1e"],
        ["run", "--set", "view_policy=size:abc"],
        ["sweep", "--param", "n", "--values", "1.5"],
        ["run", "--set", "n=-4", "--set", "rw_length=2"],
        # positive durations that round to 0 ticks of 1 us
        ["run", "--set", "hop_latency_s=1e-7"],
        ["run", "--set", "hello_interval_s=1e-7"],
        ["run", "--set", "t_active_s=1e-7"],
        ["run", "--set", "advertise_period_s=4e-7"],
        ["run", "--set", "view_policy=timeout:1e-7"],
        ["run", "--set", "view_policy=timeout:nan"],
        ["run", "--set", "view_policy=timeout:inf"],
        ["run", "--set", "advertise_period_s=0"],
        # geometry is checked when the config is built, not when a run
        # first reads a topology
        ["run", "--set", "radio_range=-5", "--set", "dissemination_enabled=false",
         "--set", "horizon_s=20"],
        ["run", "--set", "width=-5", "--set", "dissemination_enabled=false",
         "--set", "horizon_s=20"],
        ["run", "--set", "height=0", "--set", "dissemination_enabled=false",
         "--set", "horizon_s=20"],
    ):
        assert cli(args + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        tau = args[-1].removeprefix("view_policy=timeout:")
        if tau in ("nan", "inf"):  # the policy rejects it, not the tick conversion
            assert err == f"error: view timeout must be finite, got {tau}\n"


def test_placement_file_must_match_n(tmp_path, capsys):
    placement = tmp_path / "p25.txt"
    assert cli(["gen", "--set", "n=25", "--seed", "3", "--out", str(placement)]) == 0
    capsys.readouterr()
    out = tmp_path / "r"
    base = ["run", "--set", f"placement_file={placement}", "--set", "horizon_s=30",
            "--set", "sink_start_s=10", "--out", str(out)]
    assert cli(base) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "25" in err and "100" in err
    assert cli(base + ["--set", "n=25"]) == 0
    assert json.loads((out / "summary.json").read_text())["config"]["n"] == 25


def test_unreadable_placement_file_exits_2(tmp_path, capsys):
    out = tmp_path / "r"
    assert cli(["run", "--set", f"placement_file={tmp_path}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_non_finite_placement_file_exits_2(tmp_path, capsys):
    placement = tmp_path / "bad.txt"
    placement.write_text("0 nan 5\n1 inf 3\n2 1 1\n")
    out = tmp_path / "r"
    assert cli(["run", "--set", f"placement_file={placement}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1" in err


def test_unknown_flag_exits_2():
    assert cli(["run", "--frobnicate"]) == 2


def test_unknown_subcommand_exits_2():
    assert cli(["wat"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["report", "--set", "n=abc", "s.json"],
        ["report", "--seed", "9", "s.json"],
        ["figures", "--config", "sim.cfg"],
        ["figures", "--set", "n=12"],
        ["gen", "--n", "25"],
        ["sweep", "--runs", "3", "--param", "n", "--values", "5"],
    ],
    ids=lambda args: " ".join(args[:2]),
)
def test_flag_the_subcommand_does_not_read_exits_2(monkeypatch, capsys, args):
    # argparse must reject the flag before the subcommand starts
    monkeypatch.setitem(COMMANDS, args[0], lambda _args: 0)
    assert cli(args) == 2
    assert "unrecognized arguments: " + args[1] in capsys.readouterr().err


def test_readme_cli_section_lists_exactly_the_parser_flags():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for bullet in re.findall(r"^- (`.*?(?=^-|^$))", section, re.M | re.S):
        names, _, text = bullet.partition(":")
        for name in re.findall(r"`(\w+)`", names):
            documented[name] = set(re.findall(r"--[\w-]+", text))
    (subparsers,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {opt for a in p._actions for opt in a.option_strings} - {"-h", "--help"}
        for name, p in subparsers.choices.items()
    }
    assert documented == parsed


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only; rawsim imports and runs without it
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from rawsim.cli import cli\n"
        "sys.exit(cli(sys.argv[1:]))\n"
    )
    src = pathlib.Path(rawsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = tmp_path / "r"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--set", "n=12", "--set", "horizon_s=20",
         "--set", "sink_start_s=10", "--set", "sink_gap_s=1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "summary.json").read_text())["config"]["n"] == 12


def test_sweep_deterministic(tmp_path):
    args = [
        "sweep", "--param", "delta", "--values", "0.0,0.5",
        "--set", "replications=2", "--seed", "11",
        "--set", "n=20", "--set", "dissemination_enabled=false",
        "--set", "sink_enabled=false", "--set", "horizon_s=50",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli(args + ["--out", str(a)]) == 0
    assert cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_aggregates_summaries(tmp_path):
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert cli(["run", "--set", "n=12", "--set", "horizon_s=30",
                    "--set", "sink_start_s=15", "--set", "sink_gap_s=1",
                    "--seed", str(i), "--out", str(out)]) == 0
    report = tmp_path / "report.csv"
    assert cli(["report", str(tmp_path / "run0" / "summary.json"),
                str(tmp_path / "run1" / "summary.json"),
                "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "metric,mean,stddev,count"
    assert any(line.startswith("coverage,") for line in lines)


def test_report_writes_mean_stddev_and_count_per_metric(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text('{"metrics": {"coverage": 0.25, "launches": 12, "events": 1234567, "visits": 3}}')
    b.write_text('{"metrics": {"coverage": 0.5, "launches": 15, "events": 1234568}}')
    report = tmp_path / "report.csv"
    assert cli(["report", str(a), str(b), "--out", str(report)]) == 0
    assert report.read_text() == (
        "metric,mean,stddev,count\n"
        "coverage,0.375,0.125,2\n"
        "events,1.23457e+06,0.5,2\n"
        "launches,13.5,1.5,2\n"
        "visits,3,0,1\n"
    )


def test_report_rejects_malformed_summaries(tmp_path, capsys):
    for name, text in (
        ("list.json", "[1, 2]"),
        ("no_metrics.json", '{"config": {}}'),
        ("metrics_list.json", '{"metrics": [1]}'),
        ("null.json", '{"metrics": {"a": null}}'),
        ("text.json", '{"metrics": {"a": "1.5"}}'),
        ("bool.json", '{"metrics": {"a": true}}'),
        ("nan.json", '{"metrics": {"coverage": NaN}}'),
        ("inf.json", '{"metrics": {"launches": Infinity}}'),
        ("huge.json", '{"metrics": {"a": ' + "1" * 400 + "}}"),
    ):
        summary = tmp_path / name
        summary.write_text(text)
        assert cli(["report", str(summary), "--out", str(tmp_path / "r.csv")]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, name
        assert name in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_figures_rejects_runs_below_one_before_making_out(tmp_path, capsys, runs):
    out = tmp_path / "figs"
    assert cli(["figures", "--runs", runs, "--out", str(out)]) == 2
    assert "replications must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "gen", "sweep", "report", "figures"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    summary = tmp_path / "summary.json"
    summary.write_text('{"metrics": {"a": 1}}')
    tiny = ["--set", "n=5", "--set", "horizon_s=5", "--set", "sink_start_s=1"]
    args = {
        "run": ["run", "--out", str(blocker)] + tiny,
        "gen": ["gen", "--set", "n=5", "--out", str(blocker / "p.txt")],
        "sweep": ["sweep", "--param", "n", "--values", "5", "--set", "replications=1",
                  "--out", str(blocker / "s.csv")] + tiny,
        "report": ["report", str(summary), "--out", str(blocker / "r.csv")],
        "figures": ["figures", "--runs", "1", "--out", str(blocker)],
    }[command]
    assert cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert str(blocker) in err
    assert blocker.read_text() == "not a directory\n"
