"""The benchmark's workloads and the checks on their outputs.

Every workload goes through rawsim's public entry points. Each engine run
inside a workload is checked for the model's accounting invariants, and
the simulated statistics of the whole workload are folded into a digest
that must repeat exactly for the same seed.

Why these three:
- figures: what users run; time goes to walk hops and hellos in the event
  loop across the four coverage variants.
- active-sweep: never enters the event loop; time goes to topology
  construction and the active-count kernel, so a walk-engine change
  should not move it while a topology or kernel change should.
- scale-n400: one large run (about 2.2M hops, degree about 70) that shows
  whether a change scales with n and what it costs in memory.
"""

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass

import numpy as np

FIGURE_FILES = (
    "active_vs_delta_n100.csv",
    "active_vs_delta_n400.csv",
    "delta_for_sqrt_n.csv",
    "coverage_normal.csv",
    "coverage_small_timeout.csv",
    "coverage_all_active.csv",
    "coverage_dense.csv",
    "placement_1000x1000.txt",
    "placement_550x550.txt",
)

EVENT_KINDS = ("hello", "launch", "hop", "visit")


def check_run(trace):
    """Problems found in one RunTrace; an empty list means it passed."""
    problems = []
    events = trace.event_counts
    config = trace.config
    hop_budget = config.resolved_rw_length()
    n = trace.view_sizes.shape[1]
    if trace.launches + trace.launch_skips != events["launch"]:
        problems.append(
            f"launches {trace.launches} + skips {trace.launch_skips} "
            f"!= launch events {events['launch']}"
        )
    if not trace.depositions * hop_budget <= events["hop"] <= trace.launches * hop_budget:
        problems.append(
            f"hops {events['hop']} outside [{trace.depositions}, {trace.launches}]"
            f" x rw_length {hop_budget}"
        )
    k = getattr(config.resolved_view_policy(), "k", None)
    sizes = trace.view_sizes
    if sizes.size and (sizes.min() < 0 or (k is not None and sizes.max() > k)):
        problems.append(f"view sizes outside [0, {k}]")
    active = trace.active_counts
    if active.size and (active.min() < 0 or active.max() > n):
        problems.append(f"active counts outside [0, {n}]")
    if trace.sink_report is not None:
        coverage = coverage_of(trace)
        if coverage.size and (
            np.any(np.diff(coverage) < 0) or coverage.min() < 0 or coverage.max() > 1
        ):
            problems.append("coverage decreases or leaves [0, 1]")
    return problems


def coverage_of(trace):
    report = trace.sink_report
    return np.array([v.cumulative_origins / report.n for v in report.visits])


class RunChecker:
    """Wraps engine.run: checks every run and keeps what the digest and
    the event totals need, but no trace."""

    def __init__(self):
        self.runs = 0
        self.problems = []
        self.records = []
        self.events = dict.fromkeys(EVENT_KINDS, 0)
        self.launches = 0
        self.depositions = 0
        self.launch_skips = 0

    def wrap(self, run):
        def checked_run(*args, **kwargs):
            trace = run(*args, **kwargs)
            self.observe(trace)
            return trace

        return checked_run

    def observe(self, trace):
        self.runs += 1
        problems = check_run(trace)
        if problems:
            self.problems.append(f"run seed {trace.seed}: " + "; ".join(problems))
        for kind in EVENT_KINDS:
            self.events[kind] += trace.event_counts[kind]
        self.launches += trace.launches
        self.depositions += trace.depositions
        self.launch_skips += trace.launch_skips
        coverage = coverage_of(trace).tolist() if trace.sink_report is not None else None
        self.records.append(
            {
                "seed": trace.seed,
                "events": [trace.event_counts[kind] for kind in EVENT_KINDS],
                "launches": trace.launches,
                "depositions": trace.depositions,
                "launch_skips": trace.launch_skips,
                "coverage": coverage,
            }
        )

    @property
    def total_events(self):
        return sum(self.events.values())


def digest(records, files):
    """sha256 over the per-run statistics and the bytes of every output file."""
    h = hashlib.sha256()
    h.update(json.dumps(records, sort_keys=True).encode())
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


@dataclass(frozen=True)
class Outcome:
    files: dict       # output file name -> bytes
    problems: list    # workload-level check failures
    checks: int       # workload-level checks attempted


def run_figures(rawsim, seed, out_dir, tiny):
    runs = 1 if tiny else 2
    if out_dir.exists():
        shutil.rmtree(out_dir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # the list of written paths
            code = rawsim.cli.cli(
                ["figures", "--seed", str(seed), "--runs", str(runs), "--out", str(out_dir)]
            )
        files = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = []
    if code != 0:
        problems.append(f"figures exited {code}")
    missing = [name for name in FIGURE_FILES if not files.get(name)]
    if missing or len(files) != len(FIGURE_FILES):
        problems.append(f"figures wrote {sorted(files)}, missing or empty {missing}")
    return Outcome(files=files, problems=problems, checks=2)


def run_active_sweep(rawsim, seed, out_dir, tiny):
    n, runs = (100, 2) if tiny else (400, 15)
    dataset = rawsim.experiments.exp_active_vs_delta(n, runs=runs, seed=seed)
    return Outcome(files={f"{dataset.name}.csv": dataset.to_csv().encode()}, problems=[], checks=0)


def scale_config(rawsim, seed, tiny):
    """The normal coverage scenario at n=400, horizon 300 s, sink from 100 s."""
    n, horizon, sink_start = (64, 150.0, 50.0) if tiny else (400, 300.0, 100.0)
    return rawsim.experiments.coverage_config("normal", seed=seed).with_updates(
        n=n, horizon_s=horizon, sink_start_s=sink_start
    )


def run_scale(rawsim, seed, out_dir, tiny):
    rawsim.engine.run(scale_config(rawsim, seed, tiny))
    return Outcome(files={}, problems=[], checks=0)


@dataclass(frozen=True)
class Workload:
    name: str
    call: object          # (rawsim, seed, out_dir, tiny) -> Outcome
    counts_events: bool   # reports events_per_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload("figures", run_figures, counts_events=True),
        Workload("active-sweep", run_active_sweep, counts_events=False),
        Workload("scale-n400", run_scale, counts_events=True),
    )
}
