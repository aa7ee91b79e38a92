"""End-to-end and per-layer benchmark of rawsim.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads: figures, active-sweep, scale-n400 (see workloads.py). The
program is imported from src/ next to this directory and run in this one
process, with no extra threads. Within --seconds the workload is repeated
on the same seed; every repetition must give the same digest of simulated
statistics.

--trace 0 prints the end-to-end metrics: wall_s (median seconds per
repetition), peak_rss_mb, setup_s (median, over several fresh
interpreters, of the time until rawsim is imported and warmed up),
events_per_s where the workload runs the event loop, and fail_ratio.
--trace 1 repeats the workload untraced, then traced with spans around
every layer boundary, prints the per-layer metrics and writes the spans
of the last traced repetition to .perfbench/spans-<workload>-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Lines before it are for people.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import layers
import workloads
from tracing import Patches, Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7
SETUP_CHILD = (
    "import time, rawsim.cli, rawsim.kernels; rawsim.kernels.warmup(); "
    "print(rawsim.__file__); print(time.monotonic())"
)


def import_rawsim():
    """Import rawsim from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rawsim
        import rawsim.cli
        import rawsim.experiments
    except ImportError as exc:
        raise SystemExit(f"error: cannot import rawsim from {SRC}: {exc}")
    where = pathlib.Path(rawsim.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: rawsim imported from {where}, not from {SRC}")
    return rawsim


def environment(rawsim):
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": rawsim.kernels.BACKEND,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def measure_setup(repeats):
    """Median seconds from starting a fresh interpreter to rawsim ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(repeats):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        where, ready = child.stdout.split()[-2:]
        if SRC.resolve() not in pathlib.Path(where).resolve().parents:
            raise SystemExit(f"error: setup child imported rawsim from {where}")
        samples.append(float(ready) - start)
    return statistics.median(samples)


def peak_rss_mb():
    """Peak RSS of this process plus the largest peak of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Tally:
    """Checks attempted and failed across the repetitions of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def add(self, attempted, problems):
        self.attempted += attempted
        self.failed += len(problems)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    def add_digest(self, value):
        if self.digest is None:
            self.digest = value
        else:
            self.add(1, [] if value == self.digest else [f"digest {value} != {self.digest}"])


def repeat_once(rawsim, workload, seed, tiny, tally, traced):
    """One repetition; returns (wall seconds, checker, per-layer metrics or None)."""
    checker = workloads.RunChecker()
    tracer = stats = None
    out_dir = SCRATCH / f"out-{os.getpid()}"
    with Patches() as patches:
        patches.set(rawsim.engine, "run", checker.wrap(rawsim.engine.run))
        call = workload.call
        if traced:
            tracer = Tracer()
            stats = layers.LayerStats(rawsim)
            layers.install(patches, tracer, stats, rawsim)
            call = tracer.wrap("workload", call)
        start = time.perf_counter()
        try:
            outcome = call(rawsim, seed, out_dir, tiny)
        except Exception:
            traceback.print_exc()
            outcome = None
        wall = time.perf_counter() - start
    if outcome is None:
        tally.add(1, ["workload raised"])
        return wall, checker, None
    tally.add(checker.runs + outcome.checks, checker.problems + outcome.problems)
    tally.add_digest(workloads.digest(checker.records, outcome.files))
    if not traced:
        return wall, checker, None
    layer = layers.metrics(tracer, stats, checker)
    traced_wall = tracer.totals["workload"][1]
    self_sum = sum(total[2] for total in tracer.totals.values())
    hop_calls = layer["dissemination.hops"][0]
    problems = []
    if abs(self_sum - traced_wall) > 1e-6 * traced_wall + 1e-6:
        problems.append(f"self times sum to {self_sum} s, traced wall is {traced_wall} s")
    if hop_calls != checker.events["hop"]:
        problems.append(f"{hop_calls} hop calls, {checker.events['hop']} hop events")
    tally.add(2, problems)
    layer["trace.wall_s"] = (traced_wall, "s")
    layer["trace.unattributed_s"] = (tracer.self_s("workload"), "s")
    write_spans(tracer, SCRATCH / f"spans-{workload.name}-seed{seed}.json")
    return wall, checker, layer


def write_spans(tracer, path):
    """Kept spans, times relative to the first, plus the totals of every name."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "spans": [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            for name, start, end, parent in tracer.spans
        ],
        "totals": {
            name: {"calls": calls, "total_s": total, "self_s": self_s}
            for name, (calls, total, self_s) in tracer.totals.items()
        },
    }
    path.write_text(json.dumps(payload))


def repeat(rawsim, workload, seed, tiny, seconds, tally, traced):
    """Repetitions until the next one would end after the time budget; at least one."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        wall, checker, layer = repeat_once(rawsim, workload, seed, tiny, tally, traced)
        if layer is None and traced:
            return results
        results.append((wall, checker, layer))
        if time.perf_counter() + statistics.median(r[0] for r in results) > deadline:
            return results


def end_to_end(rawsim, workload, seed, tiny, seconds, tally):
    results = repeat(rawsim, workload, seed, tiny, seconds, tally, traced=False)
    metrics = {
        "wall_s": (statistics.median(r[0] for r in results), "s"),
    }
    if workload.counts_events:
        metrics["events_per_s"] = (
            statistics.median(c.total_events / w for w, c, _ in results),
            "1/s",
        )
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["setup_s"] = (measure_setup(1 if tiny else SETUP_REPEATS), "s")
    return metrics, len(results)


def per_layer(rawsim, workload, seed, tiny, seconds, tally):
    untraced = repeat(rawsim, workload, seed, tiny, seconds / 2, tally, traced=False)
    traced = repeat(rawsim, workload, seed, tiny, seconds / 2, tally, traced=True)
    if not traced:
        return {}, len(untraced)
    # Counts and ratios repeat exactly across repetitions; times vary.
    metrics = {}
    for name, (value, unit) in traced[0][2].items():
        if unit == "s" or unit == "us/event":
            value = statistics.median(r[2][name][0] for r in traced)
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r[0] for r in traced) / statistics.median(r[0] for r in untraced),
        "ratio",
    )
    return metrics, len(untraced) + len(traced)


# Printed by --trace 0 but kept out of the JSON metrics: events_per_s
# does not apply to every workload and fail_ratio is 0 on a correct run,
# while every JSON metric must be present and non-zero on every workload.
HUMAN_ONLY = ("events_per_s", "fail_ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload, for testing the benchmark itself",
    )
    args = parser.parse_args(argv)

    rawsim = import_rawsim()
    workload = workloads.WORKLOADS[args.workload]
    tiny = args.size == "tiny"
    print("env " + json.dumps(environment(rawsim), sort_keys=True))
    SCRATCH.mkdir(exist_ok=True)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, repetitions = measure(rawsim, workload, args.seed, tiny, args.seconds, tally)
    if not args.trace:
        metrics["fail_ratio"] = (tally.failed / max(tally.attempted, 1), "ratio")
    print(f"workload {args.workload} seed {args.seed} repetitions {repetitions}")
    print(f"digest {tally.digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in HUMAN_ONLY
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
