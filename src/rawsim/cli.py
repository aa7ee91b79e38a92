"""Command-line driver.

Subcommands: gen (placement files), run (single simulation), sweep
(one-parameter sweep), figures (the full experiment suite), report
(aggregate run summaries). Exit status 0 on success, 2 on any
configuration problem.
"""

import argparse
import contextlib
import json
import pathlib
import sys

import numpy as np

from . import topology
from .configfile import load_config
from .engine import SimConfig, csv_text, placement, run
from .errors import InvalidConfigError, PlacementParseError
from .experiments import all_figures, run_sweep


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rawsim",
        description="Random-walk data-dissemination simulator for "
        "duty-cycled sensor networks with a mobile sink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default=".", help="output file or directory")

    def common(p):
        """The flags of a subcommand that builds its config from them."""
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        out(p)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    p_gen = sub.add_parser("gen", help="generate a placement file")
    common(p_gen)

    p_run = sub.add_parser("run", help="run one simulation")
    common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key or 'delta'")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated swept values"
    )
    p_sweep.add_argument("--name", default=None, help="dataset name")

    p_fig = sub.add_parser("figures", help="emit every experiment CSV")
    p_fig.add_argument("--seed", type=int, default=42, help="base RNG seed")
    out(p_fig)
    p_fig.add_argument("--runs", type=int, default=15)

    p_rep = sub.add_parser("report", help="aggregate run summary JSONs")
    out(p_rep)
    p_rep.add_argument("inputs", nargs="+", help="summary.json files")

    return parser


def _load_base_config(args):
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise InvalidConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    values = load_config(args.config) if args.config else {}
    values.update(overrides)
    config = SimConfig.from_mapping(values)
    if args.seed is not None:
        config = config.with_updates(seed=args.seed)
    return config


@contextlib.contextmanager
def _writing(path):
    """Report an OSError raised while writing outputs under path as a
    configuration problem (exit 2), not a traceback."""
    try:
        yield
    except OSError as exc:
        raise InvalidConfigError(f"cannot write {path}: {exc}") from exc


def _write_out(out, default_name, text):
    """Write text to the --out path, or to default_name inside it if it is
    a directory or ends with a path separator, and print where it went."""
    import os

    path = pathlib.Path(out)
    if path.is_dir() or out.endswith(("/", os.sep)):
        path = path / default_name
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    print(path)
    return 0


def cmd_gen(args):
    config = _load_base_config(args)
    positions = placement(config)
    return _write_out(args.out, f"placement_n{config.n}.txt", topology.save_placement(positions))


def cmd_run(args):
    config = _load_base_config(args)
    trace = run(config)
    out = pathlib.Path(args.out)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace.csv").write_text(trace.samples_csv())
        (out / "sink.csv").write_text(trace.sink_csv())
        (out / "summary.json").write_text(trace.summary_json())
    print(out / "summary.json")
    return 0


def cmd_sweep(args):
    config = _load_base_config(args)
    values = tuple(v.strip() for v in args.values.split(",") if v.strip())
    name = args.name or f"sweep_{args.param.replace('/', '_')}"
    dataset = run_sweep(name, config, args.param, values)
    return _write_out(args.out, f"{name}.csv", dataset.to_csv())


def cmd_figures(args):
    with _writing(args.out):  # all_figures reads no file
        written = all_figures(seed=args.seed, out_dir=args.out, runs=args.runs)
    for path in written:
        print(path)
    return 0


def cmd_report(args):
    rows = {}
    for path in args.inputs:
        try:
            # ints parse as floats, so one out of float range reads as inf
            payload = json.loads(pathlib.Path(path).read_text(), parse_int=float)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidConfigError(f"cannot read summary {path}: {exc}") from exc
        metrics = payload.get("metrics") if isinstance(payload, dict) else None
        if not isinstance(metrics, dict):
            raise InvalidConfigError(f"summary {path} has no metrics object")
        for name, value in metrics.items():
            if not isinstance(value, float) or not np.isfinite(value):
                raise InvalidConfigError(
                    f"summary {path}: metric {name!r} is not a finite number: {value!r}"
                )
            rows.setdefault(name, []).append(value)
    columns = ("metric", "mean", "stddev", "count")
    aggregated = ((name, np.mean(v), np.std(v), len(v)) for name, v in sorted(rows.items()))
    return _write_out(args.out, "report.csv", csv_text(columns, aggregated))


COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "figures": cmd_figures,
    "report": cmd_report,
}


def cli(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except (InvalidConfigError, PlacementParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
