"""Command-line entry point.

Subcommands: integrate, drift, converge, projscan, bea, plots.  All accept
--config <path> (JSON, see config module docstring), --out <dir> (overrides
the config's output directory), --seed, --threads, and --verbose.  Exit
codes: 0 success, 2 configuration problem, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, HambeaError
from .config import load_config
from .plots import _TEMPLATES, emit_plots
from .studies import (
    run_bea_verify,
    run_convergence_study,
    run_drift_study,
    run_integrate,
    run_projection_scan,
)

_STUDIES = {
    "integrate": run_integrate,
    "drift": run_drift_study,
    "converge": run_convergence_study,
    "projscan": run_projection_scan,
    "bea": run_bea_verify,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON experiment config")
    common.add_argument("--out", help="output directory (overrides config)")
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized choices")
    common.add_argument("--threads", type=int, default=1, help="parallel parameter points")
    common.add_argument("--verbose", action="store_true")

    p = argparse.ArgumentParser(
        prog="hambea",
        description="Symplectic integration and backward error analysis "
        "for Hamiltonian PDEs on the circle.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("integrate", parents=[common], help="single trajectory, energy time series")
    sub.add_parser("drift", parents=[common], help="H and H-tilde drift study over an h sweep")
    sub.add_parser("converge", parents=[common], help="global error against a fine reference")
    sub.add_parser("projscan", parents=[common], help="one-step projection-radius scan")
    sub.add_parser("bea", parents=[common], help="modified-equation verification tables")
    sub.add_parser("plots", parents=[common], help="emit plot scripts for existing CSVs")
    return p


def _cmd_plots(args) -> int:
    if args.out is not None:
        directory = Path(args.out)
    elif args.config is not None:
        directory = Path(load_config(args.config).output.directory)
    else:
        raise ConfigError("plots needs --out or --config to locate the CSVs")
    present = [directory / f"{stem}.csv" for stem in _TEMPLATES if (directory / f"{stem}.csv").exists()]
    if not present:
        raise FileNotFoundError(f"no study CSVs found in {directory}")
    for script in emit_plots(sorted(present)):
        print(script)
    return 0


def _dispatch(args) -> int:
    if args.command == "plots":
        return _cmd_plots(args)
    if args.config is None:
        raise ConfigError(f"{args.command} requires --config")
    cfg = load_config(args.config)
    if args.verbose:
        print(f"config {args.config} hash {cfg.config_hash}", file=sys.stderr)
    result = _STUDIES[args.command](cfg, out_dir=args.out, seed=args.seed, threads=args.threads)
    paths = result if isinstance(result, list) else [result]
    for path in paths:
        print(path)
    if "plots" in cfg.output.formats:
        for script in emit_plots(paths):
            print(script)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _dispatch(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (HambeaError, FloatingPointError) as e:  # every other HambeaError is numerical
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
