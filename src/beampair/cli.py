"""Batch entry point: run experiment configs, validate them, list families."""

import argparse
import sys
from dataclasses import replace

from .estimator import BothZero, InsufficientNeighbors, NoSignal
from .experiments import (EXPERIMENTS, FAMILIES, ConfigError, IoError, ParseError,
                          StreamMismatch, load_config, run_experiment, setup_experiment,
                          snr_grid, validate_config)
from .metrics import EmptyInput

# typed failures of a run whose config was valid: I/O, an empty reduction,
# the estimator's no-signal and pairing errors, a non-finite trial result,
# and a numpy whose seeding the trial streams no longer reproduce
RUN_FAILURES = (IoError, EmptyInput, NoSignal, BothZero, InsufficientNeighbors,
                FloatingPointError, StreamMismatch)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beampair",
        description="Beam-pair angle estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", nargs="?", default=None,
                       help="config file (key=value lines); defaults when omitted")
    run_p.add_argument("--experiment", default=None, choices=EXPERIMENTS,
                       help="override the experiment family")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--trials", type=int, default=None)
    run_p.add_argument("--out-dir", default=".")
    run_p.add_argument("--no-plots", action="store_true")

    val_p = sub.add_parser("validate", help="parse a config and report problems")
    val_p.add_argument("config")
    val_p.set_defaults(experiment=None, seed=None, trials=None, no_plots=False)

    sub.add_parser("list-experiments", help="print the known experiment ids")
    return parser


def _load(args) -> "ExperimentConfig":
    cfg = validate_config("") if args.config is None else load_config(args.config)
    overrides = {}
    if args.experiment is not None:
        overrides["experiment"] = args.experiment
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.no_plots:
        overrides["plots"] = False
    return replace(cfg, **overrides) if overrides else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-experiments":
        for name in EXPERIMENTS:
            print(name)
        return 0
    try:
        cfg = _load(args)
        if args.command == "validate":
            setup_experiment(cfg)
    except (ParseError, ConfigError, OSError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    if args.command == "validate":
        snr = (f" snr_db={list(snr_grid(cfg))}"
               if "snr_db" in FAMILIES[cfg.experiment].reads else "")
        print(f"ok: experiment={cfg.experiment} trials={cfg.trials} seed={cfg.seed}{snr}")
        return 0
    try:
        result = run_experiment(cfg, out_dir=args.out_dir)
    except (ConfigError, *RUN_FAILURES) as exc:  # a ConfigError comes from the setup
        kind = "invalid config" if isinstance(exc, ConfigError) else "run failed"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1
    for path in result["files"]:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
