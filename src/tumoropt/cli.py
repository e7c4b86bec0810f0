"""Command-line front end: ``tumoropt run <config> [--out DIR] ...``."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config, validate_config
from .experiments import run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tumoropt",
        description="Phase-field tumour growth solver with sparse optimal control")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a configuration file")
    run.add_argument("config", help="path to the configuration file")
    run.add_argument("--out", default="out", help="output directory (default: ./out)")
    run.add_argument("--experiment", default=None,
                     help="override experiment.name from the configuration")
    run.add_argument("--seed", type=int, default=None,
                     help="override experiment.seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.experiment is not None:
            cfg.values["experiment.name"] = args.experiment
            validate_config(cfg)
    except (ConfigError, OSError) as exc:
        print(f"tumoropt: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
