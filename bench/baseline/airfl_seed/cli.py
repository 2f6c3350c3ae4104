"""Command-line entry point: ``airfl <experiment> --config <path>``."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    config_from_dict,
    load_config,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airfl",
        description="Over-the-air federated learning simulator and analysis tool",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--samples", type=int, help="override the Monte Carlo sample count")
        p.add_argument("--out", help="CSV output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = load_config(args.config)
            if config.experiment != args.experiment:
                raise ConfigError(
                    f"config names experiment {config.experiment!r}, "
                    f"but {args.experiment!r} was requested"
                )
        else:
            config = config_from_dict({"experiment": args.experiment})
        overrides = {
            k: v
            for k, v in (("seed", args.seed), ("samples", args.samples), ("out", args.out))
            if v is not None
        }
        if overrides:
            config = replace(config, **overrides)
        header, rows = run_experiment(config)
    except (ConfigError, ValueError, RuntimeError) as exc:
        print(f"airfl: error: {exc}", file=sys.stderr)
        return 1
    if config.out:
        print(f"wrote {len(rows)} rows to {config.out}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(str(v) for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
