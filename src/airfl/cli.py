"""Command-line entry point: ``airfl <experiment> --config <path>``."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

from .experiments import (
    SCHEMAS,
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
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file (defaults apply if omitted)")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        if "samples" in {f.name for f in fields(schema)}:
            p.add_argument("--samples", type=int,
                           help="override the Monte Carlo sample count")
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
            for k in ("seed", "samples", "out")
            if (v := getattr(args, k, None)) is not None
        }
        if overrides:
            # replace() runs the schema's field checks on the new values
            config = replace(config, **overrides)
        header, rows = run_experiment(config)
    except (ConfigError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"airfl: error: {exc}", file=sys.stderr)
        return 1
    try:
        if config.out:
            print(f"wrote {len(rows)} rows to {config.out}")
        else:
            print(",".join(header))
            for row in rows:
                print(",".join(str(v) for v in row))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); the interpreter's
        # flush at exit would fail again, so it writes to devnull instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
