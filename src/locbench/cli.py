"""Command line entry points for the ranging and localization experiments."""

from __future__ import annotations

import argparse
import contextlib
import csv
import os
import sys

from .bench import (
    emit_csv,
    load_localization_experiment,
    load_ranging_experiment,
    run_localization_experiment,
    run_ranging_experiment,
)
from .estimators import EstimationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locbench",
        description="Range-difference localization workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("ranging", "reconstruction error sweep over an SNR grid"),
        ("localize", "source localization sweep with the configured schemes"),
    ):
        command = sub.add_parser(name, help=summary)
        command.add_argument("--config", required=True, help="flat key=value config file")
        command.add_argument("--out", required=True, help="output CSV path")
        command.add_argument("--seed", type=int, default=None, help="override config seed")
    sub.choices["localize"].add_argument(
        "--trace",
        default=None,
        help="per-epoch CSV trace of the first configured diffusion scheme",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "ranging":
            cfg = load_ranging_experiment(args.config, seed_override=args.seed)
            records = run_ranging_experiment(cfg)
        else:
            if args.trace is not None and os.path.realpath(args.trace) == os.path.realpath(args.out):
                raise ValueError(f"--trace {args.trace!r} and --out {args.out!r} name one file")
            cfg = load_localization_experiment(args.config, seed_override=args.seed)
            trace_file = (contextlib.nullcontext() if args.trace is None
                          else open(args.trace, "w", newline=""))
            with trace_file as fh:
                trace = None if fh is None else csv.writer(fh, lineterminator="\n")
                records = run_localization_experiment(cfg, trace)
        emit_csv(records, args.out)
    except (ValueError, OSError, EstimationError, MemoryError) as exc:
        print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
        return 2
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
