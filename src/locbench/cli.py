"""Command line entry points for the ranging and localization experiments."""

from __future__ import annotations

import argparse
import csv
import sys

from .bench import (
    MetricsRecord,
    RangingRecord,
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

    ranging = sub.add_parser(
        "ranging", help="reconstruction error sweep over an SNR grid"
    )
    ranging.add_argument("--config", required=True, help="flat key=value config file")
    ranging.add_argument("--out", required=True, help="output CSV path")
    ranging.add_argument("--seed", type=int, default=None, help="override config seed")

    localize = sub.add_parser(
        "localize", help="source localization sweep with the configured schemes"
    )
    localize.add_argument("--config", required=True, help="flat key=value config file")
    localize.add_argument("--out", required=True, help="output CSV path")
    localize.add_argument("--seed", type=int, default=None, help="override config seed")
    localize.add_argument(
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
            emit_csv(records, args.out, record_type=RangingRecord)
        else:
            cfg = load_localization_experiment(args.config, seed_override=args.seed)
            if args.trace is None:
                records = run_localization_experiment(cfg)
            else:
                with open(args.trace, "w", newline="") as fh:
                    writer = csv.writer(fh, lineterminator="\n")
                    writer.writerow(
                        ["trial", "epoch", "head", "x1", "x2", "max_step"]
                    )

                    def trace_writer(trial, epoch, head, x1, x2, max_step):
                        writer.writerow(
                            [
                                trial,
                                epoch,
                                head,
                                f"{x1:.9g}",
                                f"{x2:.9g}",
                                f"{max_step:.9g}",
                            ]
                        )

                    records = run_localization_experiment(cfg, trace_writer)
            emit_csv(records, args.out, record_type=MetricsRecord)
    except (ValueError, OSError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
