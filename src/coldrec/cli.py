"""Command line entry point: `coldrec <stage> --config ...` and `coldrec synth`."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import load_pipeline_config, load_synthetic_spec
from .data import DataError
from .pipeline import STAGES, StageError, run_stage

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldrec",
        description="Cold-start music recommendation pipeline",
    )
    sub = parser.add_subparsers(dest="command")
    for stage in STAGES:
        sp = sub.add_parser(stage, help=f"run the {stage} stage")
        sp.add_argument("--config", required=True, help="pipeline config file")
        sp.add_argument("--out", default=None, help="output directory override")
        sp.add_argument("--seed", type=int, default=None, help="global seed override")
    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--spec", required=True, help="synthetic dataset spec file")
    synth.add_argument("--out", default="synthetic", help="dataset output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "synth":
            from .synth import generate, write_dataset

            spec = load_synthetic_spec(args.spec)
            write_dataset(generate(spec), args.out)
            print(f"synthetic dataset written to {args.out}")
        else:
            cfg = load_pipeline_config(args.config)
            cfg = dataclasses.replace(cfg, out_dir=args.out or cfg.out_dir,
                                      seed=cfg.seed if args.seed is None else args.seed)
            run_stage(cfg, args.command)
            print(f"stage {args.command} done -> {cfg.out_dir}")
    except (DataError, StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
