"""Command line entry point: ``bansim <experiment> --config FILE``.

Exit codes: 0 success, 2 usage or configuration error or unusable output
directory, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..equalize import DivergenceError
from .config import COMMON, EXPERIMENTS, ConfigError, parse_config, parse_value
from .experiments import run_experiment
from .svg import emit_svg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bansim",
        description="Body-area-network PHY/link simulation experiments",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument("--seed", default=None,
                        help="override the config seed (a non-negative integer)")
    parser.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"bansim: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text, args.experiment)
        if args.seed is not None:
            # checked as the config's own seed is
            cfg.seed = parse_value(COMMON["seed"][0], args.seed, "--seed")
        if args.out is not None:
            cfg.output_dir = args.out
        outputs = run_experiment(cfg)
        # made once the run succeeds: a failed run leaves no empty directory
        os.makedirs(cfg.output_dir, exist_ok=True)
        for stem, table, plot in outputs:
            texts = {"csv": table.to_csv()}
            if plot is not None:
                texts["svg"] = emit_svg(table, plot)
            for suffix, text in texts.items():
                path = os.path.join(cfg.output_dir, f"{stem}.{suffix}")
                with open(path, "w", newline="\n") as fh:
                    fh.write(text)
                print(path)
    except ConfigError as exc:
        print(f"bansim: config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"bansim: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # run_experiment reports an unreadable input file as a ConfigError,
        # so this is the output directory or a file in it
        print(f"bansim: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
