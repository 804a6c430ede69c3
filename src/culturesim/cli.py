"""Command-line entry points: run experiments, re-analyze stored series,
and validate template files."""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from typing import List, Optional

from .actions import ActionFormatError
from .analysis import discount_rate, npv, piv, time_to_threshold
from .experiments import (
    PRESET_EXP1,
    PRESET_EXP2,
    PRESET_EXP3,
    execute,
    fmt,
    load_config,
    preset_spec,
)
from .fitness import ACCEPTABLE_SUBACTIONS, TemplateSet
from .world import ConfigError


def _read_series(path: str) -> List[float]:
    """The mean_fitness column of a series CSV.  A row without a finite
    number there, or a line csv cannot parse, fails with the file and line named."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or "mean_fitness" not in reader.fieldnames:
                raise ConfigError(f"{path} has no mean_fitness column")
            series = []
            for row in reader:
                text = row["mean_fitness"]  # None in a short row
                try:
                    value = float(text)
                except (TypeError, ValueError):
                    value = math.nan
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{path} line {reader.line_num}: mean_fitness must be a finite"
                        f" number, got {'nothing' if text is None else repr(text)}"
                    )
                series.append(value)
            return series
        except csv.Error as exc:
            # The csv reader counts the line it failed on; DictReader has not yet.
            raise ConfigError(f"{path} line {reader.reader.line_num}: {exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    """``run CONFIG`` and the preset commands: decide the spec, then run it."""
    if args.command == "run":
        spec = load_config(args.config)
        if args.out is not None:
            spec = replace(spec, output_dir=args.out)
    else:
        spec = preset_spec(args.preset, runs=args.runs, seed=args.seed, out=args.out)
    for path in execute(spec):
        print(path)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    # A NaN threshold is never reached and an infinite one always or
    # never, so either would print a time that measures nothing.  An
    # infinite interest rate would convert to a factor of 0.
    for name in ("tau", "rate"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
    series = _read_series(args.series)
    if not series:
        raise ConfigError(f"{args.series} contains no data rows")
    horizon = len(series)
    ttt = time_to_threshold(series, args.tau)
    rate = discount_rate(args.rate) if args.rate > 1.0 else args.rate
    # Everything is computed before the first line is printed, so a bad
    # rate or baseline ends in an error alone, not after partial output.
    lines = [
        f"horizon={horizon}",
        f"ttt={ttt}" + (" (censored)" if ttt > horizon else ""),
        f"npv={fmt(npv(series, rate))}",
    ]
    if args.baseline:
        baseline = _read_series(args.baseline)
        lines.append(f"piv={fmt(piv(series, baseline))}")
    print("\n".join(lines))
    return 0


def cmd_validate_templates(args: argparse.Namespace) -> int:
    ts = TemplateSet.from_file(args.file)
    neutral = (0,) * 6
    print(f"templates={len(ts.templates)}")
    print(f"fitness_neutral={fmt(ts.fitness_subaction(neutral))}")
    print(f"acceptable_subactions={len(ACCEPTABLE_SUBACTIONS)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="culturesim",
        description="Lattice cultural-evolution simulator and analysis toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", default=None, help="override output directory")

    for name, preset in (
        ("exp1", PRESET_EXP1),
        ("exp2", PRESET_EXP2),
        ("exp3", PRESET_EXP3),
    ):
        p = sub.add_parser(name, help=f"run the {name} preset at desk scale")
        p.add_argument("--runs", type=int, default=None, help="runs per cell")
        p.add_argument("--seed", type=int, default=None, help="base seed")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(preset=preset)

    p_an = sub.add_parser("analyze", help="recompute TTT/NPV/PIV from a series CSV")
    p_an.add_argument("series", help="series CSV with a mean_fitness column")
    p_an.add_argument("--tau", type=float, required=True, help="fitness threshold")
    p_an.add_argument(
        "--rate",
        type=float,
        required=True,
        help="discount rate r in (0, 1], or an interest percentage > 1",
    )
    p_an.add_argument("--baseline", default=None, help="baseline series CSV for PIV")

    p_vt = sub.add_parser("validate-templates", help="check a template JSON file")
    p_vt.add_argument("file", help="path to a template JSON file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "exp1", "exp2", "exp3"):
            return cmd_run(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "validate-templates":
            return cmd_validate_templates(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ActionFormatError, OSError, ValueError, BrokenExecutor) as exc:
        # BrokenExecutor: a pool worker died mid-sweep (BrokenProcessPool).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
