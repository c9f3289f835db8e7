"""``repro-experiments ensemble``: aggregate seeded scenario draws."""

from __future__ import annotations

import argparse
import sys
from typing import List

from .. import obs
from .common import add_telemetry_flags, print_ensemble_table, run_traced


def build_ensemble_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``ensemble`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments ensemble",
        description=(
            "Aggregate stability statistics over many seeded draws of a "
            "heterogeneous link-cost scenario: draw k plays seed+k, draws "
            "fan out over worker processes, and per-scale stable counts "
            "are summarised as mean/std/quantiles."
        ),
    )
    parser.add_argument(
        "--scenario", default="random_weights", metavar="NAME",
        help="registered scenario to draw from (default: random_weights)",
    )
    parser.add_argument(
        "--n", type=int, default=6, metavar="N",
        help="number of players (default: 6)",
    )
    parser.add_argument(
        "--draws", type=int, default=8, metavar="K",
        help="number of seeded draws (default: 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="base seed; draw k uses seed S+k (default: 0)",
    )
    parser.add_argument(
        "--grid", type=int, default=8, metavar="POINTS",
        help="number of log-spaced scale grid points (default: 8)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the draws out over N worker processes (negative: per CPU)",
    )
    parser.add_argument(
        "--save-dir", metavar="DIR", default=None,
        help=(
            "persist one weighted-store artifact per draw here (existing "
            "matching artifacts are loaded instead of recomputed)"
        ),
    )
    parser.add_argument(
        "--format", choices=("npz", "dir"), default="npz",
        help="artifact layout under --save-dir (default: npz)",
    )
    parser.add_argument(
        "--delta-cache", metavar="PATH", default=None,
        help=(
            "persistent shared delta artifact: loaded (mmapped when a "
            "directory) if it exists, built once and saved there if not"
        ),
    )
    parser.add_argument(
        "--batch-draws", type=int, default=None, metavar="B",
        help="draws answered per stacked-kernel block (default: 16)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print draw-block progress/retry tallies to stderr",
    )
    add_telemetry_flags(parser)
    return parser


def ensemble_main(argv: List[str]) -> int:
    """Run the ``ensemble`` subcommand; returns a process exit code."""
    return run_traced("ensemble", build_ensemble_parser(), _run, argv)


def _run(parser: argparse.ArgumentParser, args) -> int:
    from ..analysis.ensembles import DEFAULT_BATCH_DRAWS, run_ensemble
    from ..analysis.scenarios import available_scenarios

    if args.scenario not in available_scenarios():
        print(
            f"unknown scenario {args.scenario!r}; available: "
            f"{', '.join(available_scenarios())}",
            file=sys.stderr,
        )
        return 2
    if args.n < 2:
        print("scenarios need at least two players", file=sys.stderr)
        return 2
    if args.draws < 1:
        print("an ensemble needs at least one draw", file=sys.stderr)
        return 2
    if args.batch_draws is not None and args.batch_draws < 1:
        print("--batch-draws must be positive", file=sys.stderr)
        return 2

    try:
        result = run_ensemble(
            scenario=args.scenario,
            n=args.n,
            draws=args.draws,
            seed=args.seed,
            grid=args.grid,
            jobs=args.jobs,
            save_dir=args.save_dir,
            save_format=args.format,
            delta_cache=args.delta_cache,
            batch_draws=(
                DEFAULT_BATCH_DRAWS if args.batch_draws is None else args.batch_draws
            ),
            progress=obs.ProgressReporter() if args.progress else None,
        )
    except (OSError, ValueError) as error:
        print(f"cannot run the ensemble: {error}", file=sys.stderr)
        return 2
    print(
        f"ensemble {result.scenario}: n = {result.n}, {result.draws} draws "
        f"(seeds {result.seeds[0]}..{result.seeds[-1]}), "
        f"{result.classes} connected classes"
    )
    print(f"  draws: resumed {result.resumed}, computed {result.recomputed}")
    if args.delta_cache:
        print(f"  delta cache: {args.delta_cache}")
    if result.artifact_paths:
        print(f"  artifacts: {len(result.artifact_paths)} under {args.save_dir}")
    print_ensemble_table(result.ts, result.count_stats)
    return 0
