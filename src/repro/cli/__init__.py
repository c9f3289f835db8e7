"""Command-line interface: ``python -m repro.cli <experiment> [...]``.

Examples
--------
List the available experiments::

    python -m repro.cli --list

Reproduce Figure 2 and Lemma 6::

    python -m repro.cli figure2 lemma6

Run everything (slow — builds the exhaustive censuses)::

    python -m repro.cli --all

Build, persist and query a columnar census artifact::

    python -m repro.cli census --n 7 --save census7.npz
    python -m repro.cli census --load census7.npz --grid 24 --quantity average_poa

Each subcommand has its own module, which imports the stores and kernels it
needs only when it runs; the experiments load only when one is run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .census import census_main
from .ensemble import ensemble_main
from .scenarios import build_scenarios_parser, scenarios_main  # noqa: F401 - public
from .server import query_main, serve_main
from .stats import stats_main

#: The subcommands :func:`main` dispatches on its first argument.
SUBCOMMANDS = {
    "census": census_main,
    "scenarios": scenarios_main,
    "ensemble": ensemble_main,
    "stats": stats_main,
    "serve": serve_main,
    "query": query_main,
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the experiments CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the figures and results of Corbo & Parkes (PODC 2005), "
            "'The Price of Selfish Behavior in Bilateral Network Formation'."
        ),
        epilog=(
            "Subcommands: 'census' builds, saves, loads and queries columnar "
            "equilibrium-census artifacts; 'scenarios' sweeps heterogeneous "
            "link-cost scenarios (and persists/queries weighted artifacts); "
            "'ensemble' aggregates seeded scenario draws; 'stats' renders "
            "telemetry snapshots; 'serve' exposes artifacts over JSON/HTTP "
            "and 'query' is its client — see '<subcommand> --help'."
        ),
    )
    from .._version import __version__

    parser.add_argument(
        "--version", action="version", version=__version__,
        help="print the library version and exit",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (see --list)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the available experiment ids and exit",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run every registered experiment",
    )
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="print only the one-line pass/fail summaries",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fan censuses and sampled sweeps out over N worker processes "
            "(default: serial; negative: one worker per CPU); results are "
            "identical for any value"
        ),
    )
    parser.add_argument(
        "--sampled",
        action="store_true",
        help=(
            "also run the dynamics-sampled paper-sized variant of experiments "
            "that offer one (figure2, figure3)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help=(
            "override the sampling seed of dynamics-sampled experiment "
            "variants (use with --sampled)"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("--version", "-V"):
        from .._version import __version__

        print(__version__)
        return 0
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](list(argv[1:]))
    from ..experiments import available_experiments, run_experiment

    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    ids = list(args.experiments)
    if args.all:
        ids = available_experiments()
    if not ids:
        parser.print_help()
        return 2

    exit_code = 0
    for experiment_id in ids:
        try:
            result = run_experiment(
                experiment_id,
                jobs=args.jobs,
                seed=args.seed,
                sampled=args.sampled,
            )
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        if args.summary_only:
            print(result.summary())
        else:
            print(result.render())
            print()
        if not result.all_passed:
            exit_code = 1
    return exit_code

