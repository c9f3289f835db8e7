"""``repro-experiments scenarios``: sweep heterogeneous link-cost scenarios,
and save and query weighted-store artifacts."""

from __future__ import annotations

import argparse
import sys
from typing import List

from .. import obs
from .common import (
    add_telemetry_flags,
    open_artifact,
    report_verify,
    require_streamed,
    run_traced,
    unwritable_destination,
)


def build_scenarios_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``scenarios`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments scenarios",
        description=(
            "Sweep heterogeneous link-cost scenarios (per-player / per-edge "
            "α) over a scale grid: at every grid point t the games are "
            "played on C = t·W."
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the registered scenario names and exit",
    )
    parser.add_argument(
        "--name", default=None, metavar="SCENARIO",
        help="scenario to sweep (see --list)",
    )
    parser.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="number of players (default: 6; not valid with --load)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="seed for randomised scenarios (default: 0; not valid with --load)",
    )
    parser.add_argument(
        "--grid", type=int, default=8, metavar="POINTS",
        help="number of log-spaced scale grid points (default: 8)",
    )
    parser.add_argument(
        "--ucg",
        action="store_true",
        help=(
            "also run the weighted UCG orientation analysis (vectorised "
            "engine); with --save/--load the UCG t-interval columns are "
            "persisted in / reported from the artifact"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the UCG analysis out over N worker processes",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help=(
            "persist the sweep as a weighted-store artifact (*.npz or a "
            "directory) and answer the table from it (add --ucg for UCG "
            "columns)"
        ),
    )
    parser.add_argument(
        "--load", metavar="PATH", default=None,
        help=(
            "query an existing weighted-store artifact instead of sweeping "
            "(no deviation analysis is recomputed)"
        ),
    )
    parser.add_argument(
        "--format", choices=("npz", "dir"), default=None,
        help="on-disk layout for --save (default: inferred from the path)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help=(
            "with --save/--load: audit the artifact (content checksum + "
            "CSR invariants); exit 1 on failure"
        ),
    )
    parser.add_argument(
        "--streamed", action="store_true",
        help=(
            "with --save: build the artifact by streaming the sharded "
            "generation tree instead of holding every class in memory"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="with --streamed: print shard progress/retry tallies to stderr",
    )
    add_telemetry_flags(parser)
    return parser


def scenarios_main(argv: List[str]) -> int:
    """Run the ``scenarios`` subcommand; returns a process exit code."""
    return run_traced("scenarios", build_scenarios_parser(), _run, argv)


def _run(parser: argparse.ArgumentParser, args) -> int:
    from ..analysis.report import format_table, format_weighted_store_summary
    from ..analysis.scenarios import (
        available_scenarios,
        build_scenario,
        default_t_grid,
    )
    from ..analysis.weighted_store import WeightedStore

    if args.list:
        for name in available_scenarios():
            print(name)
        return 0
    if args.grid < 1:
        print("--grid must be positive", file=sys.stderr)
        return 2
    if args.verify and not (args.save or args.load):
        print("--verify audits an artifact; add --save or --load", file=sys.stderr)
        return 2
    if args.streamed and not args.save:
        print("--streamed builds an artifact; add --save", file=sys.stderr)
        return 2
    if require_streamed(args, ("--progress",)):
        return 2
    if args.load is None and args.name is None:
        parser.print_usage(sys.stderr)
        print("one of --list, --name and --load is required", file=sys.stderr)
        return 2

    if args.load is not None:
        # The artifact fixes the scenario, n, seed and model entirely —
        # accepting (and ignoring) the build flags would let the output be
        # misread as a sweep of whatever the user typed.
        conflicting = [
            flag
            for flag, value in (
                ("--name", args.name),
                ("--save", args.save),
                ("--n", args.n),
                ("--seed", args.seed),
                ("--jobs", args.jobs),
                ("--format", args.format),
            )
            if value is not None
        ]
        if conflicting:
            print(
                "--load queries an existing artifact; it takes no "
                + "/".join(conflicting),
                file=sys.stderr,
            )
            return 2
        store = open_artifact(args.load, "weighted")
        if store is None:
            return 2
        print(format_weighted_store_summary(store, source=args.load))
        label = args.load
    else:
        n = 6 if args.n is None else args.n
        seed = 0 if args.seed is None else args.seed
        if n < 2:
            print("scenarios need at least two players", file=sys.stderr)
            return 2
        try:
            scenario = build_scenario(args.name, n, seed=seed)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
        if unwritable_destination(args.save):
            return 2
        store = WeightedStore.from_scenario(
            scenario,
            jobs=args.jobs,
            include_ucg=args.ucg,
            streamed=args.streamed,
            progress=obs.ProgressReporter() if args.progress else None,
        )
        print(
            f"scenario {scenario.name}: n = {scenario.n}, "
            f"{scenario.model.kind} cost model, {len(store)} connected classes"
        )
        print(f"  {scenario.description}")
        label = None
        if args.save is not None:
            try:
                label = store.save(args.save, format=args.format)
            except OSError as error:
                print(f"cannot save {args.save}: {error}", file=sys.stderr)
                return 2
            print(f"saved to {label}")

    # One flow from here on: each branch printed its own header, and the
    # table is answered from the store either way, so a --load query prints
    # the very numbers the --save build printed.
    if args.verify and report_verify(store.verify(), label):
        return 1
    if args.ucg and not store.include_ucg:
        print(
            f"{label} carries no UCG columns; rebuild the artifact "
            "with scenarios --ucg --save",
            file=sys.stderr,
        )
        return 2
    try:
        ts = default_t_grid(store.n, args.grid)
    except ValueError as error:
        print(f"cannot tabulate --grid: {error}", file=sys.stderr)
        return 2
    aggregates = store.aggregates(ts)
    headers = ["t", "#stable_bcg", "avg_links", "avg_social_cost"]
    columns = [
        ts,
        aggregates["bcg_counts"],
        aggregates["average_links"],
        aggregates["average_social_cost"],
    ]
    if args.ucg:
        headers.append("#nash_ucg")
        columns.append(store.ucg_nash_counts(ts))
    print()
    print(format_table(headers, zip(*columns)))
    return 0
