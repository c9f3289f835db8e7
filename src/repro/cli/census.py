"""``repro-experiments census``: build, save, load and query census artifacts."""

from __future__ import annotations

import argparse
import sys
from typing import List

from .. import obs
from .common import (
    add_telemetry_flags,
    open_artifact,
    print_figure,
    report_verify,
    require_streamed,
    run_traced,
    unwritable_destination,
)


def build_census_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``census`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments census",
        description=(
            "Build, save, load and query columnar equilibrium-census "
            "artifacts (CensusStore)."
        ),
    )
    parser.add_argument(
        "--n", type=int, default=None, metavar="N",
        help="number of players to build the census for (omit with --load)",
    )
    parser.add_argument(
        "--load", metavar="PATH", default=None,
        help="load an existing artifact instead of building one",
    )
    parser.add_argument(
        "--save", metavar="PATH", default=None,
        help="persist the store after building (*.npz or a directory)",
    )
    parser.add_argument(
        "--format", choices=("npz", "dir"), default=None,
        help="on-disk layout for --save (default: inferred from the path)",
    )
    parser.add_argument(
        "--mmap", action="store_true",
        help="memory-map the columns when loading a directory artifact",
    )
    parser.add_argument(
        "--ucg",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "include the vectorised UCG orientation analysis when building "
            "(default: on; --no-ucg for a BCG-only artifact)"
        ),
    )
    parser.add_argument(
        "--streamed", action="store_true",
        help="build by streaming the sharded generation tree (large n)",
    )
    parser.add_argument(
        "--shard-dir", metavar="DIR", default=None,
        help="with --streamed: persist/resume per-shard column chunks here",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "with --streamed: kill and re-queue any shard attempt that "
            "runs longer than this"
        ),
    )
    parser.add_argument(
        "--shard-retries", type=int, default=None, metavar="N",
        help=(
            "with --streamed: pool attempts per shard beyond the first "
            "before the in-parent serial fallback (default: 2)"
        ),
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="with --streamed: print shard progress/retry tallies to stderr",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help=(
            "audit the artifact (content checksum + CSR invariants) after "
            "building or loading; exit 1 on failure"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the build out over N worker processes (negative: per CPU)",
    )
    parser.add_argument(
        "--grid", type=int, default=0, metavar="POINTS",
        help="also print a vectorised figure series over a log α-grid",
    )
    parser.add_argument(
        "--quantity", default="average_poa",
        choices=("average_poa", "worst_poa", "average_links"),
        help="which figure quantity --grid tabulates (default: average_poa)",
    )
    parser.add_argument(
        "--save-deltas", metavar="PATH", default=None,
        help=(
            "also persist the model-independent delta artifact (DeltaStore) "
            "for this n — the shared input of amortised ensembles "
            "(*.npz or a directory)"
        ),
    )
    add_telemetry_flags(parser)
    return parser


def census_main(argv: List[str]) -> int:
    """Run the ``census`` subcommand; returns a process exit code."""
    return run_traced("census", build_census_parser(), _run, argv)


def _run(parser: argparse.ArgumentParser, args) -> int:
    from ..analysis.report import format_store_summary, format_table

    if (args.n is None) == (args.load is None):
        parser.print_usage(sys.stderr)
        print("exactly one of --n and --load is required", file=sys.stderr)
        return 2
    if args.grid < 0:
        print("--grid must be positive, or 0 for no table", file=sys.stderr)
        return 2
    if require_streamed(
        args, ("--shard-dir", "--shard-timeout", "--shard-retries", "--progress")
    ):
        return 2
    if unwritable_destination(args.save) or unwritable_destination(args.save_deltas):
        return 2
    if args.load is not None:
        store = open_artifact(args.load, "census", mmap=args.mmap)
        if store is None:
            return 2
        source = args.load
    else:
        from ..analysis.store import CensusStore

        build = CensusStore.build_streamed if args.streamed else CensusStore.build
        kwargs = {"include_ucg": args.ucg, "jobs": args.jobs}
        if args.shard_dir:
            kwargs["shard_dir"] = args.shard_dir
        if args.streamed:
            kwargs["timeout"] = args.shard_timeout
            kwargs["max_retries"] = args.shard_retries
            if args.progress:
                kwargs["progress"] = obs.ProgressReporter()
        try:
            store = build(args.n, **kwargs)
        except (OSError, ValueError) as error:
            print(f"cannot build the n = {args.n} census: {error}", file=sys.stderr)
            return 2
        source = f"built in-process (n = {args.n})"

    # One flow from here on, whether the store was built or loaded.
    print(format_store_summary(store, source=source))
    if args.verify and report_verify(store.verify(), source):
        return 1
    if args.save is not None:
        try:
            written = store.save(args.save, format=args.format)
        except OSError as error:
            print(f"cannot save {args.save}: {error}", file=sys.stderr)
            return 2
        print(f"saved to {written}")
    if args.save_deltas is not None and _save_deltas(args, store.n):
        return 2
    if args.grid:
        from ..analysis.figure_series import census_figure_series
        from ..analysis.sweeps import figure_cost_grid

        try:
            costs = figure_cost_grid(store.n, args.grid)
        except ValueError as error:
            print(f"cannot tabulate --grid: {error}", file=sys.stderr)
            return 2
        print()
        if store.include_ucg:
            figure = census_figure_series(store, args.quantity, costs)
            print_figure(figure, args.quantity, len(costs))
        else:
            # A BCG-only artifact (the large-n case) has one game to show.
            aggregates = store.grid_aggregates(costs, "bcg")
            rows = zip(costs, aggregates[args.quantity], aggregates["counts"])
            print(f"{args.quantity} (BCG only; artifact has no UCG columns)")
            print(format_table(["alpha", args.quantity, "#eq_bcg"], rows))
    return 0


def _save_deltas(args, n: int) -> bool:
    """``census --save-deltas``: build and save the delta artifact on ``n``.

    Prints the artifact line; returns ``True`` (after reporting the error)
    when the build or the save fails.
    """
    from ..analysis.delta_store import DeltaStore

    build = DeltaStore.build_streamed if args.streamed else DeltaStore.build
    try:
        deltas = build(n, jobs=args.jobs)
        written = deltas.save(args.save_deltas)
    except (OSError, ValueError) as error:
        print(f"cannot save {args.save_deltas}: {error}", file=sys.stderr)
        return True
    summary = deltas.summary()
    print(
        f"delta artifact: {summary['classes']} classes, "
        f"{summary['removal_probes']} removal + "
        f"{summary['addition_probes']} addition probes, "
        f"saved to {written}"
    )
    return False

