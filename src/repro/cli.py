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
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from . import obs
from .experiments import available_experiments, run_experiment


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
    from ._version import __version__

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
    _add_telemetry_flags(parser)
    return parser


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
    _add_telemetry_flags(parser)
    return parser


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared --metrics-out / --trace telemetry flags."""
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help=(
            "write the run's telemetry to FILE on exit: *.json gets the "
            "JSON snapshot (metrics + spans), anything else the "
            "Prometheus text exposition"
        ),
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the hierarchical span timing table to stderr on exit",
    )


def _finish_telemetry(args: argparse.Namespace) -> None:
    """Honour --trace / --metrics-out after a subcommand body ran."""
    if getattr(args, "trace", False):
        tree = obs.render_span_tree(obs.get_tracer().snapshot())
        if tree:
            print(tree, file=sys.stderr)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        try:
            obs.write_metrics(metrics_out)
        except OSError as error:
            print(f"cannot write {metrics_out}: {error}", file=sys.stderr)


def _report_verify(audit, label: str) -> int:
    """Print a verify() audit; returns the process exit code share (0/1)."""
    if audit["ok"]:
        print(
            f"verify {label}: ok ({audit['classes']} classes, "
            f"checksum {audit['checksum']})"
        )
        return 0
    print(f"verify {label}: FAILED", file=sys.stderr)
    for error in audit["errors"]:
        print(f"  {error}", file=sys.stderr)
    return 1


def _print_weighted_table(ts, counts, links, social, ucg_counts=None) -> None:
    from .analysis.report import format_table

    headers = ["t", "#stable_bcg", "avg_links", "avg_social_cost"]
    if ucg_counts is not None:
        headers.append("#nash_ucg")
    rows = []
    for k, t in enumerate(ts):
        row = [t, counts[k], links[k], social[k]]
        if ucg_counts is not None:
            row.append(ucg_counts[k])
        rows.append(row)
    print()
    print(format_table(headers, rows))


def scenarios_main(argv: List[str]) -> int:
    """Run the ``scenarios`` subcommand; returns a process exit code."""
    parser = build_scenarios_parser()
    args = parser.parse_args(argv)
    try:
        with obs.span("cli:scenarios"):
            return _scenarios_run(parser, args)
    finally:
        _finish_telemetry(args)


def _scenarios_run(parser: argparse.ArgumentParser, args) -> int:
    from .analysis.report import format_weighted_store_summary
    from .analysis.scenarios import (
        available_scenarios,
        build_scenario,
        default_t_grid,
    )
    from .analysis.weighted_store import WeightedStore

    if args.list:
        for name in available_scenarios():
            print(name)
        return 0
    if args.verify and not (args.save or args.load):
        print("--verify audits an artifact; add --save or --load", file=sys.stderr)
        return 2
    if args.streamed and not args.save:
        print("--streamed builds an artifact; add --save", file=sys.stderr)
        return 2
    if args.progress and not args.streamed:
        print("--progress requires --streamed", file=sys.stderr)
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
        opened = _open_query_api(args.load, "weighted")
        if isinstance(opened, int):
            return opened
        api, summary = opened
        print(format_weighted_store_summary(summary, source=args.load))
        if args.verify and _report_verify(api.verify(args.load), args.load):
            return 1
        if args.ucg and not summary["include_ucg"]:
            print(
                f"{args.load} carries no UCG columns; rebuild the artifact "
                "with scenarios --ucg --save",
                file=sys.stderr,
            )
            return 2
        grid = api.weighted_grid(args.load, points=args.grid, ucg=args.ucg)
        _print_weighted_table(
            grid["ts"],
            grid["bcg_counts"],
            grid["average_links"],
            grid["average_social_cost"],
            ucg_counts=grid["ucg_counts"] if args.ucg else None,
        )
        return 0

    if args.name is None:
        parser.print_usage(sys.stderr)
        print("one of --list, --name and --load is required", file=sys.stderr)
        return 2
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

    if args.save is not None:
        # Fail on an unwritable destination in milliseconds, not after the
        # whole deviation-analysis build has run.
        parent = os.path.dirname(os.path.abspath(args.save))
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            print(
                f"cannot save {args.save}: directory {parent} is not writable",
                file=sys.stderr,
            )
            return 2
    # Build the columns once and answer the table from them; with --save
    # they are persisted too, so a later --load query reads the very
    # columns the printed numbers came from.
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
    if args.save is not None:
        try:
            written = store.save(args.save, format=args.format)
        except OSError as error:
            print(f"cannot save {args.save}: {error}", file=sys.stderr)
            return 2
        print(f"saved to {written}")
        if args.verify and _report_verify(store.verify(), written):
            return 1
    ts = default_t_grid(scenario.n, args.grid)
    aggregates = store.aggregates(ts)
    _print_weighted_table(
        ts,
        aggregates["bcg_counts"],
        aggregates["average_links"],
        aggregates["average_social_cost"],
        ucg_counts=store.ucg_nash_counts(ts) if args.ucg else None,
    )
    return 0


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
    _add_telemetry_flags(parser)
    return parser


def ensemble_main(argv: List[str]) -> int:
    """Run the ``ensemble`` subcommand; returns a process exit code."""
    parser = build_ensemble_parser()
    args = parser.parse_args(argv)
    try:
        with obs.span("cli:ensemble"):
            return _ensemble_run(parser, args)
    finally:
        _finish_telemetry(args)


def _ensemble_run(parser: argparse.ArgumentParser, args) -> int:
    from .analysis.ensembles import run_ensemble
    from .analysis.report import format_table
    from .analysis.scenarios import available_scenarios

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

    extra = {}
    if args.batch_draws is not None:
        extra["batch_draws"] = args.batch_draws
    if args.progress:
        extra["progress"] = obs.ProgressReporter()
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
            **extra,
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
    stats = result.count_stats
    quantiles = stats["quantiles"]
    rows = [
        [
            t,
            stats["mean"][k],
            stats["std"][k],
            stats["min"][k],
            quantiles[0.25][k],
            quantiles[0.5][k],
            quantiles[0.75][k],
            stats["max"][k],
        ]
        for k, t in enumerate(result.ts)
    ]
    print()
    print(
        format_table(
            ["t", "mean", "std", "min", "q25", "median", "q75", "max"], rows
        )
    )
    return 0


def census_main(argv: List[str]) -> int:
    """Run the ``census`` subcommand; returns a process exit code."""
    parser = build_census_parser()
    args = parser.parse_args(argv)
    try:
        with obs.span("cli:census"):
            return _census_run(parser, args)
    finally:
        _finish_telemetry(args)


def _census_run(parser: argparse.ArgumentParser, args) -> int:
    from .analysis.figure_series import census_figure_series
    from .analysis.report import format_figure, format_store_summary
    from .analysis.store import CensusStore
    from .analysis.sweeps import log_spaced_alphas

    if (args.n is None) == (args.load is None):
        parser.print_usage(sys.stderr)
        print("exactly one of --n and --load is required", file=sys.stderr)
        return 2
    for flag, value in (
        ("--shard-dir", args.shard_dir),
        ("--shard-timeout", args.shard_timeout),
        ("--shard-retries", args.shard_retries),
        ("--progress", args.progress or None),
    ):
        if value is not None and not args.streamed:
            print(f"{flag} requires --streamed", file=sys.stderr)
            return 2

    if args.load is not None:
        return _census_query(args)
    else:
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
    print(format_store_summary(store, source=source))

    if args.verify and _report_verify(store.verify(), source):
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
        costs = log_spaced_alphas(0.4, 2.0 * store.n * store.n, max(2, args.grid))
        print()
        if store.include_ucg:
            figure = census_figure_series(store, args.quantity, costs)
            print(
                format_figure(figure, f"{args.quantity} over {len(costs)} grid points")
            )
        else:
            _print_bcg_grid(args.quantity, costs, store.grid_aggregates(costs, "bcg"))
    return 0


def _save_deltas(args, n: int) -> bool:
    """``census --save-deltas``: build and save the delta artifact on ``n``.

    Prints the artifact line; returns ``True`` (after reporting the error)
    when the build or the save fails.
    """
    from .analysis.delta_store import DeltaStore

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


def _print_bcg_grid(quantity: str, costs, aggregates) -> None:
    """The one-game grid of a BCG-only census artifact (the include_ucg=False
    large-n case), printed straight off the vectorised aggregates."""
    from .analysis.report import format_table

    rows = [
        [alpha, value, count]
        for alpha, value, count in zip(costs, aggregates[quantity], aggregates["counts"])
    ]
    print(f"{quantity} (BCG only; artifact has no UCG columns)")
    print(format_table(["alpha", quantity, "#eq_bcg"], rows))


def _open_query_api(path: str, kind: str, mmap: bool = False):
    """``(api, summary) | exit_code`` for one CLI ``--load`` artifact.

    Every ``--load`` subcommand goes through the same
    :class:`~repro.service.QueryAPI` the HTTP server runs on, so the CLI
    table and the served JSON are computed by one code path.
    """
    from .analysis.artifact import LOAD_ERRORS
    from .service import ArtifactCatalog, QueryAPI

    api = QueryAPI(ArtifactCatalog(mmap=mmap))
    try:
        info = api.catalog.info(path)
        if info.kind != kind:
            print(
                f"cannot load {path}: artifact is a {info.kind} store, "
                f"not a {kind} store",
                file=sys.stderr,
            )
            return 2
        summary = api.summary(path)
    except KeyError as error:
        print(f"cannot load {path}: {error.args[0]}", file=sys.stderr)
        return 2
    except LOAD_ERRORS as error:
        print(f"cannot load {path}: {error}", file=sys.stderr)
        return 2
    return api, summary


def _census_query(args) -> int:
    """The ``census --load`` body, answered through the query service."""
    from .analysis.figure_series import figure_from_payload
    from .analysis.report import format_figure, format_store_summary
    from .analysis.sweeps import log_spaced_alphas

    opened = _open_query_api(args.load, "census", mmap=args.mmap)
    if isinstance(opened, int):
        return opened
    api, summary = opened
    print(format_store_summary(summary, source=args.load))

    if args.verify and _report_verify(api.verify(args.load), args.load):
        return 1

    if args.save is not None:
        # Re-saving through the service keeps --load --save working (e.g.
        # npz -> dir conversions) off the same loaded columns.
        _info, store = api.catalog.get(args.load)
        try:
            written = store.save(args.save, format=args.format)
        except OSError as error:
            print(f"cannot save {args.save}: {error}", file=sys.stderr)
            return 2
        print(f"saved to {written}")

    if args.save_deltas is not None and _save_deltas(args, summary["n"]):
        return 2

    if args.grid:
        print()
        if summary["include_ucg"]:
            payload = api.figure(args.load, args.quantity, args.grid)
            figure = figure_from_payload(payload)
            print(
                format_figure(
                    figure,
                    f"{args.quantity} over {payload['points']} grid points",
                )
            )
        else:
            n = summary["n"]
            costs = log_spaced_alphas(0.4, 2.0 * n * n, max(2, args.grid))
            _print_bcg_grid(
                args.quantity, costs, api.grid_aggregates(args.load, costs, "bcg")
            )
    return 0


def build_stats_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``stats`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments stats",
        description=(
            "Render telemetry: either a --metrics-out *.json snapshot "
            "written by another run, or this process's own registry."
        ),
    )
    parser.add_argument(
        "snapshot", nargs="?", default=None, metavar="FILE",
        help=(
            "a JSON telemetry snapshot to render (omit to render the "
            "current process's registry — mostly useful under --format "
            "prom/json for piping)"
        ),
    )
    parser.add_argument(
        "--format", choices=("table", "prom", "json"), default="table",
        help=(
            "output style: human-readable table (default), Prometheus "
            "text exposition, or the JSON snapshot itself"
        ),
    )
    return parser


def _format_metric_value(entry: dict) -> str:
    """One-cell summary of a snapshot metric entry, by kind."""
    if entry["kind"] == "histogram":
        parts = [f"count={entry['count']:g}", f"sum={entry['sum']:g}"]
        for q, value in sorted(entry.get("quantiles", {}).items()):
            if value is not None:
                parts.append(f"p{str(round(float(q) * 100))}={value:.3g}")
        return " ".join(parts)
    value = entry["value"]
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return f"{value:g}"


def stats_main(argv: List[str]) -> int:
    """Run the ``stats`` subcommand; returns a process exit code."""
    parser = build_stats_parser()
    args = parser.parse_args(argv)
    if args.snapshot is not None:
        try:
            with open(args.snapshot, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            print(f"cannot read {args.snapshot}: {error}", file=sys.stderr)
            return 2
        if not isinstance(payload, dict) or "metrics" not in payload:
            print(
                f"{args.snapshot} is not a repro telemetry snapshot "
                "(write one with --metrics-out FILE.json)",
                file=sys.stderr,
            )
            return 2
    else:
        payload = obs.snapshot()

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.format == "prom":
        sys.stdout.write(obs.prometheus_from_snapshot(payload))
        return 0

    from .analysis.report import format_table

    entries = sorted(
        payload.get("metrics", []),
        key=lambda e: (e["name"], sorted(e["labels"].items())),
    )
    if entries:
        rows = [
            [
                entry["name"],
                entry["kind"],
                ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
                or "-",
                _format_metric_value(entry),
            ]
            for entry in entries
        ]
        print(format_table(["metric", "kind", "labels", "value"], rows))
    else:
        print("no metrics recorded")
    spans = payload.get("spans")
    if spans and spans.get("children"):
        print()
        print(obs.render_span_tree(spans))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description=(
            "Serve census / weighted / delta artifacts over JSON/HTTP "
            "(stdlib asyncio, no extra dependencies): /healthz, /metrics "
            "(Prometheus), /artifacts and /v1/query/* endpoints, with "
            "concurrent grid queries coalesced into shared kernel calls."
        ),
    )
    parser.add_argument(
        "--dir", required=True, metavar="DIR",
        help="directory of artifacts to discover and serve",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8973, metavar="PORT",
        help="bind port; 0 picks a free one and prints it (default: 8973)",
    )
    parser.add_argument(
        "--threads", type=int, default=4, metavar="N",
        help="compute threads answering queries (default: 4)",
    )
    parser.add_argument(
        "--no-mmap", action="store_true",
        help="load directory artifacts resident instead of memory-mapped",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=5.0, metavar="SECONDS",
        help="shutdown grace period for in-flight requests (default: 5)",
    )
    return parser


def serve_main(argv: List[str]) -> int:
    """Run the ``serve`` subcommand; returns a process exit code."""
    parser = build_serve_parser()
    args = parser.parse_args(argv)
    from .service.http import serve_forever

    try:
        return serve_forever(
            args.dir,
            host=args.host,
            port=args.port,
            threads=args.threads,
            mmap=not args.no_mmap,
            drain_grace=args.drain_grace,
        )
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    except OSError as error:
        print(f"cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2


def build_query_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``query`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments query",
        description=(
            "Query a running artifact server (see 'serve').  'grid' "
            "renders the identical table 'census --load --grid' prints, "
            "so server answers are directly diffable against local ones."
        ),
    )
    parser.add_argument(
        "what",
        choices=(
            "health", "artifacts", "summary", "grid", "windows", "ensemble",
        ),
        help="which endpoint to query",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8973", metavar="URL",
        help="server base URL (default: http://127.0.0.1:8973)",
    )
    parser.add_argument(
        "--artifact", default=None, metavar="ID",
        help="artifact id (as listed by 'query artifacts')",
    )
    parser.add_argument(
        "--quantity", default="average_poa",
        choices=("average_poa", "worst_poa", "average_links"),
        help="figure quantity for 'grid' (default: average_poa)",
    )
    parser.add_argument(
        "--points", type=int, default=24, metavar="N",
        help="grid points for 'grid' (default: 24)",
    )
    parser.add_argument(
        "--game", default="bcg", choices=("bcg", "ucg"),
        help="game for 'windows' (default: bcg)",
    )
    parser.add_argument(
        "--scenario", default="random_weights", metavar="NAME",
        help="scenario for 'ensemble' (default: random_weights)",
    )
    parser.add_argument("--n", type=int, default=6, metavar="N")
    parser.add_argument("--draws", type=int, default=8, metavar="K")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    parser.add_argument("--grid", type=int, default=8, metavar="POINTS")
    parser.add_argument(
        "--json", action="store_true",
        help="print the raw JSON response instead of a rendered table",
    )
    return parser


def _http_json(url: str, payload: Optional[dict] = None):
    """One GET/POST round-trip returning the decoded JSON body."""
    import urllib.request

    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read().decode("utf-8"))


def query_main(argv: List[str]) -> int:
    """Run the ``query`` subcommand; returns a process exit code."""
    import urllib.error

    parser = build_query_parser()
    args = parser.parse_args(argv)
    base = args.url.rstrip("/")
    needs_artifact = args.what in ("summary", "grid", "windows")
    if needs_artifact and args.artifact is None:
        print(f"'{args.what}' needs --artifact", file=sys.stderr)
        return 2
    try:
        payload = _query_request(base, args)
    except urllib.error.HTTPError as error:
        try:
            detail = json.loads(error.read().decode("utf-8")).get("error")
        except (ValueError, OSError):
            detail = None
        print(
            f"server error {error.code}: {detail or error.reason}",
            file=sys.stderr,
        )
        return 1
    except (urllib.error.URLError, OSError) as error:
        print(f"cannot reach {base}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    _render_query_response(args, payload)
    return 0


def _query_request(base: str, args) -> dict:
    """Dispatch one ``query`` subcommand to the server."""
    if args.what == "health":
        return _http_json(base + "/healthz")
    if args.what == "artifacts":
        return _http_json(base + "/artifacts")
    if args.what == "summary":
        return _http_json(base + "/artifacts/" + args.artifact)
    if args.what == "grid":
        return _http_json(
            base + "/v1/query/grid",
            {
                "artifact": args.artifact,
                "quantity": args.quantity,
                "points": args.points,
            },
        )
    if args.what == "windows":
        return _http_json(
            base + "/v1/query/windows",
            {"artifact": args.artifact, "game": args.game},
        )
    return _http_json(
        base + "/v1/query/ensemble-stats",
        {
            "scenario": args.scenario,
            "n": args.n,
            "draws": args.draws,
            "seed": args.seed,
            "grid": args.grid,
        },
    )


def _render_query_response(args, payload: dict) -> None:
    """Human-readable rendering of a ``query`` response."""
    from .analysis.report import format_table

    if args.what == "health":
        print(
            f"status {payload['status']}, version {payload['version']}, "
            f"{payload['artifacts']} artifact(s), up "
            f"{payload['uptime_seconds']:.1f}s"
        )
    elif args.what == "artifacts":
        rows = [
            [art["id"], art["kind"], art["n"], art["format"]]
            for art in payload["artifacts"]
        ]
        print(format_table(["id", "kind", "n", "format"], rows))
    elif args.what == "summary":
        from .analysis.report import (
            format_store_summary,
            format_weighted_store_summary,
        )

        summary = payload["summary"]
        if summary["kind"] == "census":
            print(format_store_summary(summary))
        elif summary["kind"] == "weighted":
            print(format_weighted_store_summary(summary))
        else:
            print(json.dumps(summary, indent=2, sort_keys=True))
    elif args.what == "grid":
        # Render through the same FigureData path the census subcommand
        # uses, with the same title — the tables are byte-identical.
        from .analysis.figure_series import figure_from_payload
        from .analysis.report import format_figure

        figure = figure_from_payload(payload)
        print(
            format_figure(
                figure,
                f"{args.quantity} over {payload['points']} grid points",
            )
        )
    elif args.what == "windows":
        axis = "alpha" if payload["kind"] == "census" else "t"
        lo, hi = payload[f"{axis}_min"], payload[f"{axis}_max"]
        rows = [
            [k, lo[k], hi[k]] for k in range(payload["classes"])
        ]
        print(
            format_table(["class", f"{axis}_min", f"{axis}_max"], rows)
        )
    else:  # ensemble
        stats = payload["count_stats"]
        quantiles = stats["quantiles"]
        rows = [
            [
                t,
                stats["mean"][k],
                stats["std"][k],
                stats["min"][k],
                quantiles["0.25"][k],
                quantiles["0.5"][k],
                quantiles["0.75"][k],
                stats["max"][k],
            ]
            for k, t in enumerate(payload["ts"])
        ]
        print(
            f"ensemble {payload['scenario']}: n = {payload['n']}, "
            f"{payload['draws']} draws, {payload['classes']} connected "
            "classes"
        )
        print()
        print(
            format_table(
                ["t", "mean", "std", "min", "q25", "median", "q75", "max"],
                rows,
            )
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("--version", "-V"):
        from ._version import __version__

        print(__version__)
        return 0
    if argv and argv[0] == "census":
        return census_main(list(argv[1:]))
    if argv and argv[0] == "scenarios":
        return scenarios_main(list(argv[1:]))
    if argv and argv[0] == "ensemble":
        return ensemble_main(list(argv[1:]))
    if argv and argv[0] == "stats":
        return stats_main(list(argv[1:]))
    if argv and argv[0] == "serve":
        return serve_main(list(argv[1:]))
    if argv and argv[0] == "query":
        return query_main(list(argv[1:]))
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


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/filter (e.g. `repro stats ... | head`) closed the
        # pipe early; redirect stdout at the fd level so the interpreter's
        # shutdown flush does not traceback, and exit like a SIGPIPE death.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
