"""What several subcommands share: telemetry flags and the traced run, the
``--streamed`` and ``--verify`` helpers, opening a ``--load`` artifact, and
the tables that a local subcommand and the ``query`` client both print.

Each of those tables has exactly one renderer here, so a server answer
rendered by ``query`` cannot drift from the local command's output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, List, Optional, Sequence

from .. import obs


def add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
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


def run_traced(
    name: str,
    parser: argparse.ArgumentParser,
    body: Callable[[argparse.ArgumentParser, argparse.Namespace], int],
    argv: List[str],
) -> int:
    """Parse ``argv`` and run ``body`` under the ``cli:<name>`` span.

    ``--trace`` and ``--metrics-out`` are honoured on the way out, whatever
    the body returned or raised.  Returns the body's exit code.
    """
    args = parser.parse_args(argv)
    try:
        with obs.span(f"cli:{name}"):
            return body(parser, args)
    finally:
        if args.trace:
            tree = obs.render_span_tree(obs.get_tracer().snapshot())
            if tree:
                print(tree, file=sys.stderr)
        if args.metrics_out:
            try:
                obs.write_metrics(args.metrics_out)
            except OSError as error:
                print(f"cannot write {args.metrics_out}: {error}", file=sys.stderr)


def require_streamed(args: argparse.Namespace, flags: Sequence[str]) -> bool:
    """Report the first of ``flags`` given without --streamed; ``True`` if any."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value is not False and not args.streamed:
            print(f"{flag} requires --streamed", file=sys.stderr)
            return True
    return False


def unwritable_destination(path: Optional[str]) -> bool:
    """Report a ``--save`` path whose directory cannot be written; ``True`` if so.

    Called before any build, so an unusable destination fails in
    milliseconds instead of after the whole build has run.
    """
    if path is None:
        return False
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(parent) and os.access(parent, os.W_OK):
        return False
    print(f"cannot save {path}: directory {parent} is not writable", file=sys.stderr)
    return True


def report_verify(audit, label: str) -> int:
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


def open_artifact(path: str, kind: str, mmap: bool = False):
    """The store of one ``--load`` artifact, or ``None`` after one error line.

    The artifact is opened through the service's
    :class:`~repro.service.ArtifactCatalog`, so the CLI and the server
    resolve, kind-check and cache artifacts the same way.
    """
    from ..analysis.artifact import LOAD_ERRORS
    from ..service import ArtifactCatalog

    catalog = ArtifactCatalog(mmap=mmap)
    try:
        info = catalog.info(path)
        if info.kind != kind:
            print(
                f"cannot load {path}: artifact is a {info.kind} store, "
                f"not a {kind} store",
                file=sys.stderr,
            )
            return None
        return catalog.get(path)[1]
    except KeyError as error:
        print(f"cannot load {path}: {error.args[0]}", file=sys.stderr)
    except LOAD_ERRORS as error:
        print(f"cannot load {path}: {error}", file=sys.stderr)
    return None


def print_figure(figure, quantity: str, points: int) -> None:
    """The Figure 2/3 table of ``census --grid`` and ``query grid``."""
    from ..analysis.report import format_figure

    print(format_figure(figure, f"{quantity} over {points} grid points"))


def print_ensemble_table(ts, stats) -> None:
    """The per-scale stable-count table of ``ensemble`` and ``query ensemble``.

    ``stats`` keys its quantiles by float as ``run_ensemble`` returns them,
    or by string as the JSON payload of ``QueryAPI.ensemble_stats`` does.
    """
    from ..analysis.report import format_table

    quantiles = {float(q): values for q, values in stats["quantiles"].items()}
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
        for k, t in enumerate(ts)
    ]
    print()
    print(
        format_table(
            ["t", "mean", "std", "min", "q25", "median", "q75", "max"], rows
        )
    )
