"""``repro-experiments stats``: render a telemetry snapshot."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .. import obs


def build_stats_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``stats`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments stats",
        description=(
            "Render a telemetry snapshot: the --metrics-out *.json file "
            "another run wrote."
        ),
    )
    parser.add_argument(
        "snapshot", metavar="FILE",
        help=(
            "the JSON telemetry snapshot to render (write one with "
            "--metrics-out FILE.json)"
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

    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.format == "prom":
        sys.stdout.write(obs.prometheus_from_snapshot(payload))
        return 0

    from ..analysis.report import format_table

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
