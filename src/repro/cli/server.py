"""``repro-experiments serve`` and ``query``: the artifact server and its
client."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .common import print_ensemble_table, print_figure


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
    from ..service.http import serve_forever

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
    from ..analysis.figure_series import figure_from_payload
    from ..analysis.report import (
        format_store_summary,
        format_table,
        format_weighted_store_summary,
    )

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
        summary = payload["summary"]
        if summary["kind"] == "census":
            print(format_store_summary(summary))
        elif summary["kind"] == "weighted":
            print(format_weighted_store_summary(summary))
        else:
            print(json.dumps(summary, indent=2, sort_keys=True))
    elif args.what == "grid":
        figure = figure_from_payload(payload)
        print_figure(figure, args.quantity, payload["points"])
    elif args.what == "windows":
        axis = "alpha" if payload["kind"] == "census" else "t"
        lo, hi = payload[f"{axis}_min"], payload[f"{axis}_max"]
        rows = zip(range(payload["classes"]), lo, hi)
        print(format_table(["class", f"{axis}_min", f"{axis}_max"], rows))
    else:  # ensemble
        print(
            f"ensemble {payload['scenario']}: n = {payload['n']}, "
            f"{payload['draws']} draws, {payload['classes']} connected "
            "classes"
        )
        print_ensemble_table(payload["ts"], payload["count_stats"])
