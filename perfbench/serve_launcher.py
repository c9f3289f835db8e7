"""Traced launcher for the artifact server.

Wraps the service's public entry points with benchmark spans, then calls
``repro.service.http.serve_forever`` with the arguments ``repro serve``
passes.  On SIGTERM the server drains and returns; the launcher then
writes one record per answered query to ``--ledger``.

    python3 perfbench/serve_launcher.py --dir DIR --threads N --ledger FILE

A record holds the query method and artifact, its start on the system
monotonic clock (comparable with the client's phase boundaries), its wall
time inside ``QueryAPI``, and the per-layer self times and counts of the
calls it made.  A coalesced kernel call is charged to the request whose
thread ran it (the batch leader); followers are charged their wait.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from layers import Ledger, Tracer

#: QueryAPI methods that answer the benchmark's request types.
QUERY_METHODS = ("figure", "grid_aggregates", "windows")


def install(tracer: Tracer, records: list) -> None:
    from repro.analysis.store import CensusStore
    from repro.analysis.weighted_store import WeightedStore
    from repro.service.api import QueryAPI
    from repro.service.batching import GridBatcher
    from repro.service.catalog import ArtifactCatalog

    records_lock = threading.Lock()

    # Kernel layer first: QueryAPI methods call these through the batcher.
    for name in ("grid_aggregates", "stable_mask", "stability_windows"):
        tracer.wrap(CensusStore, name, "engine.columnar")
    for name in ("stability_windows", "ucg_windows"):
        tracer.wrap(WeightedStore, name, "engine.columnar")

    stores_seen = {}

    def catalog_get(t, args, kwargs, result):
        ref = args[1]
        t.count("service.catalog.gets")
        if stores_seen.get(ref) is result[1]:
            t.count("service.catalog.hits")
        stores_seen[ref] = result[1]

    tracer.wrap(ArtifactCatalog, "get", "service.catalog", catalog_get)
    tracer.wrap(ArtifactCatalog, "info", "service.catalog")

    # Batches are counted where their kernel closure runs and sized from the
    # leader's request list, never from the batcher's own telemetry hook
    # (``_observe``), so the scraped batch-size histogram is checked against
    # an independent count.
    def batch_size(t, args, kwargs, result):
        size = len(args[2].requests)
        t.count("service.batching.requests", size)
        if size > 1:
            t.count("service.batching.coalesced", size)

    tracer.wrap(GridBatcher, "_run_batch", "service.batching", batch_size)
    tracer.wrap(GridBatcher, "submit", "service.batching")
    traced_submit = GridBatcher.submit

    def submit(self, key, alphas, compute):
        def counted(grid):
            tracer.count("service.batching.batches")
            return compute(grid)

        return traced_submit(self, key, alphas, counted)

    GridBatcher.submit = submit

    for method in QUERY_METHODS:
        tracer.wrap(QueryAPI, method, "service.api")
        inner = getattr(QueryAPI, method)

        def top_level(self, ref, *args, __inner=inner, __method=method, **kwargs):
            if tracer.depth:  # a nested call (figure -> grid_aggregates)
                return __inner(self, ref, *args, **kwargs)
            ledger = Ledger()
            start = time.monotonic()
            with tracer.bind(ledger):
                try:
                    return __inner(self, ref, *args, **kwargs)
                finally:
                    record = {
                        "method": __method,
                        "artifact": ref,
                        "start": start,
                        "api_s": time.monotonic() - start,
                        **ledger.as_dict(),
                    }
                    with records_lock:
                        records.append(record)

        setattr(QueryAPI, method, top_level)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--ledger", required=True)
    args = parser.parse_args(argv)

    from repro.service.http import serve_forever

    tracer = Tracer()
    records: list = []
    install(tracer, records)
    code = serve_forever(args.dir, host=args.host, port=args.port, threads=args.threads)
    with open(args.ledger, "w", encoding="utf-8") as handle:
        json.dump({"records": records, "outside": tracer.ledger.as_dict()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
