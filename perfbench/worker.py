"""Fresh-interpreter worker for the benchmark's compute workloads.

Every timed build runs in its own interpreter: inside one process the
enumeration cache, the memoised canonical records, the per-``Graph`` UCG
memo and the store LRU would make a repeated build look many times faster
than any user's cold ``repro census`` run.

Usage (the driver adds ``--t0``, its monotonic clock at spawn time)::

    python3 perfbench/worker.py probe --what build|ensemble
    python3 perfbench/worker.py build --out DIR [--trace]
    python3 perfbench/worker.py ensemble --seed S --seconds T [--trace]
    python3 perfbench/worker.py artifacts --dir DIR --seed S --requests FILE

Each mode prints one JSON report as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from common import peak_rss_mb


def _setup_done(t0: float) -> float:
    """Seconds from the driver's spawn instant to now (same system clock)."""
    return time.monotonic() - t0


def _import_build():
    from repro.analysis.store import CensusStore

    return CensusStore


def _import_ensemble():
    from repro.analysis.delta_store import DeltaStore
    from repro.analysis.ensembles import run_ensemble

    return DeltaStore, run_ensemble


def _counter_total(name: str, **labels) -> float:
    """Sum of the program's own counter series ``name`` matching ``labels``."""
    from repro import obs

    return sum(
        entry["value"]
        for entry in obs.to_json()["metrics"]
        if entry["name"] == name
        and all(entry["labels"].get(k) == v for k, v in labels.items())
    )


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


# --------------------------------------------------------------------------- #
# probe: set-up only
# --------------------------------------------------------------------------- #


def probe(args) -> dict:
    if args.what == "build":
        _import_build()
    else:
        DeltaStore, _run = _import_ensemble()
        DeltaStore.build(7, jobs=1)
    return {"setup_s": _setup_done(args.t0)}


# --------------------------------------------------------------------------- #
# build_n8
# --------------------------------------------------------------------------- #


def _trace_build(tracer) -> None:
    """Wrap the layer entry points ``CensusStore.build``/``save`` look up."""
    from repro.analysis import store

    def graphs_out(t, args, kwargs, result):
        t.count("graphs.enumeration.classes", len(result))

    def batch_in(t, args, kwargs, result):
        graphs = args[0]
        t.count("engine.batch.graphs", len(graphs))
        t.count("engine.batch.probes", sum(g.n * (g.n - 1) // 2 for g in graphs))

    def ucg_in(t, args, kwargs, result):
        t.count("engine.ucg.graphs", len(args[0]))

    tracer.wrap(store, "enumerate_connected_graphs", "graphs.enumeration", graphs_out)
    tracer.wrap(store, "parallel_map", "engine.pool")
    tracer.wrap(store, "batch_stability_deltas", "engine.batch", batch_in)
    tracer.wrap(store, "ucg_alpha_sets", "engine.ucg", ucg_in)
    tracer.wrap(store._ColumnAccumulator, "append", "analysis.store.assemble")
    tracer.wrap(store._ColumnAccumulator, "arrays", "analysis.store.assemble")
    tracer.wrap(store.CensusStore, "_from_parts", "analysis.store.assemble")
    tracer.wrap(store.CensusStore, "save", "analysis.store.save")


def build(args) -> dict:
    CensusStore = _import_build()
    setup_s = _setup_done(args.t0)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        _trace_build(tracer)

    start = time.perf_counter()
    store = CensusStore.build(8, include_ucg=True, jobs=1)
    path = store.save(args.out, format="dir")
    wall_s = time.perf_counter() - start
    rss_mb = peak_rss_mb()

    from checks import load_reference, mask_digest

    alphas = load_reference()["alphas"]
    loaded = CensusStore.load(path, mmap=True)
    masks = {game: loaded.stable_mask(alphas, game) for game in ("bcg", "ucg")}
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "classes": len(store),
        "bytes": _dir_bytes(path),
        "verify": loaded.verify(),
        "counts": {game: [int(c) for c in mask.sum(axis=0)] for game, mask in masks.items()},
        "mask_sha256": {game: mask_digest(mask) for game, mask in masks.items()},
    }
    if tracer is not None:
        report["ledger"] = tracer.ledger.as_dict()
        report["telemetry"] = {
            "repro_enumeration_graphs_total": _counter_total(
                "repro_enumeration_graphs_total"
            ),
            "repro_kernel_graphs_total": _counter_total(
                "repro_kernel_graphs_total", kernel="batch_stability_deltas"
            ),
            "repro_kernel_probes_total": _counter_total(
                "repro_kernel_probes_total", kernel="batch_stability_deltas"
            ),
        }
    return report


# --------------------------------------------------------------------------- #
# ensemble_n7
# --------------------------------------------------------------------------- #

ENSEMBLE = {"scenario": "random_weights", "n": 7, "draws": 1000}

#: Draws per ensemble re-answered through the per-draw path after timing.
GATE_DRAWS = 8


def _nbytes(values) -> int:
    if hasattr(values, "nbytes"):
        return int(values.nbytes)
    if isinstance(values, (tuple, list)):
        return sum(_nbytes(v) for v in values)
    return 0


def _trace_ensemble(tracer) -> None:
    """Wrap the layer entry points ``run_ensemble`` looks up."""
    from repro.analysis import delta_store, ensembles
    from repro.engine import streaming

    def scenario_out(t, args, kwargs, result):
        t.count("analysis.scenarios.draws")

    def columnar_io(t, args, kwargs, result):
        t.count("engine.columnar.bytes_computed", _nbytes(args) + _nbytes(result))

    def stream_rows(t, args, kwargs, result):
        t.count("engine.streaming.rows", len(args[1]))

    def shards_out(t, args, kwargs, result):
        t.count("engine.shardwork.blocks", result.total)
        t.count("engine.shardwork.retries", result.retries)

    tracer.wrap(ensembles, "run_shards", "engine.shardwork", shards_out)
    tracer.wrap(ensembles, "build_scenario", "analysis.scenarios", scenario_out)
    tracer.wrap(ensembles, "ensemble_stats", "engine.columnar")
    for name in (
        "stacked_weight_columns",
        "weighted_bcg_stable_mask_multi",
        "weighted_stability_windows_multi",
    ):
        tracer.wrap(delta_store, name, "engine.columnar", columnar_io)
    for name in ("stable_mask_multi", "stable_counts_multi", "stability_windows_multi"):
        tracer.wrap(delta_store.DeltaStore, name, "analysis.delta_store")
    tracer.wrap(streaming.StreamingEnsembleStats, "__init__", "engine.streaming")
    tracer.wrap(streaming.StreamingEnsembleStats, "update", "engine.streaming", stream_rows)
    tracer.wrap(streaming.StreamingEnsembleStats, "finalize", "engine.streaming")


def ensemble(args) -> dict:
    DeltaStore, run_ensemble = _import_ensemble()
    start = time.perf_counter()
    delta = DeltaStore.build(ENSEMBLE["n"], jobs=1)
    delta_build_s = time.perf_counter() - start
    setup_s = _setup_done(args.t0)

    rng = random.Random(args.seed)
    walls = []
    results = []

    def once():
        seed = rng.randrange(1 << 30)
        begin = time.perf_counter()
        results.append(run_ensemble(seed=seed, jobs=1, delta=delta, **ENSEMBLE))
        walls.append(time.perf_counter() - begin)

    report = {"setup_s": setup_s, "delta_build_s": delta_build_s}
    # One untimed block finishes lazy first-call work before any timing.
    run_ensemble(**dict(ENSEMBLE, draws=16), seed=0, jobs=1, delta=delta)
    if args.trace:
        # One untraced ensemble as the overhead reference, then a traced one.
        from layers import Tracer

        once()
        tracer = Tracer()
        _trace_ensemble(tracer)
        draws_before = _counter_total("repro_ensemble_draws_total")
        once()
        report["ledger"] = tracer.ledger.as_dict()
        report["telemetry"] = {
            "repro_ensemble_draws_total": _counter_total("repro_ensemble_draws_total")
            - draws_before,
        }
    else:
        began = time.perf_counter()
        while time.perf_counter() - began < args.seconds:
            once()
    rss_mb = peak_rss_mb()

    from checks import check_ensemble_draws

    failures = 0
    errors = []
    for result in results:
        sample = rng.sample(range(result.draws), GATE_DRAWS)
        found = check_ensemble_draws(delta, result, sample)
        if len(result.counts) != ENSEMBLE["draws"]:
            found.append(f"{len(result.counts)} count rows, not {ENSEMBLE['draws']}")
        failures += bool(found)
        errors += found
    report.update(
        walls=walls,
        draws=[r.draws for r in results],
        peak_rss_mb=rss_mb,
        failed=failures,
        errors=errors[:20],
    )
    return report


# --------------------------------------------------------------------------- #
# serve_mixed artifacts and expected answers
# --------------------------------------------------------------------------- #

#: Artifact ids (directory names) the server mounts.
CENSUS_N7, CENSUS_N8, WEIGHTED_W7 = "census_n7", "census_n8", "weighted_w7"

#: Requests of each type per cycle of the traffic mix.  No client traffic
#: has been measured, so the three types get equal shares.
MIX = {"figure_n7": 1, "grid_n8": 1, "windows_w7": 1}


def _request_bodies(rng: random.Random) -> dict:
    """Distinct request bodies per type, drawn from the workload seed."""
    figures = [
        {"artifact": CENSUS_N7, "quantity": quantity, "points": points}
        for quantity in ("average_poa", "worst_poa", "average_links")
        for points in (12, 16, 24, 32)
    ]
    grids = []
    for _ in range(16):
        # 24 link costs log-uniform over the n = 8 range [0.4, 2 n^2].
        alphas = sorted(round(0.4 * 320.0 ** rng.random(), 4) for _ in range(24))
        grids.append({"artifact": CENSUS_N8, "alphas": alphas, "game": "bcg"})
    windows = [{"artifact": WEIGHTED_W7, "game": "bcg"}]
    return {
        "figure_n7": ("/v1/query/grid", figures),
        "grid_n8": ("/v1/query/grid", grids),
        "windows_w7": ("/v1/query/windows", windows),
    }


def artifacts(args) -> dict:
    """Build the three served artifacts and every request's expected bytes."""
    from repro.analysis.scenarios import build_scenario
    from repro.analysis.store import CensusStore
    from repro.analysis.weighted_store import WeightedStore
    from repro.service.api import QueryAPI
    from repro.service.catalog import ArtifactCatalog

    rng = random.Random(args.seed)
    CensusStore.build(7, include_ucg=True, jobs=1).save(
        os.path.join(args.dir, CENSUS_N7), format="dir"
    )
    CensusStore.build(8, include_ucg=False, jobs=1).save(
        os.path.join(args.dir, CENSUS_N8), format="dir"
    )
    scenario = build_scenario("random_weights", 7, seed=rng.randrange(1 << 30))
    WeightedStore.from_scenario(scenario, jobs=1).save(
        os.path.join(args.dir, WEIGHTED_W7), format="dir"
    )

    # The in-process answer, encoded as the server encodes JSON bodies.
    api = QueryAPI(ArtifactCatalog(root=args.dir))
    requests = []
    for kind, (path, bodies) in _request_bodies(rng).items():
        for body in bodies:
            if kind == "figure_n7":
                answer = api.figure(body["artifact"], body["quantity"], body["points"])
            elif kind == "grid_n8":
                answer = api.grid_aggregates(body["artifact"], body["alphas"], body["game"])
            else:
                answer = api.windows(body["artifact"], body["game"])
            requests.append(
                {
                    "kind": kind,
                    "path": path,
                    "body": json.dumps(body, sort_keys=True),
                    "expected": json.dumps(answer, sort_keys=True),
                }
            )
    with open(args.requests, "w", encoding="utf-8") as handle:
        json.dump({"mix": MIX, "requests": requests}, handle)
    return {"requests": len(requests)}


# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--what", choices=("build", "ensemble"), required=True)
    b = sub.add_parser("build")
    b.add_argument("--out", required=True)
    b.add_argument("--trace", action="store_true")
    e = sub.add_parser("ensemble")
    e.add_argument("--seed", type=int, required=True)
    e.add_argument("--seconds", type=float, required=True)
    e.add_argument("--trace", action="store_true")
    a = sub.add_parser("artifacts")
    a.add_argument("--dir", required=True)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--requests", required=True)
    for each in (p, b, e, a):
        each.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)
    handler = {"probe": probe, "build": build, "ensemble": ensemble, "artifacts": artifacts}
    print(json.dumps(handler[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
