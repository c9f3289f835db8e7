"""Benchmark the bitset kernel + incremental engine against the naive paths.

Run as a script (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_engine.py

Measures, and writes machine-readable results to ``BENCH_engine.json`` at the
repository root so future PRs have a perf trajectory to compare against:

* **kernel BFS** — word-parallel bitset BFS vs the seed's adjacency-set
  reference BFS (ops/sec over a fixed batch of random graphs);
* **oracle deltas** — :class:`repro.engine.DistanceOracle` edge-toggle
  queries vs recomputing every toggle from scratch with reference BFS;
* **pairwise-stability census at n = 7** — the naive seed path (reference
  BFS per probe) vs the engine path, serial and fanned out with ``jobs``;
* **single-edge mutation** — ``Graph.add_edge`` cost on a sparse vs a dense
  graph, asserting that mutation no longer scales with the edge count ``m``
  (the seed rebuilt the whole edge set through ``__init__``);
* **streamed census at n = 8** (schema v2) — the sharded streaming BCG
  census vs the materialised build, cold caches for both;
* **streamed census at n = 9** (opt-in via ``--n9``) — the 261080-graph
  BCG census that only the streamed path makes tractable;
* **census store at n = 8** (schema v3; report-only since v11) — the
  columnar :class:`~repro.analysis.store.CensusStore`: artifact size
  (resident and on-disk), save/load wall time and a 24-point α-grid
  aggregate sweep (counts + average/worst PoA + link counts); the sweep's
  parity with the per-graph references is a ``REPRO_SLOW_TESTS`` test in
  ``tests/test_store.py``;
* **weighted engine at n = 7** (schema v4; a store build since v12) —
  the heterogeneous-α scenario sweep: a
  :class:`~repro.analysis.weighted_store.WeightedStore` build + its grid
  mask vs a per-graph ``WeightedStabilityProfile`` Python loop, decisions
  asserted identical;
* **mmap fan-out** (schema v4) — one memory-mapped store artifact queried
  from a process pool (zero-copy page sharing), counts asserted equal to
  the serial mmap sweep (report-only: no wall-clock floor);
* **weighted store at n = 8** (schema v5) — the persistent
  :class:`~repro.analysis.weighted_store.WeightedStore`: answering a
  24-point scale grid (mask + windows) from a saved artifact (load
  included) vs recomputing the whole store build (v12; the bare
  coefficient-column batch before), answers asserted identical;
* **ensemble runner** (schema v5) — K seeded ``random_weights`` draws at
  n = 6 aggregated serially vs over a 2-worker pool, summaries asserted
  identical (report-only: timing trajectory entry);
* **amortised mega-ensemble** (schema v6) — 1000 seeded draws at n = 7
  through the shared :class:`~repro.analysis.delta_store.DeltaStore` +
  stacked-weight kernels + streaming aggregation, charged end to end
  (delta build included), vs the PR-5 per-draw store-build path
  extrapolated from a measured prefix of the same seed sequence; the
  overlapping draws' counts are asserted bit-identical and the O(classes)
  streaming aggregation state is recorded as the peak-memory proxy;
* **UCG orientation engine at n = 7** (schema v8) — the vectorised
  α-interval engine (:func:`repro.engine.ucg_alpha_sets`) over
  all 853 connected classes vs the per-graph orientation backtracking
  (timed on a strided sample and extrapolated — the full reference run
  takes minutes); interval endpoints asserted float-identical on the
  sample before any timing is recorded;
* **shard runner** (schema v7) — the fault-tolerance tax of
  :func:`repro.engine.run_shards` persistence: the n = 7 streamed census
  built plain vs with checksummed shards + heartbeat manifest, plus the
  warm-resume wall time; artifacts asserted bit-identical by content
  checksum and the overhead ratio floored at <= 1.10x;
* **telemetry kill-switch** (schema v9) — the instrumented
  :func:`repro.engine.columnar.bcg_stable_mask` wrapper with
  ``REPRO_METRICS`` disabled vs the bare kernel on the full n = 7 census
  columns, ceilinged at <= 1.05x (disabled telemetry must be free);
* **census-as-a-service** (schema v10) — one warm
  :class:`repro.service.ArtifactServer` grid query over HTTP vs the cold
  ``census --load --grid`` CLI subprocess on the same artifact, floored
  at >= 10x; the served figure is asserted byte-identical to the CLI
  table, a concurrent request burst must actually coalesce, and the
  ``/metrics`` exposition must parse and carry the request-latency
  histogram.

The script exits non-zero if the engine census path fails the acceptance
floor (>= 3x naive, serial), if the weighted scenario
sweep fails its floor (>= 10x the per-graph Python loop at n = 7), if the
weighted-store artifact query fails its floor (>= 10x recomputing the
sweep at n = 8), if the amortised mega-ensemble fails its floor (>= 10x
the per-draw store-build path at n = 7), if the UCG orientation engine
fails its floor (>= 10x the per-graph backtracking at n = 7,
extrapolated), if checksummed shard persistence
costs more than 10% over the plain streamed build, or if mutation cost
shows m-scaling again.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, List

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import random

from repro.analysis.store import CensusStore
from repro.core.stability_intervals import distance_delta
from repro.engine import DistanceOracle, batch_stability_deltas
from repro.graphs import (
    Graph,
    bfs_distances,
    bfs_distances_reference,
    bfs_distances_with_extra_edge_reference,
    bfs_distances_with_forbidden_edge_reference,
    complete_graph,
    enumerate_connected_graphs,
    path_graph,
    random_graph,
)
from repro.graphs.enumeration import clear_cache

OUTPUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")


def _time(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# --------------------------------------------------------------------------- #
# 1. Kernel BFS
# --------------------------------------------------------------------------- #


def _bench_bfs_batch(batch) -> Dict[str, float]:
    calls = sum(g.n for g in batch)

    def run_bitset():
        for g in batch:
            for s in range(g.n):
                bfs_distances(g, s)

    def run_reference():
        for g in batch:
            for s in range(g.n):
                bfs_distances_reference(g, s)

    run_bitset()  # warm the lazy row/set caches out of the timing
    run_reference()
    bitset_s = _time(run_bitset)
    reference_s = _time(run_reference)
    return {
        "bfs_calls": calls,
        "bitset_ops_per_sec": calls / bitset_s,
        "reference_ops_per_sec": calls / reference_s,
        "speedup": reference_s / bitset_s,
    }


def bench_kernel_bfs() -> Dict[str, Dict[str, float]]:
    rng = random.Random(0)
    small = [random_graph(rng.randint(6, 10), rng.uniform(0.2, 0.8), rng) for _ in range(120)]
    large = [random_graph(rng.randint(48, 64), rng.uniform(0.05, 0.3), rng) for _ in range(20)]
    return {
        "small_n_6_10": _bench_bfs_batch(small),
        "large_n_48_64": _bench_bfs_batch(large),
    }


# --------------------------------------------------------------------------- #
# 2. Oracle delta queries
# --------------------------------------------------------------------------- #


def _all_toggle_queries(graphs: List[Graph]):
    for g in graphs:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                for endpoint in (u, v):
                    yield g, (u, v), endpoint


def bench_oracle_deltas() -> Dict[str, float]:
    rng = random.Random(1)
    batch = [random_graph(8, rng.uniform(0.2, 0.7), rng) for _ in range(40)]
    queries = list(_all_toggle_queries(batch))

    def run_oracle():
        oracle = DistanceOracle()
        for g, edge, endpoint in queries:
            if g.has_edge(*edge):
                oracle.removal_increase(g, edge, endpoint)
            else:
                oracle.addition_saving(g, edge, endpoint)

    def run_naive():
        for g, edge, endpoint in queries:
            base = sum(bfs_distances_reference(g, endpoint))
            if g.has_edge(*edge):
                distance_delta(
                    sum(bfs_distances_with_forbidden_edge_reference(g, endpoint, edge)),
                    base,
                )
            else:
                distance_delta(
                    base,
                    sum(bfs_distances_with_extra_edge_reference(g, endpoint, edge)),
                )

    run_oracle()
    oracle_s = _time(run_oracle)
    naive_s = _time(run_naive)
    return {
        "delta_queries": len(queries),
        "oracle_ops_per_sec": len(queries) / oracle_s,
        "naive_ops_per_sec": len(queries) / naive_s,
        "speedup": naive_s / oracle_s,
    }


# --------------------------------------------------------------------------- #
# 3. Pairwise-stability census at n = 7
# --------------------------------------------------------------------------- #


def _naive_profile(graph: Graph):
    """The seed's census inner loop, verbatim: a from-scratch set BFS per
    probe, results stored in the profile's delta tables."""
    removal_increase = {}
    addition_saving = {}
    base = [sum(bfs_distances_reference(graph, v)) for v in range(graph.n)]
    for (u, v) in graph.sorted_edges():
        for endpoint in (u, v):
            removal_increase[((u, v), endpoint)] = distance_delta(
                sum(bfs_distances_with_forbidden_edge_reference(graph, endpoint, (u, v))),
                base[endpoint],
            )
    for (u, v) in graph.non_edges():
        for endpoint in (u, v):
            addition_saving[((u, v), endpoint)] = distance_delta(
                base[endpoint],
                sum(bfs_distances_with_extra_edge_reference(graph, endpoint, (u, v))),
            )
    return removal_increase, addition_saving


def bench_census_n7(jobs_grid: List[int]) -> Dict[str, float]:
    graphs = enumerate_connected_graphs(7)  # warm the enumeration cache

    def run_naive():
        for g in graphs:
            _naive_profile(g)

    def run_engine_serial():
        batch_stability_deltas(graphs)

    naive_s = _time(run_naive, repeats=2)
    engine_s = _time(run_engine_serial, repeats=2)
    result: Dict[str, float] = {
        "graphs": len(graphs),
        "naive_seconds": naive_s,
        "engine_serial_seconds": engine_s,
        "serial_speedup": naive_s / engine_s,
        "naive_graphs_per_sec": len(graphs) / naive_s,
        "engine_serial_graphs_per_sec": len(graphs) / engine_s,
    }
    for jobs in jobs_grid:
        pool_s = _time(
            lambda: CensusStore.build(7, include_ucg=False, jobs=jobs),
            repeats=2,
        )
        result[f"engine_jobs{jobs}_seconds"] = pool_s
        result[f"engine_jobs{jobs}_graphs_per_sec"] = len(graphs) / pool_s
    return result


# --------------------------------------------------------------------------- #
# 3c. Streamed, sharded census at n = 8 (and optionally n = 9)
# --------------------------------------------------------------------------- #


def bench_census_n8_streamed() -> Dict[str, float]:
    """The sharded streaming BCG census vs the materialised build, both cold."""
    clear_cache()
    start = time.perf_counter()
    streamed = CensusStore.build_streamed(8, include_ucg=False)
    streamed_s = time.perf_counter() - start

    clear_cache()
    start = time.perf_counter()
    materialised = CensusStore.build(8, include_ucg=False)
    build_s = time.perf_counter() - start

    assert len(streamed) == len(materialised) == 11117
    assert streamed.content_checksum() == materialised.content_checksum()
    return {
        "graphs": len(streamed),
        "streamed_seconds": streamed_s,
        "streamed_graphs_per_sec": len(streamed) / streamed_s,
        "materialised_seconds": build_s,
        "materialised_graphs_per_sec": len(materialised) / build_s,
    }


def bench_census_n9_streamed() -> Dict[str, float]:
    """The 261080-graph n = 9 BCG census (opt-in: minutes of wall time)."""
    start = time.perf_counter()
    census = CensusStore.build_streamed(9, include_ucg=False)
    seconds = time.perf_counter() - start
    assert len(census) == 261080  # OEIS A001349
    return {
        "graphs": len(census),
        "streamed_seconds": seconds,
        "streamed_graphs_per_sec": len(census) / seconds,
        "stable_count_alpha_2": census.equilibrium_count(2.0, "bcg"),
        "stable_count_alpha_4": census.equilibrium_count(4.0, "bcg"),
    }


# --------------------------------------------------------------------------- #
# 3d. Columnar census store: artifact size + α-grid query throughput at n = 8
# --------------------------------------------------------------------------- #


def bench_census_store_n8() -> Dict[str, float]:
    """The columnar store on the full Figure 2/3 workload at n = 8.

    Answers a 24-point α-grid of BCG aggregates (equilibrium count, average
    PoA, worst PoA, average links) over all 11117 classes on 8 vertices and
    records the artifact's size and save/load times.
    """
    import tempfile

    from repro.analysis.sweeps import log_spaced_alphas

    store = CensusStore.build_streamed(8, include_ucg=False)
    alphas = log_spaced_alphas(0.2, 128.0, 24)
    store_s = _time(lambda: store.grid_aggregates(alphas, "bcg"), repeats=2)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "census8.npz")
        start = time.perf_counter()
        store.save(path)
        save_s = time.perf_counter() - start
        disk_bytes = os.path.getsize(path)
        start = time.perf_counter()
        CensusStore.load(path)
        load_s = time.perf_counter() - start

    return {
        "classes": len(store),
        "grid_points": len(alphas),
        "store_sweep_seconds": store_s,
        "store_points_per_sec": len(alphas) / store_s,
        "resident_bytes": store.nbytes,
        "resident_bytes_per_class": store.nbytes / len(store),
        "disk_bytes_npz": disk_bytes,
        "save_seconds": save_s,
        "load_seconds": load_s,
    }


# --------------------------------------------------------------------------- #
# 3e. Weighted engine: heterogeneous-α scenario sweep at n = 7 (schema v4)
# --------------------------------------------------------------------------- #


def bench_weighted_engine() -> Dict[str, float]:
    """Vectorised weighted stability sweep vs the per-graph Python loop.

    Both paths answer the same 24-point scale grid of weighted pairwise
    stability over all 853 connected classes on 7 vertices under a seeded
    random per-edge cost model (the ``random_weights`` scenario); decisions
    are asserted identical before any timing is recorded.  The vectorised
    path builds the :class:`WeightedStore` (the batched boolean-matmul
    deltas priced with per-probe coefficient vectors) and answers the grid
    with :meth:`WeightedStore.stable_mask`; the baseline runs a
    :class:`WeightedStabilityProfile` per graph and an exact Definition 3
    check per grid point.
    """
    from repro.analysis.scenarios import build_scenario, default_t_grid
    from repro.analysis.weighted import weighted_python_sweep_bcg
    from repro.analysis.weighted_store import WeightedStore

    scenario = build_scenario("random_weights", 7, seed=3)
    graphs = enumerate_connected_graphs(7)
    ts = default_t_grid(7, 24)

    def run_vectorised():
        return WeightedStore.build(7, scenario.model).stable_mask(ts)

    def run_python():
        return weighted_python_sweep_bcg(graphs, scenario.model, ts)

    vector_mask = run_vectorised()
    python_mask = run_python()
    assert [
        [bool(x) for x in row] for row in vector_mask
    ] == python_mask, "weighted vectorised/python divergence"

    vector_s = _time(run_vectorised, repeats=2)
    python_s = _time(run_python, repeats=2)
    stable_cells = int(sum(sum(row) for row in python_mask))
    return {
        "graphs": len(graphs),
        "grid_points": len(ts),
        "stable_cells": stable_cells,
        "python_seconds": python_s,
        "vectorised_seconds": vector_s,
        "speedup": python_s / vector_s,
        "vectorised_graphs_per_sec": len(graphs) / vector_s,
    }


# --------------------------------------------------------------------------- #
# 3e1b. UCG orientation engine: vectorised intervals vs backtracking (v8)
# --------------------------------------------------------------------------- #


def bench_ucg_engine(stride: int = 16) -> Dict[str, float]:
    """Vectorised UCG α-interval engine vs the per-graph orientation backtrack.

    The engine computes the Nash-supportability interval set of **all** 853
    connected classes on 7 vertices in one batched pass (distance sums over
    the masks of V∖{p} + superset-min interval tables + the class-quotient
    orientation DP).  The backtracking reference takes minutes for the full
    set, so it is timed on every ``stride``-th class and extrapolated
    (same precedent as the amortised-ensemble projection); endpoints are
    asserted float-identical on the sample first.  Both paths run on fresh
    ``Graph`` instances each repeat so the per-instance ``_ucg_set`` memo
    never short-circuits a timed run.
    """
    from repro.core.unilateral import ucg_nash_alpha_set
    from repro.engine import ucg_alpha_sets

    graphs = enumerate_connected_graphs(7)
    sample = graphs[::stride]

    def engine_inputs():
        return [Graph(g.n, g.sorted_edges()) for g in graphs]

    def run_engine():
        return ucg_alpha_sets(engine_inputs())

    def run_reference_sample():
        return [
            ucg_nash_alpha_set(Graph(g.n, g.sorted_edges())) for g in sample
        ]

    engine_sets = run_engine()
    for k, (graph, reference) in enumerate(zip(sample, run_reference_sample())):
        engine_set = engine_sets[k * stride]
        assert [(iv.lo, iv.hi) for iv in engine_set.intervals] == [
            (iv.lo, iv.hi) for iv in reference.intervals
        ], f"UCG engine/backtracking divergence on {graph.sorted_edges()}"

    engine_s = _time(run_engine, repeats=2)
    reference_sample_s = _time(run_reference_sample, repeats=1)
    reference_projected_s = reference_sample_s * (len(graphs) / len(sample))
    return {
        "graphs": len(graphs),
        "reference_sample_size": len(sample),
        "engine_seconds": engine_s,
        "reference_sample_seconds": reference_sample_s,
        "reference_projected_seconds": reference_projected_s,
        "speedup": reference_projected_s / engine_s,
        "engine_graphs_per_sec": len(graphs) / engine_s,
    }


# --------------------------------------------------------------------------- #
# 3e2. Persistent weighted artifacts: query-from-artifact vs recompute (v5)
# --------------------------------------------------------------------------- #


def bench_weighted_store() -> Dict[str, float]:
    """Answering a scale grid from a saved artifact vs recomputing the sweep.

    Both paths answer the same 24-point grid of weighted stability masks
    plus the per-class ``(t_min, t_max)`` windows over all 11117 connected
    classes on 8 vertices under the seeded ``random_weights`` model.  The
    recompute path is what every query without an artifact pays: a full
    :meth:`WeightedStore.build` (deviation batch and pricing), every time.
    The artifact path loads the persisted ``.npz`` and runs only the grid
    kernels — answers are asserted identical before any timing is
    recorded.  (At n = 7 the grid kernels themselves bound the query at
    ~9x; n = 8 is where the artifact starts paying for real, and matches
    the scale the ``census_store`` section uses.)
    """
    import tempfile

    from repro.analysis.scenarios import build_scenario, default_t_grid
    from repro.analysis.weighted_store import WeightedStore

    scenario = build_scenario("random_weights", 8, seed=3)
    ts = default_t_grid(8, 24)

    def run_recompute():
        built = WeightedStore.build(8, scenario.model)
        return built.stable_mask(ts), built.stability_windows()

    start = time.perf_counter()
    store = WeightedStore.from_scenario(scenario)
    build_s = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weighted8.npz")
        start = time.perf_counter()
        store.save(path)
        save_s = time.perf_counter() - start
        disk_bytes = os.path.getsize(path)

        def run_artifact():
            loaded = WeightedStore.load(path)
            return loaded.stable_mask(ts), loaded.stability_windows()

        recompute_mask, (recompute_t_min, recompute_t_max) = run_recompute()
        artifact_mask, (artifact_t_min, artifact_t_max) = run_artifact()
        assert (artifact_mask == recompute_mask).all(), "mask divergence"
        assert artifact_t_min.tolist() == recompute_t_min.tolist(), "t_min"
        assert artifact_t_max.tolist() == recompute_t_max.tolist(), "t_max"

        recompute_s = _time(run_recompute, repeats=2)
        artifact_s = _time(run_artifact, repeats=2)

    return {
        "classes": len(store),
        "grid_points": len(ts),
        "build_seconds": build_s,
        "save_seconds": save_s,
        "disk_bytes_npz": disk_bytes,
        "resident_bytes": store.nbytes,
        "recompute_seconds": recompute_s,
        "artifact_query_seconds": artifact_s,
        "query_speedup": recompute_s / artifact_s,
    }


# --------------------------------------------------------------------------- #
# 3e3. Seeded scenario ensembles: serial vs pooled draws (schema v5)
# --------------------------------------------------------------------------- #


def bench_ensemble(draws: int = 8, jobs: int = 2) -> Dict[str, float]:
    """K seeded random_weights draws at n = 6, serial vs pooled.

    Report-only trajectory entry (draw fan-out gains depend on core count);
    the serial and pooled summaries are asserted identical, which is the
    determinism contract the ensemble runner ships with.
    """
    from repro.analysis.ensembles import run_ensemble

    start = time.perf_counter()
    serial = run_ensemble("random_weights", n=6, draws=draws, seed=0, grid=12, jobs=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = run_ensemble(
        "random_weights", n=6, draws=draws, seed=0, grid=12, jobs=jobs
    )
    pooled_s = time.perf_counter() - start
    assert (serial.counts == pooled.counts).all(), (
        "ensemble serial/pooled divergence"
    )
    assert serial.count_stats["mean"] == pooled.count_stats["mean"]
    return {
        "scenario": "random_weights",
        "n": 6,
        "draws": draws,
        "classes": serial.classes,
        "grid_points": len(serial.ts),
        "workers": jobs,
        "serial_seconds": serial_s,
        "pooled_seconds": pooled_s,
        "draws_per_sec_serial": draws / serial_s,
        "summaries_identical": True,
    }


# --------------------------------------------------------------------------- #
# 3e4. Amortised mega-ensembles: shared delta artifact + stacked kernels
#      vs the per-draw store-build path (schema v6)
# --------------------------------------------------------------------------- #


def bench_ensemble_amortised(
    n: int = 7, draws: int = 1000, reference_draws: int = 8
) -> Dict[str, float]:
    """1000 seeded draws at n = 7: shared-delta stacked kernels, >= 10x.

    The per-draw baseline is the PR-5 ensemble inner loop — every draw
    re-prices the whole scenario through ``WeightedStore.from_scenario``
    (full coefficient-column batch per draw) before answering the grid.
    Its rate is measured on a prefix of the same seed sequence and
    extrapolated linearly; per-draw cost does not depend on the draw index.

    The amortised side is charged end to end: building the shared
    model-independent :class:`DeltaStore` once **plus** the full K-draw
    stacked-weight run with streaming window aggregation.  The counts of
    the overlapping draws are asserted bit-identical to the per-draw
    stores, and the streaming aggregation state is recorded as the
    peak-memory proxy — it is O(classes), independent of K, unlike the
    dense ``2 x K x classes`` window stack the per-draw path would hold.
    """
    import numpy as np

    from repro.analysis.delta_store import DeltaStore
    from repro.analysis.ensembles import ensemble_seeds, run_ensemble
    from repro.analysis.scenarios import build_scenario, default_t_grid
    from repro.analysis.weighted_store import WeightedStore
    from repro.engine.streaming import (
        DEFAULT_EXACT_BUFFER,
        StreamingEnsembleStats,
    )

    grid = 12
    seed = 0
    ts = default_t_grid(n, grid)
    seeds = ensemble_seeds(seed, reference_draws)

    start = time.perf_counter()
    reference_counts = []
    for draw_seed in seeds:
        scenario = build_scenario("random_weights", n, seed=draw_seed)
        store = WeightedStore.from_scenario(scenario)
        reference_counts.append(store.stable_counts(ts))
        store.stability_windows()
    per_draw_s = time.perf_counter() - start
    per_draw_rate = reference_draws / per_draw_s
    per_draw_projected_s = draws / per_draw_rate

    start = time.perf_counter()
    delta = DeltaStore.build(n)
    delta_build_s = time.perf_counter() - start

    start = time.perf_counter()
    result = run_ensemble(
        "random_weights", n=n, draws=draws, seed=seed, grid=grid,
        jobs=1, delta=delta,
    )
    stacked_s = time.perf_counter() - start
    amortised_s = delta_build_s + stacked_s

    for k, counts in enumerate(reference_counts):
        assert np.array_equal(result.counts[k], np.asarray(counts)), (
            f"amortised draw {k} diverged from the per-draw store"
        )

    # Peak aggregation state past the exact buffer: O(classes), not O(K).
    # The runner folds both window endpoints through one aggregator of
    # width 2 x classes, the counterpart of the dense stack below.
    agg = StreamingEnsembleStats(2 * result.classes)
    agg.update(np.zeros((DEFAULT_EXACT_BUFFER + 1, 2 * result.classes)))
    aggregation_state_bytes = agg.state_nbytes

    return {
        "scenario": "random_weights",
        "n": n,
        "draws": draws,
        "classes": result.classes,
        "grid_points": len(ts),
        "reference_draws": reference_draws,
        "per_draw_seconds": per_draw_s,
        "per_draw_rate": per_draw_rate,
        "per_draw_projected_seconds": per_draw_projected_s,
        "delta_build_seconds": delta_build_s,
        "stacked_seconds": stacked_s,
        "amortised_seconds": amortised_s,
        "amortised_rate": draws / amortised_s,
        "speedup": per_draw_projected_s / amortised_s,
        "aggregation_state_bytes": aggregation_state_bytes,
        "dense_window_stack_bytes": 2 * draws * result.classes * 8,
        "counts_identical": True,
    }


# --------------------------------------------------------------------------- #
# 3f. mmap-shared multi-process census-store queries (schema v4)
# --------------------------------------------------------------------------- #


def _mmap_fanout_counts(task):
    """Pool worker: query one α-chunk from the shared mapped artifact."""
    path, alphas = task
    store = CensusStore.load(path, mmap=True)
    return [int(c) for c in store.equilibrium_counts(alphas, "bcg")]


def bench_store_mmap_fanout(jobs: int = 2) -> Dict[str, float]:
    """One mapped n = 7 artifact queried from many processes, zero-copy.

    Every worker maps the same on-disk column directory read-only and
    answers a slice of a 32-point α-grid; the fanned-out counts are
    asserted equal to a serial sweep over the parent's own mmap handle.
    Report-only (no floor): on small-``n`` artifacts the pool spawn cost
    dominates — the section exists to keep the zero-copy path exercised
    and its wall time on the perf trajectory.
    """
    import tempfile

    from repro.analysis.sweeps import log_spaced_alphas
    from repro.engine import chunk_evenly, parallel_map

    store = CensusStore.build(7, include_ucg=False)
    alphas = log_spaced_alphas(0.2, 49.0, 32)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "census7_dir")
        store.save(path, format="dir")
        disk_bytes = sum(
            os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
        )
        mapped = CensusStore.load(path, mmap=True)
        start = time.perf_counter()
        serial = [int(c) for c in mapped.equilibrium_counts(alphas, "bcg")]
        serial_s = time.perf_counter() - start

        tasks = [(path, chunk) for chunk in chunk_evenly(alphas, jobs * 2)]
        start = time.perf_counter()
        fanned: List[int] = []
        for part in parallel_map(_mmap_fanout_counts, tasks, jobs=jobs):
            fanned.extend(part)
        fanout_s = time.perf_counter() - start
    assert fanned == serial, "mmap fan-out diverged from the serial mmap sweep"
    return {
        "classes": len(store),
        "grid_points": len(alphas),
        "workers": jobs,
        "disk_bytes_dir": disk_bytes,
        "serial_mmap_seconds": serial_s,
        "fanout_seconds": fanout_s,
        "counts_identical": True,
    }


def bench_shard_runner() -> Dict[str, float]:
    """The fault-tolerance tax: checksummed shards + manifest vs plain.

    Both paths run the same :func:`repro.engine.run_shards` fan-out over
    the n = 7 BCG census; the checksummed one additionally persists every
    shard (sha256 content checksum + config fingerprint, atomic rename)
    and heartbeats ``manifest.json``.  The three artifacts — plain,
    checksummed, and a warm resume from the shard directory — are
    asserted bit-identical by content checksum, and the overhead ratio
    carries a <= 1.10x acceptance floor.
    """
    import tempfile

    from repro.engine.shardwork import manifest_path

    def build(**kwargs):
        return CensusStore.build_streamed(7, include_ucg=False, **kwargs)

    plain = build()
    plain_s = _time(build, repeats=2)

    checksummed_s = float("inf")
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            shard_dir = os.path.join(tmp, "shards")
            start = time.perf_counter()
            checksummed = build(shard_dir=shard_dir)
            checksummed_s = min(checksummed_s, time.perf_counter() - start)

            start = time.perf_counter()
            resumed = build(shard_dir=shard_dir)
            resume_s = time.perf_counter() - start
            with open(manifest_path(shard_dir)) as handle:
                manifest = json.load(handle)
    assert (
        plain.content_checksum()
        == checksummed.content_checksum()
        == resumed.content_checksum()
    ), "checksummed/resumed artifacts diverged from the plain build"
    assert manifest["resumed"] == manifest["total"], "warm resume recomputed shards"
    return {
        "classes": len(plain),
        "shards": manifest["total"],
        "plain_seconds": plain_s,
        "checksummed_seconds": checksummed_s,
        "resume_seconds": resume_s,
        "overhead_ratio": checksummed_s / plain_s,
        "checksums_identical": True,
    }


# --------------------------------------------------------------------------- #
# 3h. Telemetry kill-switch overhead on the vectorised kernel path (schema v9)
# --------------------------------------------------------------------------- #


def bench_telemetry_overhead(
    n: int = 7, grid: int = 48, rounds: int = 40
) -> Dict[str, float]:
    """Disabled telemetry must be free on the hot kernel path.

    Times the instrumented :func:`repro.engine.columnar.bcg_stable_mask`
    wrapper with ``REPRO_METRICS`` off against the bare kernel (its
    ``__wrapped__``) over the full n = 7 census columns.  With telemetry
    disabled the wrapper's only residual cost is one enabled-flag check
    per call, so the ratio is floored at <= 1.05 by the v9 schema check.
    """
    from repro import obs
    from repro.analysis.sweeps import log_spaced_alphas
    from repro.engine.columnar import bcg_stable_mask

    store = CensusStore.build(n, include_ucg=False)
    alphas = log_spaced_alphas(0.4, 2.0 * n * n, grid)
    columns = (
        store._rem_min_column(),
        store.add_lo,
        store.add_hi,
        store.add_indptr,
    )
    bare = bcg_stable_mask.__wrapped__

    previous = obs.set_metrics_enabled(False)
    try:
        bcg_stable_mask(*columns, alphas)  # warm the lazy caches out of the timing
        bare(*columns, alphas)
        # Alternate the two arms call-by-call and keep each arm's best
        # time, so machine-load drift and background contention hit both
        # equally instead of biasing whichever block runs second.
        instrumented_call = float("inf")
        bare_call = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            bcg_stable_mask(*columns, alphas)
            instrumented_call = min(instrumented_call, time.perf_counter() - start)
            start = time.perf_counter()
            bare(*columns, alphas)
            bare_call = min(bare_call, time.perf_counter() - start)
    finally:
        obs.set_metrics_enabled(previous)
    return {
        "n": n,
        "grid_points": len(alphas),
        "classes": len(store),
        "kernel_calls": rounds,
        "bare_seconds": bare_call * rounds,
        "disabled_seconds": instrumented_call * rounds,
        "disabled_overhead_ratio": instrumented_call / bare_call,
    }


# --------------------------------------------------------------------------- #
# 3i. Census-as-a-service: warm server query vs cold CLI subprocess (v10)
# --------------------------------------------------------------------------- #


def bench_service(n: int = 6, grid: int = 24, rounds: int = 12) -> Dict[str, float]:
    """A warm artifact server must answer grids >= 10x faster than cold CLI.

    The cold arm is the full ``census --load --grid`` subprocess (fresh
    interpreter, imports, artifact load, kernel call); the warm arm is one
    HTTP ``POST /v1/query/grid`` against an in-process
    :class:`~repro.service.http.ArtifactServer` whose store LRU is hot.
    The served figure payload is asserted byte-identical to the CLI table
    before any time is recorded, and an 8-request concurrent burst must
    actually coalesce into shared kernel calls.
    """
    import json as jsonlib
    import subprocess
    import tempfile
    import urllib.request
    from concurrent.futures import ThreadPoolExecutor

    from repro.analysis.figure_series import figure_from_payload
    from repro.analysis.report import format_figure
    from repro.analysis.store import clear_store_cache
    from repro.service import ArtifactCatalog, GridBatcher, QueryAPI
    from repro.service.http import start_in_thread
    from smoke_metrics import parse_exposition

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        artifact = os.path.join(tmp, f"census{n}.npz")
        CensusStore.build(n, include_ucg=True).save(artifact)

        def cold_cli():
            result = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "census",
                    "--load", artifact, "--grid", str(grid),
                ],
                env=env, capture_output=True, text=True, check=True,
            )
            return result.stdout

        # One un-timed cold run gives the parity reference (and warms the
        # OS page cache so the cold arm times the interpreter + load +
        # kernel, not first-touch disk reads).
        cli_figure = cold_cli().split("\n\n", 1)[1]

        clear_store_cache()
        api = QueryAPI(
            ArtifactCatalog(root=tmp), batcher=GridBatcher()
        )
        server, thread = start_in_thread(api=api)
        base = f"http://127.0.0.1:{server.port}"
        try:
            def warm_query():
                request = urllib.request.Request(
                    base + "/v1/query/grid",
                    data=jsonlib.dumps(
                        {"artifact": f"census{n}.npz", "points": grid}
                    ).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    return jsonlib.loads(response.read().decode("utf-8"))

            payload = warm_query()  # warm the store LRU out of the timing
            served_figure = format_figure(
                figure_from_payload(payload),
                f"average_poa over {payload['points']} grid points",
            ) + "\n"
            if served_figure != cli_figure:
                raise AssertionError(
                    "served grid figure differs from census --load --grid"
                )

            warm = min(_time(warm_query) for _ in range(rounds))
            cold = min(_time(lambda: cold_cli()) for _ in range(3))

            # Concurrent burst: 8 identical requests must coalesce.
            before = api.batcher.stats()
            with ThreadPoolExecutor(max_workers=8) as pool:
                bursts = list(
                    pool.map(lambda _: warm_query(), range(8))
                )
            after = api.batcher.stats()
            if any(burst != bursts[0] for burst in bursts):
                raise AssertionError("concurrent burst responses disagree")

            exposition = urllib.request.urlopen(
                base + "/metrics", timeout=30
            ).read().decode("utf-8")
            series = parse_exposition(exposition)
            request_histogram_present = any(
                key.startswith("repro_http_request_seconds_count")
                for key in series
            )
        finally:
            server.shutdown()
            thread.join(timeout=10)
            clear_store_cache()

    return {
        "n": n,
        "grid_points": grid,
        "cold_cli_seconds": cold,
        "warm_server_seconds": warm,
        "speedup": cold / warm,
        "parity_ok": True,
        "burst_requests": 8,
        "burst_coalesced": after.coalesced - before.coalesced,
        "metrics_exposition_ok": True,
        "request_histogram_present": request_histogram_present,
    }


# --------------------------------------------------------------------------- #
# 4. Single-edge mutation must not scale with m
# --------------------------------------------------------------------------- #


def bench_edge_mutation() -> Dict[str, float]:
    n = 200
    sparse = path_graph(n)  # m = n - 1
    dense = complete_graph(n).remove_edge(0, 199)  # m ~ n^2 / 2, one slot free
    rounds = 2000

    def mutate(graph: Graph, u: int, v: int):
        def run():
            for _ in range(rounds):
                graph.add_edge(u, v)
        return run

    sparse_s = _time(mutate(sparse, 0, 199))
    dense_s = _time(mutate(dense, 0, 199))
    return {
        "n": n,
        "sparse_m": sparse.num_edges,
        "dense_m": dense.num_edges,
        "sparse_ns_per_op": sparse_s / rounds * 1e9,
        "dense_ns_per_op": dense_s / rounds * 1e9,
        "dense_over_sparse": dense_s / sparse_s,
    }


# --------------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------------- #


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--report-only",
        action="store_true",
        help=(
            "never fail on the wall-clock speedup floors (for shared CI "
            "runners where the naive and engine paths degrade differently "
            "under load); the m-independence check still applies"
        ),
    )
    parser.add_argument(
        "--n9",
        action="store_true",
        help=(
            "also run the n=9 BCG streamed census (261080 graphs; minutes "
            "of wall time) and record it as census_n9_bcg_streamed"
        ),
    )
    args = parser.parse_args(argv)

    cpu = os.cpu_count() or 1
    # Always record jobs=2 for the trajectory even on single-core boxes
    # (cpu_count in the report says whether pool gains were possible at all).
    jobs_grid = sorted({2} | {j for j in (4, min(8, cpu)) if 1 < j <= cpu})
    report = {
        "schema": "bench_engine/v13",
        "python": sys.version.split()[0],
        "cpu_count": cpu,
        "unix_time": time.time(),
        "kernel_bfs": bench_kernel_bfs(),
        "oracle_deltas": bench_oracle_deltas(),
        "census_n7_bcg": bench_census_n7(jobs_grid),
        "edge_mutation": bench_edge_mutation(),
        "census_n8_bcg_streamed": bench_census_n8_streamed(),
        "census_store": bench_census_store_n8(),
        "weighted_engine": bench_weighted_engine(),
        "ucg_engine": bench_ucg_engine(),
        "weighted_store": bench_weighted_store(),
        "ensemble": bench_ensemble(),
        "ensemble_amortised": bench_ensemble_amortised(),
        "census_store_mmap_fanout": bench_store_mmap_fanout(),
        "shard_runner": bench_shard_runner(),
        "telemetry_overhead": bench_telemetry_overhead(),
        "service": bench_service(),
    }
    if args.n9:
        report["census_n9_bcg_streamed"] = bench_census_n9_streamed()

    with open(OUTPUT_PATH, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    census = report["census_n7_bcg"]
    mutation = report["edge_mutation"]
    census8 = report["census_n8_bcg_streamed"]
    for band, stats in report["kernel_bfs"].items():
        print(f"kernel BFS ({band}): {stats['speedup']:.2f}x over reference")
    print(f"oracle deltas: {report['oracle_deltas']['speedup']:.2f}x over naive")
    print(
        f"census n=7:    naive {census['naive_seconds']:.2f}s, "
        f"engine serial {census['engine_serial_seconds']:.2f}s "
        f"({census['serial_speedup']:.2f}x)"
    )
    for jobs in jobs_grid:
        print(
            f"census n=7:    engine jobs={jobs} "
            f"{census[f'engine_jobs{jobs}_seconds']:.2f}s"
        )
    print(
        f"census n=8:    streamed {census8['streamed_seconds']:.2f}s, "
        f"materialised {census8['materialised_seconds']:.2f}s "
        f"({census8['graphs']} graphs)"
    )
    store8 = report["census_store"]
    print(
        f"census store:  n=8 grid sweep {store8['store_sweep_seconds']*1e3:.1f}ms; "
        f"artifact "
        f"{store8['resident_bytes']/1e6:.1f}MB resident, "
        f"{store8['disk_bytes_npz']/1e6:.1f}MB npz "
        f"(save {store8['save_seconds']*1e3:.0f}ms, "
        f"load {store8['load_seconds']*1e3:.0f}ms)"
    )
    weighted = report["weighted_engine"]
    print(
        f"weighted engine: n=7 scenario sweep vectorised "
        f"{weighted['vectorised_seconds']*1e3:.0f}ms vs python loop "
        f"{weighted['python_seconds']:.2f}s ({weighted['speedup']:.1f}x, "
        f"{weighted['graphs']} graphs x {weighted['grid_points']} scales)"
    )
    ucg = report["ucg_engine"]
    print(
        f"ucg engine:    n=7 all {ucg['graphs']} classes vectorised "
        f"{ucg['engine_seconds']:.2f}s vs backtracking "
        f"{ucg['reference_projected_seconds']:.0f}s projected from "
        f"{ucg['reference_sample_size']} sampled classes "
        f"({ucg['speedup']:.0f}x, floor 10x)"
    )
    wstore = report["weighted_store"]
    print(
        f"weighted store: n=8 {wstore['grid_points']}-pt grid from artifact "
        f"{wstore['artifact_query_seconds']*1e3:.0f}ms vs recompute "
        f"{wstore['recompute_seconds']:.2f}s "
        f"({wstore['query_speedup']:.1f}x; "
        f"{wstore['disk_bytes_npz']/1e3:.0f}kB npz)"
    )
    ensemble = report["ensemble"]
    print(
        f"ensemble:      n=6 {ensemble['draws']} draws serial "
        f"{ensemble['serial_seconds']:.2f}s, {ensemble['workers']} workers "
        f"{ensemble['pooled_seconds']:.2f}s (summaries identical)"
    )
    amortised = report["ensemble_amortised"]
    print(
        f"amortised:     n={amortised['n']} {amortised['draws']} draws "
        f"shared-delta {amortised['amortised_seconds']:.2f}s "
        f"(build {amortised['delta_build_seconds']:.2f}s) vs per-draw "
        f"{amortised['per_draw_projected_seconds']:.0f}s projected "
        f"({amortised['speedup']:.1f}x; aggregation state "
        f"{amortised['aggregation_state_bytes']/1e3:.0f}kB vs "
        f"{amortised['dense_window_stack_bytes']/1e6:.1f}MB dense stack)"
    )
    fanout = report["census_store_mmap_fanout"]
    print(
        f"mmap fan-out:  n=7 {fanout['grid_points']}-pt grid serial "
        f"{fanout['serial_mmap_seconds']*1e3:.1f}ms, "
        f"{fanout['workers']} workers {fanout['fanout_seconds']*1e3:.0f}ms "
        f"(counts identical)"
    )
    shardrun = report["shard_runner"]
    print(
        f"shard runner:  n=7 plain {shardrun['plain_seconds']:.2f}s, "
        f"checksummed+manifest {shardrun['checksummed_seconds']:.2f}s "
        f"({shardrun['overhead_ratio']:.3f}x, floor 1.10x), warm resume "
        f"{shardrun['resume_seconds']*1e3:.0f}ms "
        f"({shardrun['shards']} shards, checksums identical)"
    )
    telemetry = report["telemetry_overhead"]
    print(
        f"telemetry off: n={telemetry['n']} bcg_stable_mask bare "
        f"{telemetry['bare_seconds']*1e3:.1f}ms, instrumented+disabled "
        f"{telemetry['disabled_seconds']*1e3:.1f}ms "
        f"({telemetry['disabled_overhead_ratio']:.3f}x, ceiling 1.05x)"
    )
    service = report["service"]
    print(
        f"service:       n={service['n']} {service['grid_points']}-pt grid "
        f"warm server {service['warm_server_seconds']*1e3:.1f}ms vs cold CLI "
        f"{service['cold_cli_seconds']:.2f}s ({service['speedup']:.0f}x, "
        f"floor 10x; burst coalesced "
        f"{service['burst_coalesced']}/{service['burst_requests']}, "
        f"figure byte-identical)"
    )
    if "census_n9_bcg_streamed" in report:
        census9 = report["census_n9_bcg_streamed"]
        print(
            f"census n=9:    streamed {census9['streamed_seconds']:.1f}s "
            f"({census9['graphs']} graphs, "
            f"{census9['streamed_graphs_per_sec']:.0f}/s)"
        )
    print(
        f"edge mutation: sparse {mutation['sparse_ns_per_op']:.0f}ns, "
        f"dense {mutation['dense_ns_per_op']:.0f}ns "
        f"({mutation['dense_over_sparse']:.2f}x; m-independent when ~1x)"
    )
    print(f"wrote {os.path.abspath(OUTPUT_PATH)}")

    failures = []
    if census["serial_speedup"] < 3.0 and not args.report_only:
        failures.append(
            f"serial census speedup {census['serial_speedup']:.2f}x is below the 3x floor"
        )
    if weighted["speedup"] < 10.0 and not args.report_only:
        failures.append(
            f"weighted engine speedup {weighted['speedup']:.1f}x at n=7 "
            "is below the 10x floor"
        )
    if ucg["speedup"] < 10.0 and not args.report_only:
        failures.append(
            f"UCG orientation engine speedup {ucg['speedup']:.1f}x at n=7 "
            "is below the 10x floor"
        )
    if wstore["query_speedup"] < 10.0 and not args.report_only:
        failures.append(
            f"weighted store artifact-query speedup "
            f"{wstore['query_speedup']:.1f}x at n=8 is below the 10x floor"
        )
    if amortised["speedup"] < 10.0 and not args.report_only:
        failures.append(
            f"amortised ensemble speedup {amortised['speedup']:.1f}x at "
            f"n={amortised['n']} is below the 10x floor"
        )
    if shardrun["overhead_ratio"] > 1.10 and not args.report_only:
        failures.append(
            f"checksummed shard persistence costs "
            f"{(shardrun['overhead_ratio'] - 1) * 100:.1f}% over the plain "
            "streamed build (floor: 10%)"
        )
    if telemetry["disabled_overhead_ratio"] > 1.05 and not args.report_only:
        failures.append(
            f"disabled telemetry costs "
            f"{(telemetry['disabled_overhead_ratio'] - 1) * 100:.1f}% on the "
            "vectorised kernel path (ceiling: 5%)"
        )
    if service["speedup"] < 10.0 and not args.report_only:
        failures.append(
            f"warm-server grid query speedup {service['speedup']:.1f}x over "
            "the cold CLI is below the 10x floor"
        )
    if not service["request_histogram_present"]:
        failures.append(
            "the served /metrics exposition is missing the request-latency "
            "histogram"
        )
    if service["burst_coalesced"] < 2:
        failures.append(
            "the concurrent request burst did not coalesce any kernel calls"
        )
    if mutation["dense_over_sparse"] > 3.0:
        failures.append(
            "single-edge mutation still scales with m "
            f"(dense/sparse = {mutation['dense_over_sparse']:.2f}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
