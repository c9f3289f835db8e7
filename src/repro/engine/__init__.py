"""Shared high-throughput execution engine for the stability computations.

Every headline computation of the reproduction — pairwise-stability checks
that probe each single-edge toggle (Definitions 1–3), equilibrium censuses
over all small topologies, and the decentralised dynamics of Section 5 —
bottoms out in the same two primitives: *per-vertex distance sums* of a
graph and *edge-toggle deltas* of those sums.  This package centralises
both, so the core/analysis/experiments layers never re-derive them ad hoc:

:class:`DistanceOracle`
    An incremental distance engine with an LRU-bounded per-graph cache.
    The caching contract is:

    * ``distance_sums(g)`` / ``distance_sum(g, v)`` — per-source distance
      sums, computed once per (graph, source) via the word-parallel bitset
      BFS of :mod:`repro.graphs.distances` and memoised under the graph's
      value identity (graphs are immutable and hashable, so a cache hit can
      never observe a stale value);
    * ``addition_saving(g, (u, v), w)`` — the decrease of ``w``'s distance
      cost from adding non-edge ``(u, v)``.  Answered *without any BFS*
      from the cached distance vectors of the two endpoints, using the
      unweighted single-edge identity
      ``d'(w, k) = min(d(w, k), 1 + d(other, k))``;
    * ``removal_increase(g, (u, v), w)`` — the increase of ``w``'s distance
      cost from severing edge ``(u, v)``.  Recomputed for the single
      affected source ``w`` with a forbidden-edge bitset BFS and memoised.

    All values are numerically identical to recomputing from scratch with
    :func:`repro.graphs.distance_sum` — the oracle is a cache, never an
    approximation — which the property-based equivalence tests assert.

:func:`batch_stability_deltas`
    A vectorised NumPy backend that answers *every* single-link deviation
    probe of a whole batch of graphs with a handful of batched boolean
    matrix products (see :mod:`repro.engine.batch`) and returns them as
    the delta columns every store reduces: per-probe Δ values with their
    endpoint indices in ragged CSR layout, plus edge counts and distance
    totals.  Graphs with ``n > 63`` take the per-graph oracle path
    (:meth:`DistanceOracle.stability_deltas`).  Numerically identical to
    the oracle path.

:func:`parallel_map`
    A process-pool fan-out with a deterministic serial fallback.  ``jobs``
    semantics are shared across the library: ``None``/``0``/``1`` run
    serially in input order; ``jobs > 1`` uses a process pool but still
    returns results in input order, so parallel and serial runs are
    bit-identical.  The chunks run through :func:`run_shards` under the
    ``map`` prefix: a chunk whose worker died or raised is retried on a
    rebuilt pool and finally run serially in the parent, completed chunks
    are never recomputed, and environments without working
    multiprocessing degrade to the serial path automatically.

:func:`run_shards`
    The fault-tolerant shard work-queue coordinator behind every
    ``build_streamed(shard_dir=...)`` and the ensemble block runner:
    individual futures with per-shard timeouts, bounded retries with
    exponential backoff and a serial fallback, checksummed + config-
    fingerprinted shard resume, and a heartbeat progress manifest (see
    :mod:`repro.engine.shardwork`; fault injection for its recovery paths
    lives in :mod:`repro.engine.faults`).
"""

from .batch import (
    batch_stability_deltas,
    batch_ucg_columns,
    validate_weight_matrix,
)
from .oracle import DistanceOracle, get_default_oracle
from .pool import chunk_evenly, parallel_map, resolve_jobs
from .ucg import ucg_alpha_sets, weighted_ucg_t_sets
from .shardwork import (
    ShardRunReport,
    config_fingerprint,
    content_checksum,
    run_shards,
)
from .streaming import StreamingEnsembleStats

__all__ = [
    "DistanceOracle",
    "ShardRunReport",
    "StreamingEnsembleStats",
    "batch_stability_deltas",
    "batch_ucg_columns",
    "chunk_evenly",
    "config_fingerprint",
    "content_checksum",
    "get_default_oracle",
    "parallel_map",
    "resolve_jobs",
    "run_shards",
    "ucg_alpha_sets",
    "validate_weight_matrix",
    "weighted_ucg_t_sets",
]
