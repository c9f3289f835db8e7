"""Seeded scenario ensembles: stability statistics over many weight draws.

:func:`~repro.analysis.scenarios.random_weights` (and every registry
scenario — the factories all take a ``seed``) describes a *distribution*
over cost models, but a single sweep sees one draw.  The ensemble runner
asks the distributional question: over ``K`` seeded draws of a scenario on
``n`` players, how many topologies are stable at each scale ``t``, and
where do the per-class stability windows land — on average, how spread
out, and at which quantiles?

The Δdist probe columns depend only on the topology class list — per seed,
only the weight pairings change — so the runner amortises the expensive
part across the whole ensemble instead of paying it per draw:

* the deviation analysis runs **once per n** into a shared model-independent
  :class:`~repro.analysis.delta_store.DeltaStore` (reused from the process
  LRU, or persisted/mmapped via ``delta_cache``);
* draws are chunked into ``batch_draws``-sized blocks, each answered by
  one :meth:`DeltaStore.stable_counts_multi
  <repro.analysis.delta_store.DeltaStore.stable_counts_multi>` call: per
  slice of :data:`~repro.analysis.delta_store.DRAW_SLICE` draws, one dense
  ``(K, P)`` weight gather and one stacked mask pass
  (:func:`repro.engine.columnar.weighted_bcg_stable_mask_multi`) whose
  window ratios also fill the block's ``t_min``/``t_max`` rows.  Every
  per-draw row is **bit-identical** to the per-draw weighted kernels, so
  amortisation never changes a number;
* blocks fan out over ``jobs`` pool workers in bounded waves and feed one
  :class:`~repro.engine.streaming.StreamingEnsembleStats` aggregator in
  draw order — each draw's ``t_min`` and ``t_max`` windows side by side as
  one row of width ``2 × classes``, split back into the two summaries at
  the end — so results are identical for any worker count or batch size
  and peak aggregation memory is independent of ``K`` (bit-exact dense
  aggregation below ``window_exact_buffer`` draws; exact moments + a P²
  quantile bank beyond — see the streaming module's contract);
* with ``save_dir`` every draw persists its
  :class:`~repro.analysis.weighted_store.WeightedStore` artifact
  (``draw_XXXX_seedS.npz``, materialised from the shared delta columns),
  stamped with the full scenario recipe; an interrupted or repeated run
  **resumes** by loading matching artifacts instead of recomputing, and
  the ``resumed``/``recomputed`` tallies on the result make that auditable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..engine import run_shards
from ..engine.columnar import ensemble_stats
from ..engine.streaming import DEFAULT_EXACT_BUFFER, StreamingEnsembleStats
from .artifact import LOAD_ERRORS
from .delta_store import DeltaStore, cached_delta_store
from .scenarios import build_scenario, default_t_grid
from .weighted_store import WeightedStore

#: Quantiles reported by default (quartiles: lower, median, upper).
DEFAULT_QUANTILES = (0.25, 0.5, 0.75)

#: Draws answered per stacked-kernel block (one pool task each).
DEFAULT_BATCH_DRAWS = 16


def ensemble_seeds(seed: int, draws: int) -> List[int]:
    """The per-draw seeds of an ensemble: ``seed, seed+1, …, seed+K-1``.

    Consecutive offsets keep the mapping transparent (draw ``k`` of base
    seed ``s`` is exactly the single sweep ``seed=s+k``) and collision-free
    within one ensemble.
    """
    if draws < 1:
        raise ValueError("an ensemble needs at least one draw")
    return [int(seed) + k for k in range(int(draws))]


@dataclass
class EnsembleResult:
    """Aggregated stability statistics of one seeded scenario ensemble.

    ``count_stats`` summarises the per-``t`` stable-class counts across
    draws; ``t_min_stats`` / ``t_max_stats`` summarise the per-class
    window endpoints across draws (entry ``i`` describes isomorphism
    class ``i`` in canonical census order).  Every stats dict holds
    ``mean``/``std``/``min``/``max`` lists plus a ``quantiles`` mapping
    ``{q: [...]}`` — the :func:`repro.engine.columnar.ensemble_stats`
    shape (window stats stream through
    :class:`~repro.engine.streaming.StreamingEnsembleStats` past the
    exact-buffer threshold).
    """

    scenario: str
    n: int
    draws: int
    seed: int
    seeds: List[int]
    ts: List[float]
    #: Per-draw stable counts as an ``int64[draws, len(ts)]`` ndarray —
    #: ``counts[k, j]`` = draw ``k`` at ``ts[j]``.
    counts: object
    count_stats: Dict[str, object]
    t_min_stats: Dict[str, object]
    t_max_stats: Dict[str, object]
    #: One artifact path per draw when ``save_dir`` was given.
    artifact_paths: Optional[List[str]] = None
    #: Extra family parameters the draws were built with.
    params: Dict[str, object] = field(default_factory=dict)
    #: Draws answered by loading a matching saved artifact.
    resumed: int = 0
    #: Draws computed this run (no artifact, unreadable, or recipe mismatch).
    recomputed: int = 0

    @property
    def classes(self) -> int:
        """Number of isomorphism classes summarised per draw."""
        return len(self.t_min_stats["mean"])


def _draw_path(save_dir: str, index: int, seed: int, save_format: str) -> str:
    name = f"draw_{index:04d}_seed{seed}"
    return os.path.join(
        save_dir, f"{name}.npz" if save_format == "npz" else name
    )


def _resolve_delta_spec(spec) -> DeltaStore:
    kind, payload, mmap = spec
    if kind == "path":
        return cached_delta_store(path=payload, mmap=mmap)
    return payload


def _ensemble_batch(task: Tuple):
    """Pool worker: one block of draws → stacked rows + resume tallies.

    Draws whose artifact already exists with the exact scenario recipe
    (same name/n/seed/params) are answered from the loaded store; the rest
    are answered in one stacked-kernel pass over the shared delta columns
    — row for row bit-identical to the per-draw kernels — and persisted
    (via :meth:`WeightedStore.from_delta`) when a ``save_path`` is set.
    Returns ``(counts, t_min, t_max, resumed, recomputed)`` with the row
    blocks stacked in draw order.
    """
    name, n, block, params, ts, delta_spec, save_format = task
    with obs.histogram(
        "repro_ensemble_block_seconds", "Wall seconds per ensemble draw block"
    ).time():
        return _ensemble_batch_body(name, n, block, params, ts, delta_spec, save_format)


def _ensemble_batch_body(name, n, block, params, ts, delta_spec, save_format):
    delta = _resolve_delta_spec(delta_spec)
    size = len(block)
    counts_rows: List = [None] * size
    t_min_rows: List = [None] * size
    t_max_rows: List = [None] * size
    resumed = 0
    fresh: List[Tuple[int, object, Optional[str]]] = []

    for position, (draw_seed, save_path) in enumerate(block):
        scenario = build_scenario(name, n, seed=draw_seed, **params)
        store = None
        if save_path is not None and os.path.exists(save_path):
            try:
                candidate = WeightedStore.load(save_path)
            except LOAD_ERRORS:
                candidate = None  # unreadable/foreign artifact: recompute
            if candidate is not None and candidate.scenario_params == scenario.params:
                store = candidate
        if store is None:
            fresh.append((position, scenario, save_path))
            continue
        resumed += 1
        counts_rows[position] = np.asarray(store.stable_counts(ts), dtype=np.int64)
        t_min, t_max = store.stability_windows()
        t_min_rows[position] = t_min
        t_max_rows[position] = t_max

    if fresh:
        matrices = [scenario.model.coefficient_matrix(n) for _, scenario, _ in fresh]
        t_min_multi = np.empty((len(fresh), len(delta)))
        t_max_multi = np.empty_like(t_min_multi)
        # One pass per draw slice answers the counts and fills the windows.
        counts_multi = delta.stable_counts_multi(
            matrices, ts, windows=(t_min_multi, t_max_multi)
        )
        for row, (position, scenario, save_path) in enumerate(fresh):
            counts_rows[position] = counts_multi[row]
            t_min_rows[position] = t_min_multi[row]
            t_max_rows[position] = t_max_multi[row]
            if save_path is not None:
                WeightedStore.from_delta(
                    delta, scenario.model, scenario_params=dict(scenario.params)
                ).save(save_path, format=save_format)

    return (
        np.stack(counts_rows),
        np.stack(t_min_rows),
        np.stack(t_max_rows),
        resumed,
        len(fresh),
    )


def _split_stats(stats: Dict[str, object], width: int) -> Tuple[Dict, Dict]:
    """Split an aggregate of ``a‖b`` rows into the aggregates of ``a`` and ``b``."""
    halves = []
    for part in (slice(0, width), slice(width, None)):
        half = {key: stats[key][part] for key in ("mean", "std", "min", "max")}
        half["quantiles"] = {q: row[part] for q, row in stats["quantiles"].items()}
        halves.append(half)
    return halves[0], halves[1]


def run_ensemble(
    scenario: str = "random_weights",
    n: int = 6,
    draws: int = 8,
    seed: int = 0,
    ts: Optional[Sequence[float]] = None,
    grid: int = 12,
    jobs: Optional[int] = None,
    save_dir: Optional[str] = None,
    save_format: str = "npz",
    params: Optional[Dict[str, object]] = None,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    delta: Optional[DeltaStore] = None,
    delta_cache: Optional[str] = None,
    batch_draws: int = DEFAULT_BATCH_DRAWS,
    window_exact_buffer: int = DEFAULT_EXACT_BUFFER,
    timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    progress=None,
    fault_plan=None,
) -> EnsembleResult:
    """Sweep ``draws`` seeded instances of a scenario and aggregate.

    Draw ``k`` plays the registered ``scenario`` on ``n`` players with seed
    ``seed + k`` (extra factory ``params`` — e.g. ``low``/``high`` for
    ``random_weights`` — are passed through and recorded in every
    artifact's recipe).  The deviation analysis runs once into a shared
    :class:`DeltaStore` — pass ``delta`` to reuse one you already hold, or
    ``delta_cache`` to load (mmap, for directory artifacts) / build-and-save
    a persistent one; otherwise the per-process LRU builds it on first use.
    Draws are then answered ``batch_draws`` at a time by the stacked
    multi-draw kernels, fanned over ``jobs`` pool workers in bounded waves
    and aggregated as a stream — results are identical for any ``jobs`` or
    ``batch_draws`` value, and bit-identical to the per-draw path (window
    stats: bit-exact up to ``window_exact_buffer`` draws, exact
    moments/extrema + P² quantile sketches beyond).  ``ts`` defaults to
    the scenario library's log-spaced ``grid``-point scale grid.

    With ``save_dir``, each draw persists one :class:`WeightedStore`
    artifact there (``save_format`` ``"npz"`` or ``"dir"``) and matching
    artifacts already on disk are loaded instead of recomputed; the
    ``resumed``/``recomputed`` tallies on the result record the split.

    The block fan-out runs through :func:`repro.engine.run_shards`, so a
    crashed or hung pool worker re-queues only its own draw blocks
    (``timeout``/``max_retries`` bound each block attempt) and, with
    ``save_dir``, a ``manifest.json`` there tracks block progress and retry
    tallies; ``progress`` receives each manifest snapshot.
    """
    params = dict(params or {})
    for reserved in ("name", "n", "seed"):
        params.pop(reserved, None)
    ts = (
        default_t_grid(n, grid) if ts is None else [float(t) for t in ts]
    )
    seeds = ensemble_seeds(seed, draws)
    if batch_draws < 1:
        raise ValueError("batch_draws must be positive")
    if save_dir is not None:
        if save_format not in ("npz", "dir"):
            raise ValueError("save_format must be 'npz' or 'dir'")
        os.makedirs(save_dir, exist_ok=True)

    # One delta pass for the whole ensemble, whatever its size.
    delta_spec = None
    if delta is None:
        if delta_cache is not None:
            if not os.path.exists(delta_cache):
                built = DeltaStore.build(n, jobs=jobs)
                built.save(
                    delta_cache,
                    format="npz" if str(delta_cache).endswith(".npz") else "dir",
                )
            mmap = os.path.isdir(delta_cache)
            delta = cached_delta_store(path=delta_cache, mmap=mmap)
            delta_spec = ("path", delta_cache, mmap)
        else:
            delta = cached_delta_store(n=n, jobs=jobs)
    if delta.n != int(n):
        raise ValueError(
            f"delta store is for n = {delta.n}, ensemble asked for n = {n}"
        )
    if delta_spec is None:
        delta_spec = ("store", delta, False)

    paths = (
        None
        if save_dir is None
        else [
            _draw_path(save_dir, index, draw_seed, save_format)
            for index, draw_seed in enumerate(seeds)
        ]
    )
    blocks = [
        [
            (seeds[k], None if paths is None else paths[k])
            for k in range(start, min(start + batch_draws, draws))
        ]
        for start in range(0, draws, int(batch_draws))
    ]
    tasks = [
        (scenario, int(n), block, params, ts, delta_spec, save_format)
        for block in blocks
    ]

    classes = len(delta)
    # One aggregator folds both window endpoints as one ``t_min‖t_max`` row;
    # positions are independent, so each half reads as its own aggregate.
    window_agg = StreamingEnsembleStats(
        2 * classes, quantiles=quantiles, exact_buffer=window_exact_buffer
    )
    count_blocks: List = []
    resumed = 0
    recomputed = 0

    def _fold(index: int, block) -> None:
        # run_shards delivers blocks strictly in index (draw) order, so the
        # streaming aggregator sees exactly the serial fold sequence and the
        # result stays bit-identical for any jobs value.
        nonlocal resumed, recomputed
        counts_block, t_min_block, t_max_block, block_resumed, block_recomputed = block
        count_blocks.append(counts_block)
        window_agg.update(np.concatenate((t_min_block, t_max_block), axis=1))
        resumed += block_resumed
        recomputed += block_recomputed
        if obs.metrics_enabled():
            obs.counter(
                "repro_ensemble_draws_total",
                "Ensemble draws aggregated (draws/sec over a scrape window)",
            ).inc(block_resumed + block_recomputed)
            obs.counter(
                "repro_ensemble_draws_resumed_total",
                "Ensemble draws answered from existing artifacts",
            ).inc(block_resumed)
            obs.counter(
                "repro_ensemble_draws_recomputed_total",
                "Ensemble draws recomputed through the stacked kernels",
            ).inc(block_recomputed)

    # The work-queue runner bounds in-flight blocks at the worker count, so
    # peak memory is set by (workers × batch_draws), not K — and a crashed
    # worker costs one block, not the whole wave.  The manifest (block
    # progress, retry tallies) lands next to the draw artifacts.
    with obs.span("run_ensemble"):
        run_shards(
            _ensemble_batch,
            tasks,
            jobs=jobs,
            prefix="block",
            consume=_fold,
            manifest_dir=save_dir,
            fingerprint={
                "kind": "repro-ensemble",
                "scenario": scenario,
                "n": int(n),
                "seed": int(seed),
                "draws": int(draws),
                "batch_draws": int(batch_draws),
                "params": params,
                "ts": [float(t) for t in ts],
            },
            timeout=timeout,
            max_retries=max_retries,
            progress=progress,
            fault_plan=fault_plan,
        )

    counts = np.concatenate(count_blocks, axis=0)
    count_indptr = np.arange(draws + 1, dtype=np.int64) * len(ts)
    count_stats = ensemble_stats(
        counts.astype(np.float64).ravel(), count_indptr, quantiles=quantiles
    )
    t_min_stats, t_max_stats = _split_stats(window_agg.finalize(), classes)

    return EnsembleResult(
        scenario=scenario,
        n=int(n),
        draws=int(draws),
        seed=int(seed),
        seeds=seeds,
        ts=list(ts),
        counts=counts,
        count_stats=count_stats,
        t_min_stats=t_min_stats,
        t_max_stats=t_max_stats,
        artifact_paths=paths,
        params=params,
        resumed=resumed,
        recomputed=recomputed,
    )
