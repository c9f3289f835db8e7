"""Weighted census/sweep path: whole-``t``-grid stability over many graphs.

The scalar censuses decide equilibrium membership for every isomorphism
class on an α-grid.  Heterogeneous link costs break isomorphism invariance —
relabelling a graph moves its vertices onto different prices — so the
weighted path sweeps an explicit list of *labelled* graphs under one
:class:`~repro.costmodels.models.CostModel` ``W``, over a grid of scales
``t`` (the game at each grid point is ``C = t·W``).
:func:`weighted_census` instantiates the sweep on the canonical
representatives of every connected isomorphism class, which keeps the
scalar census shape: with a uniform model the per-class answers are exactly
the scalar census's (asserted float-exactly in the test suite), while a
heterogeneous model measures how the chosen labelling interacts with the
price structure — the point of the scenario library
(:mod:`repro.analysis.scenarios`).

Probes are batched through
:func:`repro.engine.batch.batch_weighted_columns` (the boolean-matmul delta
tensors paired with per-probe coefficient vectors) and whole grids are
answered by :func:`repro.engine.columnar.weighted_bcg_stable_mask`.  The
per-graph :class:`~repro.costmodels.stability.WeightedStabilityProfile`
loop (:func:`weighted_python_sweep_bcg`) is the reference implementation
the engine path is benchmarked and tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..costmodels.models import CostModel
from ..costmodels.stability import weighted_stability_profile
from ..engine import chunk_evenly, parallel_map, resolve_jobs
from ..engine.batch import batch_weighted_columns
from ..engine.columnar import (
    ucg_nash_mask,
    weighted_bcg_stable_mask,
    weighted_stability_windows,
)
from ..engine.oracle import DistanceOracle
from ..graphs import Graph, enumerate_connected_graphs


def _require_same_n(graphs: Sequence[Graph]) -> int:
    sizes = {graph.n for graph in graphs}
    if len(sizes) > 1:
        raise ValueError(
            f"a weighted sweep needs graphs on one vertex set, got n in {sorted(sizes)}"
        )
    return sizes.pop() if sizes else 0


def weighted_python_sweep_bcg(
    graphs: Sequence[Graph],
    model: CostModel,
    ts: Sequence[float],
    oracle: Optional[DistanceOracle] = None,
) -> List[List[bool]]:
    """Reference per-graph weighted stability sweep.

    Returns ``mask[i][j]`` = graph ``i`` pairwise stable under ``ts[j]·W``,
    decision-identical to the vectorised engine path (which is benchmarked
    against this loop in ``benchmarks/bench_engine.py``).
    """
    if oracle is None:
        oracle = DistanceOracle()
    mask: List[List[bool]] = []
    for graph in graphs:
        profile = weighted_stability_profile(graph, model, oracle=oracle)
        mask.append([profile.is_stable_at(t) for t in ts])
    return mask


def weighted_bcg_grid_mask(
    graphs: Sequence[Graph],
    model: CostModel,
    ts: Sequence[float],
    oracle: Optional[DistanceOracle] = None,
):
    """``bool[n_graphs, n_ts]`` weighted stability mask over a scale grid.

    Vectorised through the engine; decisions are identical to
    :func:`weighted_python_sweep_bcg`.
    """
    n = _require_same_n(graphs)
    columns = batch_weighted_columns(graphs, model.matrix(n), oracle=oracle)
    return weighted_bcg_stable_mask(
        columns["rem_w"], columns["rem_delta"], columns["rem_indptr"],
        columns["add_w_u"], columns["add_s_u"],
        columns["add_w_v"], columns["add_s_v"], columns["add_indptr"],
        ts,
    )


def weighted_t_windows(
    graphs: Sequence[Graph],
    model: CostModel,
    oracle: Optional[DistanceOracle] = None,
) -> Tuple[List[float], List[float]]:
    """Per-graph ``(t_min, t_max)`` stabilising-scale windows under ``W``."""
    n = _require_same_n(graphs)
    columns = batch_weighted_columns(graphs, model.matrix(n), oracle=oracle)
    t_min, t_max = weighted_stability_windows(
        columns["rem_w"], columns["rem_delta"], columns["rem_indptr"],
        columns["add_w_u"], columns["add_s_u"],
        columns["add_w_v"], columns["add_s_v"], columns["add_indptr"],
    )
    return t_min.tolist(), t_max.tolist()


def _weighted_ucg_intervals_chunk(task):
    """Pool worker: weighted UCG Nash t-intervals of a chunk of graphs.

    Runs the vectorised orientation engine (:mod:`repro.engine.ucg`) over
    the whole chunk — float-exact against the per-graph
    :func:`weighted_ucg_nash_t_set` backtracking, its fallback beyond the
    table range.
    """
    graphs, model = task
    from ..engine.ucg import weighted_ucg_t_sets

    return [
        [(interval.lo, interval.hi) for interval in t_set.intervals]
        for t_set in weighted_ucg_t_sets(graphs, model)
    ]


def weighted_ucg_grid_mask(
    graphs: Sequence[Graph],
    model: CostModel,
    ts: Sequence[float],
    jobs: Optional[int] = None,
):
    """``bool[n_graphs, n_ts]`` weighted UCG Nash-supportability mask.

    The t-intervals come from the vectorised orientation engine
    (:func:`repro.engine.ucg.weighted_ucg_t_sets`, float-exact against the
    per-graph backtracking), chunked over ``jobs`` workers; the grid
    membership test itself is one vectorised interval-containment pass.
    """
    graphs = list(graphs)
    workers = resolve_jobs(jobs)
    chunks = chunk_evenly(graphs, max(1, workers * 4))
    chunk_lists = parallel_map(
        _weighted_ucg_intervals_chunk,
        [(chunk, model) for chunk in chunks],
        jobs=jobs,
    )
    interval_lists = [
        intervals for chunk in chunk_lists for intervals in chunk
    ]
    iv_lo: List[float] = []
    iv_hi: List[float] = []
    counts: List[int] = []
    for intervals in interval_lists:
        for lo, hi in intervals:
            iv_lo.append(lo)
            iv_hi.append(hi)
        counts.append(len(intervals))
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=indptr[1:])
    return ucg_nash_mask(
        np.asarray(iv_lo, dtype=np.float64),
        np.asarray(iv_hi, dtype=np.float64),
        indptr,
        ts,
    )


def sweep_grid_aggregates(
    mask,
    ts: Sequence[float],
    num_edges: Sequence[int],
    edge_cost_totals: Sequence[float],
    dist_totals: Sequence[float],
) -> Tuple[List[int], List[float], List[float]]:
    """Per-grid-point ``(counts, avg links, avg social cost)`` from a mask.

    The one aggregation loop both :func:`weighted_sweep` and
    :meth:`repro.analysis.weighted_store.WeightedStore.aggregates` answer
    from — kept in a single place so the store's "float-exact vs the
    in-memory sweep" contract is structural, not a coincidence of two
    copies: same selected order, same left-to-right summation, ``nan`` for
    grid points with no stable class.  ``mask[i][column]`` may be a NumPy
    array or a list of lists.
    """
    bcg_counts: List[int] = []
    average_links: List[float] = []
    average_social_cost: List[float] = []
    for column, t in enumerate(ts):
        selected = [i for i in range(len(num_edges)) if mask[i][column]]
        bcg_counts.append(len(selected))
        if not selected:
            average_links.append(float("nan"))
            average_social_cost.append(float("nan"))
            continue
        average_links.append(
            sum(num_edges[i] for i in selected) / len(selected)
        )
        average_social_cost.append(
            sum(t * edge_cost_totals[i] + dist_totals[i] for i in selected)
            / len(selected)
        )
    return bcg_counts, average_links, average_social_cost


@dataclass
class WeightedSweepResult:
    """A weighted stability sweep over one graph list, model and scale grid."""

    n: int
    model: CostModel
    ts: List[float]
    graphs: List[Graph]
    #: ``mask[i][j]`` — graph ``i`` pairwise stable under ``ts[j]·W``.
    bcg_mask: object
    #: Stable-graph count per grid point.
    bcg_counts: List[int]
    #: Per-graph stabilising-scale windows ``(t_min, t_max)``.
    t_min: List[float]
    t_max: List[float]
    #: Mean edge count over the stable graphs per grid point (``nan`` if none).
    average_links: List[float]
    #: Mean weighted social cost over the stable graphs per grid point.
    average_social_cost: List[float]
    #: UCG Nash mask / counts (only with ``include_ucg=True``).
    ucg_mask: object = None
    ucg_counts: Optional[List[int]] = None
    #: Per-graph scale-independent quantities backing the aggregates.
    edge_cost_totals: List[float] = field(default_factory=list)
    dist_totals: List[float] = field(default_factory=list)

    def stable_graphs_at(self, index: int) -> List[Graph]:
        """The graphs stable at grid point ``index`` (BCG)."""
        return [g for g, row in zip(self.graphs, self.bcg_mask) if row[index]]


def weighted_sweep(
    graphs: Sequence[Graph],
    model: CostModel,
    ts: Sequence[float],
    include_ucg: bool = False,
    jobs: Optional[int] = None,
    oracle: Optional[DistanceOracle] = None,
) -> WeightedSweepResult:
    """Sweep weighted stability of ``graphs`` under ``t·W`` over a ``t``-grid.

    The BCG mask and windows ride the vectorised engine path; the social
    cost at each grid point is assembled from two scale-independent
    per-graph numbers (the unscaled link spend ``Σ_e (w_u + w_v)`` and the
    distance total), so the whole sweep runs the deviation analysis exactly
    once.  ``include_ucg=True`` adds the (much slower) per-graph weighted
    orientation search, fanned out over ``jobs`` workers.
    """
    graphs = list(graphs)
    ts = [float(t) for t in ts]
    n = _require_same_n(graphs)
    columns = batch_weighted_columns(graphs, model.matrix(n), oracle=oracle)
    probe_columns = (
        columns["rem_w"], columns["rem_delta"], columns["rem_indptr"],
        columns["add_w_u"], columns["add_s_u"],
        columns["add_w_v"], columns["add_s_v"], columns["add_indptr"],
    )
    mask = weighted_bcg_stable_mask(*probe_columns, ts)
    t_min_column, t_max_column = weighted_stability_windows(*probe_columns)
    t_min, t_max = t_min_column.tolist(), t_max_column.tolist()
    dist_totals = columns["dist_total"].tolist()
    num_edges = [int(m) for m in columns["num_edges"]]
    edge_cost_totals = [model.bcg_edge_cost_total(g) for g in graphs]

    bcg_counts, average_links, average_social_cost = sweep_grid_aggregates(
        mask, ts, num_edges, edge_cost_totals, dist_totals
    )

    ucg_mask = None
    ucg_counts = None
    if include_ucg:
        ucg_mask = weighted_ucg_grid_mask(graphs, model, ts, jobs=jobs)
        ucg_counts = [
            sum(1 for i in range(len(graphs)) if ucg_mask[i][column])
            for column in range(len(ts))
        ]

    return WeightedSweepResult(
        n=n,
        model=model,
        ts=ts,
        graphs=graphs,
        bcg_mask=mask,
        bcg_counts=bcg_counts,
        t_min=t_min,
        t_max=t_max,
        average_links=average_links,
        average_social_cost=average_social_cost,
        ucg_mask=ucg_mask,
        ucg_counts=ucg_counts,
        edge_cost_totals=edge_cost_totals,
        dist_totals=dist_totals,
    )


def weighted_census(
    n: int,
    model: CostModel,
    ts: Sequence[float],
    include_ucg: bool = False,
    jobs: Optional[int] = None,
    delta=None,
) -> WeightedSweepResult:
    """The weighted sweep over every connected isomorphism class on ``n``.

    Uses the canonical class representatives in census order, so row ``i``
    here and row ``i`` of the scalar census/store describe the same class;
    with a uniform unit model and ``ts`` equal to the α-grid the mask is
    float-exactly the scalar ``stable_mask``.

    Passing a shared :class:`~repro.analysis.delta_store.DeltaStore` as
    ``delta`` skips the deviation pass entirely: the weight columns are
    gathered from the model's coefficient matrix at the stored probe
    endpoints (via :meth:`WeightedStore.from_delta`), float-for-float
    identical to the recomputing path.
    """
    if delta is not None:
        from .weighted_store import WeightedStore

        if delta.n != int(n):
            raise ValueError(
                f"delta store is for n = {delta.n}, census asked for n = {n}"
            )
        ts = [float(t) for t in ts]
        store = WeightedStore.from_delta(delta, model)
        mask = store.stable_mask(ts)
        t_min_column, t_max_column = store.stability_windows()
        num_edges = [int(m) for m in store.num_edges]
        edge_cost_totals = store.edge_cost_total.tolist()
        dist_totals = store.dist_total.tolist()
        bcg_counts, average_links, average_social_cost = sweep_grid_aggregates(
            mask, ts, num_edges, edge_cost_totals, dist_totals
        )
        graphs = [delta.graph_at(index) for index in range(len(delta))]
        ucg_mask = None
        ucg_counts = None
        if include_ucg:
            ucg_mask = weighted_ucg_grid_mask(graphs, model, ts, jobs=jobs)
            ucg_counts = [
                sum(1 for i in range(len(graphs)) if ucg_mask[i][column])
                for column in range(len(ts))
            ]
        return WeightedSweepResult(
            n=int(n),
            model=model,
            ts=ts,
            graphs=graphs,
            bcg_mask=mask,
            bcg_counts=bcg_counts,
            t_min=t_min_column.tolist(),
            t_max=t_max_column.tolist(),
            average_links=average_links,
            average_social_cost=average_social_cost,
            ucg_mask=ucg_mask,
            ucg_counts=ucg_counts,
            edge_cost_totals=edge_cost_totals,
            dist_totals=dist_totals,
        )
    return weighted_sweep(
        enumerate_connected_graphs(n), model, ts, include_ucg=include_ucg, jobs=jobs
    )
