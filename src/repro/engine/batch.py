"""Vectorised batch backend for stability-delta computation.

The exhaustive censuses ask the same question — "all single-link deviation
payoffs of this graph" — hundreds of thousands of times for same-sized
graphs.  Instead of running thousands of tiny per-probe BFS traversals in the
interpreter, this module stacks *every probe of every graph* into dense NumPy
tensors and runs the whole census as a handful of batched boolean matrix
products:

* all-pairs hop distances for a group of ``G`` graphs on ``n`` vertices are
  ``diameter``-many batched ``(G, n, n) @ (G, n, n)`` frontier expansions;
* every edge-removal probe of every graph becomes one slice of a single
  ``(P, n, n)`` tensor whose BFS levels advance in lock-step;
* every edge-addition probe is answered with one vectorised
  ``min(d_u, 1 + d_v)`` reduction over the all-pairs matrix — no BFS at all.

The kernel emits one layout, the **delta columns** that
:class:`~repro.analysis.delta_store.DeltaStore` persists and every store
reduces (see :func:`batch_stability_deltas`).  ``np.nonzero`` over the upper
triangle walks each graph's edges and non-edges in ``sorted_edges`` /
``non_edges`` order, so the columns come straight off the tensors with no
per-probe Python loop.

Graphs with ``n > 63`` no longer fit an int64 adjacency lane and take the
per-graph path, :meth:`DistanceOracle.stability_deltas
<repro.engine.oracle.DistanceOracle.stability_deltas>`, where every
non-bridge removal probe is a real BFS.

The numeric contract is identical to :class:`repro.engine.DistanceOracle`
(and therefore to the seed's per-probe BFS): hop counts, ``inf`` for
unreachable pairs, and the ``∞ - ∞ = 0`` delta convention.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Sequence

import numpy as np

from .. import obs
from ..graphs.graph import Graph
from .columnar import concat_csr, gather_segments
from .oracle import DistanceOracle, get_default_oracle

#: Dtypes of the dense and flat delta columns (CSR offsets are int64).
_DTYPES = {
    "num_edges": np.int32,
    "dist_total": np.float64,
    "rem_delta": np.float32,
    "rem_pay": np.int32,
    "rem_other": np.int32,
    "add_s_u": np.float32,
    "add_s_v": np.float32,
    "add_u": np.int32,
    "add_v": np.int32,
}

#: The ragged column groups: CSR offsets → the flat columns they index.
_GROUPS = {
    "rem_indptr": ("rem_delta", "rem_pay", "rem_other"),
    "add_indptr": ("add_s_u", "add_s_v", "add_u", "add_v"),
}


def _instrument_batch(name: str):
    """Telemetry wrapper for :func:`batch_stability_deltas` (graphs first).

    Each call observes its wall seconds into
    ``repro_kernel_seconds{kernel=name}`` and tallies the batch size and
    vertex-pair probe volume (``n·(n-1)/2`` per graph — the upper bound a
    full-probing pass evaluates).  One flag check when disabled; the raw
    function stays reachable as ``__wrapped__`` for the bench ceiling.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(graphs, *args, **kwargs):
            if not obs.metrics_enabled():
                return fn(graphs, *args, **kwargs)
            graphs = list(graphs)
            obs.counter(
                "repro_kernel_graphs_total",
                "Graphs processed per batch-kernel call",
                kernel=name,
            ).inc(len(graphs))
            obs.counter(
                "repro_kernel_probes_total",
                "Vertex-pair probes submitted per batch kernel",
                kernel=name,
            ).inc(sum(g.n * (g.n - 1) // 2 for g in graphs))
            with obs.histogram(
                "repro_kernel_seconds",
                "Wall seconds per vectorised-kernel call",
                kernel=name,
            ).time():
                return fn(graphs, *args, **kwargs)

        return wrapper

    return decorate


@_instrument_batch("batch_stability_deltas")
def batch_stability_deltas(graphs: Sequence[Graph]) -> Dict[str, np.ndarray]:
    """Every single-link deviation payoff of a batch of graphs, as columns.

    Graphs are grouped by vertex count: groups with ``n <= 63`` run the
    tensorised kernels below, wider graphs the per-graph path through the
    process-wide oracle (:func:`~repro.engine.oracle.get_default_oracle`).
    Each value equals the matching entry of
    :meth:`DistanceOracle.stability_deltas
    <repro.engine.oracle.DistanceOracle.stability_deltas>`.  Rows are in
    input order:

    * ``rem_delta, rem_pay, rem_other, rem_indptr`` — one entry per
      (edge, endpoint) removal probe, two per edge in ``sorted_edges``
      order (endpoint ``u`` paying first, then ``v``); probe ``p``'s
      coefficient under a matrix ``W`` is ``W[rem_pay[p]][rem_other[p]]``;
    * ``add_s_u, add_s_v, add_u, add_v, add_indptr`` — one savings pair
      per non-edge in ``non_edges`` order, with the endpoint indices
      (coefficients ``W[add_u][add_v]`` and ``W[add_v][add_u]``);
    * ``num_edges, dist_total`` — the edge count and the total ordered-pair
      distance sum (:func:`repro.graphs.total_distance`, ``inf`` when
      disconnected).

    Δ/savings values are float32 (every BCG deviation payoff is an
    integer-valued float far below 2**24, or ``inf``, so the narrowing is
    exact); endpoint indices are int32 and CSR offsets int64.
    """
    groups: Dict[int, List[int]] = {}
    for index, graph in enumerate(graphs):
        groups.setdefault(graph.n, []).append(index)
    parts: List[Dict[str, np.ndarray]] = []
    order: List[int] = []
    # An empty batch is one empty group, so every column is still present.
    for n, indices in (groups or {0: []}).items():
        group = [graphs[i] for i in indices]
        if n > 63:
            # Adjacency rows no longer fit an int64 lane; answer these
            # through the per-graph oracle instead of the tensor path.
            parts.append(_per_graph_columns(group, get_default_oracle()))
        else:
            parts.append(_batch_group(group, n))
        order.extend(indices)
    return _in_input_order(parts, order)


def validate_weight_matrix(
    weight_matrix: Sequence[Sequence[float]],
) -> Sequence[Sequence[float]]:
    """Check a dense weight matrix is usable by the weighted kernels.

    The weighted kernels divide deviation payoffs by the coefficients
    (``Δ / w`` stability windows), so a zero, negative or non-finite entry
    would silently propagate NaN/inf through every downstream mask instead
    of failing at the call site.  Requires a square matrix with a zero
    diagonal and strictly positive, finite off-diagonal entries; returns
    the matrix unchanged.  Symmetry is *not* required (per-player models
    are asymmetric).
    """
    n = len(weight_matrix)
    for i, row in enumerate(weight_matrix):
        if len(row) != n:
            raise ValueError(
                f"the weight matrix must be square; row {i} has {len(row)} "
                f"entries for n = {n}"
            )
        for j, value in enumerate(row):
            value = float(value)
            if i == j:
                if value != 0.0:
                    raise ValueError(
                        f"the weight-matrix diagonal must be zero, got "
                        f"W[{i}][{i}] = {value!r}"
                    )
            elif not (value > 0.0 and math.isfinite(value)):
                raise ValueError(
                    f"weighted kernels need strictly positive, finite "
                    f"coefficients; got W[{i}][{j}] = {value!r}"
                )
    return weight_matrix


def batch_ucg_columns(graphs: Sequence[Graph], model=None):
    """UCG interval-endpoint CSR columns for a batch of graphs.

    Runs the vectorised orientation engine (:mod:`repro.engine.ucg`) over
    the whole batch — scalar α-intervals when ``model`` is ``None``,
    weighted t-intervals for a :class:`~repro.costmodels.models.CostModel`
    otherwise — and packs the per-graph :class:`AlphaIntervalSet` results
    into the ``ucg_lo``/``ucg_hi``/``ucg_indptr`` layout both stores
    persist.  Endpoints are element-for-element float-exact against the
    per-graph backtracking references (``ucg_nash_alpha_set`` /
    ``weighted_ucg_nash_t_set``), which remain the engine's fallback
    beyond its table range.  The engine entry points time themselves, so
    this wrapper adds no telemetry of its own.
    """
    from .columnar import ucg_interval_columns
    from .ucg import ucg_alpha_sets, weighted_ucg_t_sets

    if model is None:
        sets = ucg_alpha_sets(graphs)
    else:
        sets = weighted_ucg_t_sets(graphs, model)
    lo, hi, indptr = ucg_interval_columns(sets)
    return {"ucg_lo": lo, "ucg_hi": hi, "ucg_indptr": indptr}


def _delta_columns(rem_counts, add_counts, **values) -> Dict[str, np.ndarray]:
    """The delta-column dict: ``values`` cast to their column dtypes, plus
    CSR offsets from the per-graph removal and addition probe counts."""
    columns = {
        name: np.asarray(values[name], dtype=dtype) for name, dtype in _DTYPES.items()
    }
    for indptr, counts in (("rem_indptr", rem_counts), ("add_indptr", add_counts)):
        columns[indptr] = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=columns[indptr][1:])
    return columns


def _in_input_order(
    parts: List[Dict[str, np.ndarray]], order: List[int]
) -> Dict[str, np.ndarray]:
    """Concatenate per-``n`` column parts; row ``order[i]`` of the input is
    row ``i`` of the concatenation, and the result restores input order."""
    if len(parts) == 1:
        return parts[0]  # one group holds the whole batch, already in order
    rows = np.argsort(np.asarray(order, dtype=np.int64))
    columns = {
        name: np.concatenate([part[name] for part in parts])[rows]
        for name in ("num_edges", "dist_total")
    }
    for indptr, names in _GROUPS.items():
        for name in names:
            values, offsets = concat_csr([(part[name], part[indptr]) for part in parts])
            columns[name], columns[indptr] = gather_segments(values, offsets, rows)
    return columns


def _per_graph_columns(
    graphs: Sequence[Graph], oracle: DistanceOracle
) -> Dict[str, np.ndarray]:
    """Delta columns of wide graphs, read off the per-graph oracle tables."""
    values: Dict[str, list] = {name: [] for name in _DTYPES}
    rem_counts: List[int] = []
    add_counts: List[int] = []
    for graph in graphs:
        removal, addition = oracle.stability_deltas(graph)
        values["num_edges"].append(graph.num_edges)
        # The probes above memoised every source sum, so this runs no BFS.
        values["dist_total"].append(
            float(sum(oracle.distance_sum(graph, v) for v in range(graph.n)))
        )
        edges = graph.sorted_edges()
        for (u, v) in edges:
            values["rem_delta"] += (removal[((u, v), u)], removal[((u, v), v)])
            values["rem_pay"] += (u, v)
            values["rem_other"] += (v, u)
        rem_counts.append(2 * len(edges))
        non_edges = graph.non_edges()
        for (u, v) in non_edges:
            values["add_s_u"].append(addition[((u, v), u)])
            values["add_s_v"].append(addition[((u, v), v)])
            values["add_u"].append(u)
            values["add_v"].append(v)
        add_counts.append(len(non_edges))
    return _delta_columns(rem_counts, add_counts, **values)


def _removal_without_sums(A, n, probe_g, sources, others):
    """Post-removal distance sums for a batch of (graph, edge, source) probes.

    Deletes edge ``(sources, others)`` from each probe's adjacency slice and
    runs all the single-source BFS levels from ``sources`` in lock-step;
    returns the new distance sum per probe (``inf`` when the source no
    longer reaches every vertex).
    """
    P = probe_g.size
    T = A[probe_g].copy()
    arange = np.arange(P)
    T[arange, sources, others] = 0
    T[arange, others, sources] = 0

    reach = np.zeros((P, n), dtype=bool)
    reach[arange, sources] = True
    front = reach.astype(A.dtype)
    totals = np.zeros(P)
    for level in range(1, n):
        nxt = (np.matmul(front[:, None, :], T)[:, 0, :] > 0) & ~reach
        if not nxt.any():
            break
        totals += level * nxt.sum(axis=1)
        reach |= nxt
        front = nxt.astype(A.dtype)
    return np.where(reach.sum(axis=1) == n, totals, np.inf)


def _batch_group(graphs: Sequence[Graph], n: int) -> Dict[str, np.ndarray]:
    """Delta columns of a same-``n`` group (``n <= 63``), off the tensors."""
    G = len(graphs)

    # (G, n) adjacency rows as integers -> (G, n, n) dense 0/1 tensor (the
    # reshape keeps that shape for an empty batch).  The caller guarantees
    # n <= 63, so every row fits an int64 lane and uint8 accumulators
    # cannot overflow in the frontier matmuls (counts <= n).
    count_dtype = np.uint8
    rows = np.array([g.adjacency_rows() for g in graphs], dtype=np.int64).reshape(G, n)
    A = ((rows[:, :, None] >> np.arange(n)[None, None, :]) & 1).astype(count_dtype)

    # All-pairs distances for every graph: lock-step frontier expansion.
    eye = np.eye(n, dtype=bool)
    visited = np.broadcast_to(eye, (G, n, n)).copy()
    frontier = visited.astype(count_dtype)
    D = np.full((G, n, n), np.inf)
    D[:, eye] = 0.0
    for level in range(1, n):
        nxt = (np.matmul(frontier, A) > 0) & ~visited
        if not nxt.any():
            break
        D[nxt] = level
        visited |= nxt
        frontier = nxt.astype(count_dtype)
    S = D.sum(axis=2)  # per-source distance sums, inf when disconnected

    # np.nonzero walks (graph, u, v) row-major: each graph's edges and
    # non-edges in sorted_edges / non_edges order.
    triu = np.triu(np.ones((n, n), dtype=bool), k=1)
    edge_g, edge_u, edge_v = np.nonzero((A > 0) & triu)
    non_g, add_u, add_v = np.nonzero((A == 0) & triu)

    # Removal probes: one tensor slice per (edge, endpoint), endpoint u
    # paying first and then v.
    probe_g = np.repeat(edge_g, 2)
    pay = np.stack([edge_u, edge_v], axis=1).ravel()
    other = np.stack([edge_v, edge_u], axis=1).ravel()
    without = _removal_without_sums(A, n, probe_g, pay, other)
    base = S[probe_g, pay]
    with np.errstate(invalid="ignore"):
        rem_delta = np.where(np.isinf(without) & np.isinf(base), 0.0, without - base)

    # Addition probes: pure reductions over the all-pairs matrix.
    new_u = np.minimum(D[non_g, add_u, :], 1.0 + D[non_g, add_v, :]).sum(axis=1)
    new_v = np.minimum(D[non_g, add_v, :], 1.0 + D[non_g, add_u, :]).sum(axis=1)
    base_u = S[non_g, add_u]
    base_v = S[non_g, add_v]
    with np.errstate(invalid="ignore"):
        save_u = np.where(np.isinf(base_u) & np.isinf(new_u), 0.0, base_u - new_u)
        save_v = np.where(np.isinf(base_v) & np.isinf(new_v), 0.0, base_v - new_v)

    num_edges = np.bincount(edge_g, minlength=G)
    # Per-graph total distance over ordered pairs (inf when disconnected):
    # distances are exact small integers, so the reduction order is
    # irrelevant and the value matches repro.graphs.total_distance exactly.
    return _delta_columns(
        2 * num_edges,
        np.bincount(non_g, minlength=G),
        num_edges=num_edges,
        dist_total=S.sum(axis=1),
        rem_delta=rem_delta,
        rem_pay=pay,
        rem_other=other,
        add_s_u=save_u,
        add_s_v=save_v,
        add_u=add_u,
        add_v=add_v,
    )
