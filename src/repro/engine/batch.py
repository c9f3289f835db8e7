"""Vectorised, orbit-pruned batch backend for stability-delta computation.

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

On top of the tensorisation, probes can be **orbit-pruned**: the deviation
payoff of endpoint ``u`` toggling ``{u, v}`` is constant on each automorphism
orbit of ordered vertex pairs (see
:func:`repro.graphs.isomorphism.ordered_pair_orbits`), so only one
representative per orbit needs evaluating, with the result expanded across
the orbit — cutting the probe count by the graph's symmetry factor.  Where
pruning pays depends on the backend, and the ``use_orbits=None`` default
follows the measured economics:

* on the **per-graph path** (``n > 63``) every removal probe is a real
  BFS, so pruning engages automatically whenever the symmetry data is
  already memoised on the graph instance (as it is for every graph
  produced by the canonical-augmentation enumerator) — no caller ever
  pays a canonical search it did not already need;
* on the **vectorised path** a probe is one slice of a batched tensor and
  costs less than the per-orbit Python bookkeeping it would save
  (benchmarked at n = 7..9), so the default keeps full tensor probing and
  pruning runs only on explicit request (``use_orbits=True``).

The numeric contract is identical to :class:`repro.engine.DistanceOracle`
(and therefore to the seed's per-probe BFS): hop counts, ``inf`` for
unreachable pairs, and the ``∞ - ∞ = 0`` delta convention.  Orbit expansion
is exact, not approximate: orbit-mates are relabellings of the same probe and
all quantities are integer-valued (or infinite), so expanded tables are
bit-identical to full probing.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..graphs.graph import Graph
from ..graphs.isomorphism import (
    cached_canonical_record,
    canonical_record,
    ordered_pair_orbits,
)
from ..graphs.properties import bridges
from .oracle import (
    DeltaTables,
    DistanceOracle,
    addition_probe,
    get_default_oracle,
    removal_probe,
)

Edge = Tuple[int, int]

#: Per-n interned ``((u, v), endpoint)`` key tuples.  The n = 9 census holds
#: profiles for ~261k graphs whose delta tables all share the same key space;
#: interning the tuples keeps one copy per (pair, endpoint) instead of one
#: per graph.
_KEY_TABLES: Dict[int, Dict[Tuple[int, int, int], Tuple[Edge, int]]] = {}

#: An orbit-pruned probe plan: ``(removal_orbits, addition_orbits)`` where
#: each orbit is a list of ordered pairs ``(endpoint, other)`` sharing one
#: deviation value.
ProbePlan = Tuple[List[List[Tuple[int, int]]], List[List[Tuple[int, int]]]]


def _instrument_batch(name: str):
    """Telemetry wrapper for the batch entry points (graphs come first).

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


def _endpoint_keys(n: int) -> Dict[Tuple[int, int, int], Tuple[Edge, int]]:
    table = _KEY_TABLES.get(n)
    if table is None:
        table = {}
        for u in range(n):
            for v in range(u + 1, n):
                edge = (u, v)
                table[(u, v, u)] = (edge, u)
                table[(u, v, v)] = (edge, v)
        _KEY_TABLES[n] = table
    return table


def _orbit_key(keys, a: int, b: int) -> Tuple[Edge, int]:
    """Interned ``((min, max), a)`` key for the ordered probe pair ``(a, b)``."""
    return keys[(a, b, a) if a < b else (b, a, a)]


def _probe_plan(graph: Graph, use_orbits: Optional[bool]) -> Optional[ProbePlan]:
    """The orbit-pruned probe plan for ``graph``, or ``None`` for full probing.

    ``use_orbits=None`` (auto) prunes only when the canonical record is
    already memoised on the instance; ``True`` forces the canonical search;
    ``False`` disables pruning.  Graphs with a trivial automorphism group
    gain nothing from pruning and always use full probing.
    """
    if use_orbits is False or graph.n <= 1:
        return None
    record = (
        canonical_record(graph) if use_orbits else cached_canonical_record(graph)
    )
    if record is None or not record.generators:
        return None
    removal: List[List[Tuple[int, int]]] = []
    addition: List[List[Tuple[int, int]]] = []
    for orbit in ordered_pair_orbits(graph, record):
        u, v = orbit[0]
        (removal if graph.has_edge(u, v) else addition).append(orbit)
    return (removal, addition)


@_instrument_batch("batch_stability_deltas")
def batch_stability_deltas(
    graphs: Sequence[Graph],
    oracle: Optional[DistanceOracle] = None,
    use_orbits: Optional[bool] = None,
    return_totals: bool = False,
):
    """``[oracle.stability_deltas(g) for g in graphs]``, but batched.

    Graphs are grouped by vertex count and each group is processed with the
    tensorised kernels below; the per-graph path (``n > 63``) probes one
    representative per automorphism orbit where symmetry data is
    available (see :func:`_probe_plan` and the module docstring for the
    ``use_orbits`` semantics).  Outputs are numerically identical to the
    per-graph oracle path for every setting and returned in input order.

    With ``return_totals=True`` each result is a ``(tables, total)`` pair
    where ``total`` is the graph's total ordered-pair distance sum (equal to
    :func:`repro.graphs.total_distance`, ``inf`` for disconnected graphs).
    The vectorised path reads it off the all-pairs tensor it already built;
    the per-graph path answers it from the oracle's cached sums — either
    way the columnar census store gets it without a second all-pairs pass.
    """
    # On the vectorised path a probe is one tensor slice: cheaper than the
    # per-orbit bookkeeping pruning would add, so auto mode probes fully.
    vector_orbits = True if use_orbits else False

    results: List[Optional[DeltaTables]] = [None] * len(graphs)
    groups: Dict[int, List[int]] = {}
    for index, graph in enumerate(graphs):
        groups.setdefault(graph.n, []).append(index)
    for n, indices in groups.items():
        if n <= 1:
            for index in indices:
                results[index] = (({}, {}), 0.0) if return_totals else ({}, {})
            continue
        if n > 63:
            # Adjacency rows no longer fit an int64 lane; answer these
            # through the per-graph oracle instead of the tensor path.
            if oracle is None:
                oracle = get_default_oracle()
            for index in indices:
                graph = graphs[index]
                tables = _per_graph_deltas(
                    graph, _probe_plan(graph, use_orbits), oracle
                )
                results[index] = (
                    (tables, _oracle_total(graph, oracle)) if return_totals else tables
                )
            continue
        group = [graphs[i] for i in indices]
        plans = [_probe_plan(graph, vector_orbits) for graph in group]
        tables, totals = _batch_group(group, n, plans)
        for index, table, total in zip(indices, tables, totals):
            results[index] = (table, total) if return_totals else table
    return results


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


@_instrument_batch("batch_delta_columns")
def batch_delta_columns(
    graphs: Sequence[Graph],
    oracle: Optional[DistanceOracle] = None,
    use_orbits: Optional[bool] = None,
):
    """Model-independent per-probe Δdist columns with endpoint indices.

    The weighted sweeps pair every deviation payoff with a coefficient
    ``w(payer, other)``, but the payoffs themselves depend only on the
    topology — re-deriving them per cost model (or per ensemble draw) is
    the dominant waste of a mega-ensemble.  This function runs the
    boolean-matmul delta tensorisation (:func:`batch_stability_deltas`)
    once and emits the *weight-free* half of the weighted columns, plus the
    probe endpoint indices any later coefficient gather needs:

    * ``rem_delta, rem_pay, rem_other, rem_indptr`` — one entry per
      (edge, endpoint) removal probe, two per edge in ``sorted_edges``
      order (endpoint ``u`` paying first, then ``v``); probe ``p``'s
      coefficient under a matrix ``W`` is ``W[rem_pay[p]][rem_other[p]]``;
    * ``add_s_u, add_s_v, add_u, add_v, add_indptr`` — one savings pair
      per non-edge in ``non_edges`` order, with the endpoint indices
      (coefficients ``W[add_u][add_v]`` and ``W[add_v][add_u]``);
    * ``num_edges, dist_total`` — dense per-graph columns for aggregates.

    Δ/savings values are stored float32 (every BCG deviation payoff is an
    integer-valued float far below 2**24, or ``±inf``, so the round trip is
    exact — the same contract as the columnar census store); endpoint
    indices are int32.
    """
    results = batch_stability_deltas(
        graphs, oracle=oracle, use_orbits=use_orbits, return_totals=True
    )
    num_edges: List[int] = []
    dist_total: List[float] = []
    rem_delta: List[float] = []
    rem_pay: List[int] = []
    rem_other: List[int] = []
    rem_counts: List[int] = []
    add_s_u: List[float] = []
    add_s_v: List[float] = []
    add_u: List[int] = []
    add_v: List[int] = []
    add_counts: List[int] = []
    for graph, ((removal, addition), total) in zip(graphs, results):
        num_edges.append(graph.num_edges)
        dist_total.append(float(total))
        edges = graph.sorted_edges()
        for (u, v) in edges:
            rem_pay.append(u)
            rem_other.append(v)
            rem_delta.append(removal[((u, v), u)])
            rem_pay.append(v)
            rem_other.append(u)
            rem_delta.append(removal[((u, v), v)])
        rem_counts.append(2 * len(edges))
        non_edges = graph.non_edges()
        for (u, v) in non_edges:
            add_u.append(u)
            add_v.append(v)
            add_s_u.append(addition[((u, v), u)])
            add_s_v.append(addition[((u, v), v)])
        add_counts.append(len(non_edges))

    def indptr(counts: List[int]):
        out = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(np.asarray(counts, dtype=np.int64), out=out[1:])
        return out

    return {
        "num_edges": np.asarray(num_edges, dtype=np.int32),
        "dist_total": np.asarray(dist_total, dtype=np.float64),
        "rem_delta": np.asarray(rem_delta, dtype=np.float32),
        "rem_pay": np.asarray(rem_pay, dtype=np.int32),
        "rem_other": np.asarray(rem_other, dtype=np.int32),
        "rem_indptr": indptr(rem_counts),
        "add_s_u": np.asarray(add_s_u, dtype=np.float32),
        "add_s_v": np.asarray(add_s_v, dtype=np.float32),
        "add_u": np.asarray(add_u, dtype=np.int32),
        "add_v": np.asarray(add_v, dtype=np.int32),
        "add_indptr": indptr(add_counts),
    }


@_instrument_batch("batch_ucg_columns")
def batch_ucg_columns(
    graphs: Sequence[Graph],
    model=None,
    oracle: Optional[DistanceOracle] = None,
    use_orbits: Optional[bool] = None,
):
    """UCG interval-endpoint CSR columns for a batch of graphs.

    Runs the vectorised orientation engine (:mod:`repro.engine.ucg`) over
    the whole batch — scalar α-intervals when ``model`` is ``None``,
    weighted t-intervals for a :class:`~repro.costmodels.models.CostModel`
    otherwise — and packs the per-graph :class:`AlphaIntervalSet` results
    into the ``ucg_lo``/``ucg_hi``/``ucg_indptr`` layout both stores
    persist.  Endpoints are element-for-element float-exact against the
    per-graph backtracking references (``ucg_nash_alpha_set`` /
    ``weighted_ucg_nash_t_set``), which remain the engine's fallback
    beyond its table range.
    """
    from .columnar import ucg_interval_columns
    from .ucg import ucg_alpha_sets, weighted_ucg_t_sets

    if model is None:
        sets = ucg_alpha_sets(graphs, oracle=oracle, use_orbits=use_orbits)
    else:
        sets = weighted_ucg_t_sets(
            graphs, model, oracle=oracle, use_orbits=use_orbits
        )
    lo, hi, indptr = ucg_interval_columns(sets)
    return {"ucg_lo": lo, "ucg_hi": hi, "ucg_indptr": indptr}


def _oracle_total(graph: Graph, oracle: DistanceOracle) -> float:
    """Total ordered-pair distance sum via the oracle's cached per-source sums.

    After :func:`_per_graph_deltas` every source sum the stability pass
    touched is already memoised, so this is at worst a handful of extra
    single-source bitset BFS runs (none at all on the full-probe path).
    """
    return float(sum(oracle.distance_sum(graph, v) for v in range(graph.n)))


def _per_graph_deltas(
    graph: Graph, plan: Optional[ProbePlan], oracle: DistanceOracle
) -> DeltaTables:
    """Per-graph deviation tables, honouring an orbit-pruned probe plan.

    The pruned path evaluates the same per-probe primitives as
    :meth:`DistanceOracle.stability_deltas`
    (:func:`repro.engine.oracle.removal_probe` /
    :func:`~repro.engine.oracle.addition_probe`, so the exact-delta contract
    lives in one place) — but only one representative per orbit, so it does
    strictly less work than full probing whenever the graph has any
    symmetry.
    """
    if plan is None:
        return oracle.stability_deltas(graph)
    cached = oracle.cached_stability_deltas(graph)
    if cached is not None:
        return cached
    keys = _endpoint_keys(graph.n)
    removal_orbits, addition_orbits = plan
    vectors: Dict[int, List[float]] = {}
    shifted: Dict[int, List[float]] = {}
    sums: Dict[int, float] = {}

    def base_sum(vertex: int) -> float:
        value = sums.get(vertex)
        if value is None:
            vector = oracle.distance_vector(graph, vertex)
            vectors[vertex] = vector
            value = sum(vector)
            sums[vertex] = value
        return value

    removal: Dict[Tuple[Edge, int], float] = {}
    bridge_edges = set(bridges(graph)) if removal_orbits else set()
    for orbit in removal_orbits:
        u, v = orbit[0]
        edge = (u, v) if u < v else (v, u)
        value = removal_probe(graph, edge, u, base_sum(u), bridge_edges)
        for a, b in orbit:
            removal[_orbit_key(keys, a, b)] = value

    addition: Dict[Tuple[Edge, int], float] = {}
    for orbit in addition_orbits:
        u, v = orbit[0]
        base = base_sum(u)
        base_sum(v)
        shifted_v = shifted.get(v)
        if shifted_v is None:
            shifted_v = [d + 1 for d in vectors[v]]
            shifted[v] = shifted_v
        value = addition_probe(vectors[u], shifted_v, base)
        for a, b in orbit:
            addition[_orbit_key(keys, a, b)] = value
    oracle.store_stability_deltas(graph, removal, addition)
    return (removal, addition)


def _removal_without_sums(A, n, probe_g, probe_u, probe_v, sources):
    """Post-removal distance sums for a batch of (graph, edge, source) probes.

    Deletes edge ``(probe_u, probe_v)`` from each probe's adjacency slice and
    runs all the single-source BFS levels in lock-step; returns the new
    distance sum per probe (``inf`` when the source no longer reaches every
    vertex).
    """
    P = probe_g.size
    T = A[probe_g].copy()
    arange = np.arange(P)
    T[arange, probe_u, probe_v] = 0
    T[arange, probe_v, probe_u] = 0

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


def _batch_group(
    graphs: Sequence[Graph], n: int, plans: Sequence[Optional[ProbePlan]]
) -> Tuple[List[DeltaTables], List[float]]:
    """Stability deltas (and total distance sums) for a same-``n`` group."""
    G = len(graphs)
    keys = _endpoint_keys(n)

    # (G, n) adjacency rows as integers -> (G, n, n) dense 0/1 tensor.  The
    # caller guarantees n <= 63, so every row fits an int64 lane and uint8
    # accumulators cannot overflow in the frontier matmuls (counts <= n).
    count_dtype = np.uint8
    rows = np.array([g.adjacency_rows() for g in graphs], dtype=np.int64)
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

    triu = np.triu(np.ones((n, n), dtype=bool), k=1)

    removal_tables: List[Dict] = [{} for _ in range(G)]
    addition_tables: List[Dict] = [{} for _ in range(G)]

    plain = np.zeros(G, dtype=bool)
    for i, plan in enumerate(plans):
        if plan is None:
            plain[i] = True

    # ------------------------------------------------------------------ #
    # Plain graphs — full probing: one tensor slice per (edge, endpoint).
    # ------------------------------------------------------------------ #
    edge_g, edge_u, edge_v = np.nonzero(
        (A > 0) & triu[None, :, :] & plain[:, None, None]
    )
    E = edge_g.size
    if E:
        # Both endpoints of every edge: probe p and probe p + E share an edge.
        probe_g = np.concatenate([edge_g, edge_g])
        probe_u = np.concatenate([edge_u, edge_u])
        probe_v = np.concatenate([edge_v, edge_v])
        sources = np.concatenate([edge_u, edge_v])
        without = _removal_without_sums(A, n, probe_g, probe_u, probe_v, sources)

        base = S[probe_g, sources]
        with np.errstate(invalid="ignore"):
            deltas = np.where(
                np.isinf(without) & np.isinf(base), 0.0, without - base
            )

        # One pass over the edges assembles both endpoint entries, sharing
        # the interned key tuples between graphs.
        for g_i, u_i, v_i, delta_u, delta_v in zip(
            edge_g.tolist(),
            edge_u.tolist(),
            edge_v.tolist(),
            deltas[:E].tolist(),
            deltas[E:].tolist(),
        ):
            table = removal_tables[g_i]
            table[keys[(u_i, v_i, u_i)]] = delta_u
            table[keys[(u_i, v_i, v_i)]] = delta_v

    # Addition probes for plain graphs: pure reductions over the all-pairs
    # matrix.
    non_g, non_u, non_v = np.nonzero(
        (A == 0) & triu[None, :, :] & plain[:, None, None]
    )
    if non_g.size:
        new_u = np.minimum(D[non_g, non_u, :], 1.0 + D[non_g, non_v, :]).sum(axis=1)
        new_v = np.minimum(D[non_g, non_v, :], 1.0 + D[non_g, non_u, :]).sum(axis=1)
        base_u = S[non_g, non_u]
        base_v = S[non_g, non_v]
        with np.errstate(invalid="ignore"):
            save_u = np.where(np.isinf(base_u) & np.isinf(new_u), 0.0, base_u - new_u)
            save_v = np.where(np.isinf(base_v) & np.isinf(new_v), 0.0, base_v - new_v)

        for g_i, u_i, v_i, s_u, s_v in zip(
            non_g.tolist(),
            non_u.tolist(),
            non_v.tolist(),
            save_u.tolist(),
            save_v.tolist(),
        ):
            table = addition_tables[g_i]
            table[keys[(u_i, v_i, u_i)]] = s_u
            table[keys[(u_i, v_i, v_i)]] = s_v

    # ------------------------------------------------------------------ #
    # Orbit-pruned graphs: one probe per orbit representative, results
    # expanded across the orbit.
    # ------------------------------------------------------------------ #
    rem_refs: List[Tuple[int, List[Tuple[int, int]]]] = []
    add_refs: List[Tuple[int, List[Tuple[int, int]]]] = []
    for i, plan in enumerate(plans):
        if plan is None:
            continue
        removal_orbits, addition_orbits = plan
        for orbit in removal_orbits:
            rem_refs.append((i, orbit))
        for orbit in addition_orbits:
            add_refs.append((i, orbit))

    if rem_refs:
        probe_g = np.array([i for i, orbit in rem_refs], dtype=np.intp)
        probe_u = np.array([orbit[0][0] for _, orbit in rem_refs], dtype=np.intp)
        probe_v = np.array([orbit[0][1] for _, orbit in rem_refs], dtype=np.intp)
        without = _removal_without_sums(A, n, probe_g, probe_u, probe_v, probe_u)
        base = S[probe_g, probe_u]
        with np.errstate(invalid="ignore"):
            deltas = np.where(
                np.isinf(without) & np.isinf(base), 0.0, without - base
            )
        for (g_i, orbit), delta in zip(rem_refs, deltas.tolist()):
            table = removal_tables[g_i]
            for a, b in orbit:
                table[_orbit_key(keys, a, b)] = delta

    if add_refs:
        probe_g = np.array([i for i, orbit in add_refs], dtype=np.intp)
        probe_u = np.array([orbit[0][0] for _, orbit in add_refs], dtype=np.intp)
        probe_v = np.array([orbit[0][1] for _, orbit in add_refs], dtype=np.intp)
        new_sum = np.minimum(
            D[probe_g, probe_u, :], 1.0 + D[probe_g, probe_v, :]
        ).sum(axis=1)
        base = S[probe_g, probe_u]
        with np.errstate(invalid="ignore"):
            savings = np.where(
                np.isinf(base) & np.isinf(new_sum), 0.0, base - new_sum
            )
        for (g_i, orbit), saving in zip(add_refs, savings.tolist()):
            table = addition_tables[g_i]
            for a, b in orbit:
                table[_orbit_key(keys, a, b)] = saving

    # Per-graph total distance over ordered pairs (inf when disconnected):
    # distances are exact small integers, so the reduction order is
    # irrelevant and the value matches repro.graphs.total_distance exactly.
    totals = S.sum(axis=1).tolist()
    return list(zip(removal_tables, addition_tables)), totals
